//go:build race

package main

// raceEnabled reports that this binary was built with -race. The four
// fleet-sweep rows of the report gate are left out of such runs (see
// gateSkip): together they take about two minutes under the detector
// on a 2-core host, and the parallel paths they exercise are
// race-tested cheaply in the internal packages.
const raceEnabled = true
