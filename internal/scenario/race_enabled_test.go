//go:build race

package scenario

// raceEnabled reports that this binary was built with -race: the
// one-machine equivalence sweep is ~6x slower under the detector, so it
// keeps the default scheduler only, while the fleet's parallel stepping
// is race-tested directly in internal/fleet.
const raceEnabled = true
