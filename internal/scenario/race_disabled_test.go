//go:build !race

package scenario

// raceEnabled is false in a build without the race detector.
const raceEnabled = false
