//go:build !race

package colltest

// raceEnabled reports that this binary was built with the race detector.
const raceEnabled = false
