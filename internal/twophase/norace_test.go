//go:build !race

package twophase

// raceEnabled reports that this binary was built with the race detector.
const raceEnabled = false
