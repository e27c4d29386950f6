//go:build race

package colltest

// raceEnabled reports that this binary was built with the race detector.
// The detector perturbs goroutine scheduling enough to shift sync.Pool
// hit rates between runs, which shows up as a few spurious allocs/op in
// AllocsPerRun; the zero-overhead guards skip their allocation
// comparisons under race and rely on the regular CI pass instead.
const raceEnabled = true
