//go:build race

package twophase

// raceEnabled reports that this binary was built with the race detector,
// whose instrumentation allocates on its own account: the allocation budget
// of TestRomioSteadyStateAllocs holds for the regular pass only.
const raceEnabled = true
