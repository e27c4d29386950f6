//go:build race

package core

// raceEnabled reports that this binary was built with the race detector,
// whose instrumentation allocates on its own account: the allocation budget
// of TestMissPathAllocs holds for the regular pass only.
const raceEnabled = true
