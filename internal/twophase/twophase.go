// Package twophase exists only because the benchmark module (benchmark/,
// which is frozen) builds its romio-write workload with twophase.New; no
// package of this module imports it. The next change to the benchmark
// deletes it and calls core.ROMIO directly.
//
// The ROMIO-style baseline the paper compares against (Thakur, Gropp, Lusk —
// "Data sieving and collective I/O in ROMIO") is core.ROMIO: core's one
// planner and round executor with ROMIO's request form (the flattened
// offset/length pairs), even realms, all of a round's communication posted
// at once and data sieving integrated into the collective buffer. Its tests
// are rows of core's tables; the few kept here call New and go with the
// package.
package twophase

import "flexio/internal/core"

// New returns the baseline implementation with no options set.
func New() *core.Impl { return core.ROMIO(core.Options{}) }
