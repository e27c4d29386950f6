package colltest

import (
	"fmt"
	"sync"
	"testing"

	"flexio/internal/bufpool"
	"flexio/internal/core"
	"flexio/internal/mpiio"
	"flexio/internal/realm"
	"flexio/internal/sim"
)

// TestPoolSharedAcrossEngines drives both collective engines concurrently
// on the shared buffer pools and verifies no buffer is observed mutated
// after release. Run under -race, each engine's many rank goroutines churn
// the same size classes at once: a buffer released while still aliased by
// another goroutine shows up as a data race or as file-image corruption
// (every image is verified byte for byte). Built with -tags bufpooldebug,
// released buffers are additionally poisoned on Put and checked on Get, so
// a write-after-release panics even when the racing writes happen to be
// ordered.
func TestPoolSharedAcrossEngines(t *testing.T) {
	if bufpool.Debug {
		t.Log("bufpooldebug build: poison-on-put active")
	}
	wl := Workload{
		Ranks:        6,
		RegionSize:   96,
		RegionCount:  24,
		Spacing:      48,
		Disp:         64,
		MemNoncontig: true,
		MemGap:       16,
	}
	cfg := sim.DefaultConfig()
	// Each simulation gets its own engine instance (an Impl's per-rank
	// scratch must not be shared across concurrently running worlds); the
	// byte-slice pools underneath are package-global and shared by all.
	engines := []struct {
		name string
		mk   func() mpiio.Info
	}{
		{"twophase", func() mpiio.Info {
			return mpiio.Info{Collective: core.ROMIO(core.Options{})}
		}},
		{"core-nonblocking", func() mpiio.Info {
			return mpiio.Info{Collective: core.New(core.Options{
				Assigner: realm.Even{Align: 4096}, Validate: true,
			})}
		}},
		{"core-alltoallw", func() mpiio.Info {
			return mpiio.Info{Collective: core.New(core.Options{
				Comm: core.Alltoallw, HeapMerge: true, Validate: true,
			})}
		}},
		{"core-heapmerge", func() mpiio.Info {
			return mpiio.Info{Collective: core.New(core.Options{
				HeapMerge: true, Persistent: true, Validate: true,
			})}
		}},
	}

	const repeats = 4
	var wg sync.WaitGroup
	errc := make(chan error, len(engines)*repeats*2)
	for _, eng := range engines {
		for rep := 0; rep < repeats; rep++ {
			wg.Add(2)
			go func(name string, info mpiio.Info) {
				defer wg.Done()
				res, err := RunWriteSteps(cfg, wl, info, 3)
				if err != nil {
					errc <- fmt.Errorf("%s write: %w", name, err)
					return
				}
				if err := VerifyImage(wl, res.Image); err != nil {
					errc <- fmt.Errorf("%s image: %w", name, err)
				}
			}(eng.name, eng.mk())
			go func(name string, info mpiio.Info) {
				defer wg.Done()
				if _, err := RunReadBack(cfg, wl, info); err != nil {
					errc <- fmt.Errorf("%s read: %w", name, err)
				}
			}(eng.name, eng.mk())
		}
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}
