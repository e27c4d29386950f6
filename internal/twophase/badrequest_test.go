package twophase_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"flexio/internal/colltest"
	"flexio/internal/datatype"
	"flexio/internal/mpi"
	"flexio/internal/mpiio"
	"flexio/internal/pfs"
	"flexio/internal/sim"
	"flexio/internal/twophase"
)

// TestMalformedRequestAbortsCollective is the repro the baseline's malformed
// requests were found with: integrity off, one bit of the sender's first
// request to rank 0 flipped in flight, in the shape of core's test of the
// same name (four ranks, two aggregators, one round), whose romio rows plant
// the damage in the sender's memo entry instead. Seeds 4 and 7 once panicked
// rank 0, seed 2 was caught only by the file system's span check, and the
// other five lost the sender's bytes without a word (the flip pushed a pair
// out of every round's window). Every rank must abort alike, and rank 0 must
// name the sender.
func TestMalformedRequestAbortsCollective(t *testing.T) {
	const bad = 2
	wl := colltest.Workload{Ranks: 4, RegionSize: 64, RegionCount: 16, Spacing: 32}
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprint("bit flip/seed ", seed), func(t *testing.T) {
			cfg := sim.DefaultConfig()
			w, fs := mpi.NewWorld(wl.Ranks, cfg), pfs.NewFileSystem(cfg)
			w.SetRankFaults(mpi.NewRankFaultSchedule(seed).Corrupt(bad, 0, 1.0, 1, 1))
			info := mpiio.Info{Collective: twophase.New(), CbNodes: 2, CollBufSize: 4 << 10}
			errs := make([]error, wl.Ranks)
			done := make(chan struct{})
			go func() {
				defer close(done)
				w.Run(func(p *mpi.Proc) {
					r := p.Rank()
					f, err := mpiio.Open(p, fs, "bad.dat", info)
					if err != nil {
						errs[r] = err
						return
					}
					defer f.Close()
					ft, disp := wl.Filetype(r)
					if errs[r] = f.SetView(disp, datatype.Bytes(1), ft); errs[r] == nil {
						mt, _ := wl.Memtype()
						errs[r] = f.WriteAll(wl.FillBuffer(r), mt, wl.RegionCount)
					}
				})
			}()
			select {
			case <-done:
			case <-time.After(30 * time.Second):
				t.Fatal("collective hung")
			}
			for r, err := range errs {
				if err == nil || mpiio.ErrorClass(err) != mpiio.ErrorClass(errs[0]) {
					t.Fatalf("rank %d returned %v, rank 0 %v", r, err, errs[0])
				}
			}
			if !strings.Contains(errs[0].Error(), fmt.Sprintf("bad request from rank %d", bad)) {
				t.Fatalf("rank 0's error does not name the sender: %v", errs[0])
			}
		})
	}
}
