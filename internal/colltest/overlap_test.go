package colltest

import (
	"bytes"
	"fmt"
	"testing"

	"flexio/internal/core"
	"flexio/internal/datatype"
	"flexio/internal/mpi"
	"flexio/internal/mpiio"
	"flexio/internal/pfs"
	"flexio/internal/sim"
	"flexio/internal/twophase"
)

// TestOverlappingWritesHighestRankWins pins the overlap tie-break. MPI
// leaves concurrent overlapping writes undefined; flexio resolves them the
// same way everywhere a merge happens (datatype.RunMerger in the aggregator
// rounds of both engines, datatype.BuildMergePlan under pre-aggregation):
// pieces at one offset are applied in rank order, so the highest rank's
// bytes end up in the file. Ranks 5 and 6 write the very same 32 regions,
// interleaved with everyone else's, which puts hundreds of pieces in a
// round: far past the size where an unstable sort keeps ties in order.
func TestOverlappingWritesHighestRankWins(t *testing.T) {
	const ranks, regions, size = 8, 32, 16
	ft := datatype.Must(datatype.Resized(datatype.Bytes(size), ranks*size))
	disp := func(rank int) int64 {
		if rank == 6 {
			rank = 5
		}
		return int64(rank * size)
	}
	fill := func(rank int) []byte {
		buf := make([]byte, regions*size)
		for k := range buf {
			buf[k] = Byte(rank, int64(k))
		}
		return buf
	}
	want := make([]byte, regions*ranks*size)
	for rank := 0; rank < ranks; rank++ { // ascending: the highest rank lands last
		for g, buf := 0, fill(rank); g < regions; g++ {
			copy(want[int64(g*ranks*size)+disp(rank):], buf[g*size:(g+1)*size])
		}
	}

	engines := map[string]func() mpiio.Collective{
		"twophase":        func() mpiio.Collective { return twophase.New() },
		"twophase-preagg": func() mpiio.Collective { return core.ROMIO(core.Options{Preagg: true}) },
		"core-nb":         func() mpiio.Collective { return core.New(core.Options{Validate: true}) },
		"core-a2a":        func() mpiio.Collective { return core.New(core.Options{Comm: core.Alltoallw, Validate: true}) },
		"core-nb-preagg":  func() mpiio.Collective { return core.New(core.Options{Preagg: true, Validate: true}) },
	}
	for name, mk := range engines {
		for _, cb := range []int64{0, 1 << 10} { // one round, and many
			t.Run(fmt.Sprintf("%s/cb=%d", name, cb), func(t *testing.T) {
				cfg := sim.DefaultConfig()
				w := mpi.NewWorld(ranks, cfg)
				w.SetNodeMap(mpi.BlockNodeMap(2)) // 5 and 6 sit on different nodes
				fs := pfs.NewFileSystem(cfg)
				info := mpiio.Info{Collective: mk(), CbNodes: 2, CollBufSize: cb}
				errs := make(chan error, ranks)
				w.Run(func(p *mpi.Proc) {
					f, err := mpiio.Open(p, fs, "overlap.dat", info)
					if err != nil {
						errs <- err
						return
					}
					if err := f.SetView(disp(p.Rank()), datatype.Bytes(1), ft); err != nil {
						errs <- err
						return
					}
					buf := fill(p.Rank())
					for step := 0; step < 2; step++ { // the second call hits the memo
						if err := f.WriteAll(buf, datatype.Bytes(int64(len(buf))), 1); err != nil {
							errs <- err
							return
						}
					}
					errs <- f.Close()
				})
				for i := 0; i < ranks; i++ {
					if err := <-errs; err != nil {
						t.Fatal(err)
					}
				}
				if got := fs.Snapshot("overlap.dat", int64(len(want))); !bytes.Equal(got, want) {
					for k := range want {
						if got[k] != want[k] {
							t.Fatalf("file byte %d = %d, want %d (slot %d)", k, got[k], want[k], (k/size)%ranks)
						}
					}
				}
			})
		}
	}
}
