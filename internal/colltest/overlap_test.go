package colltest

import (
	"bytes"
	"fmt"
	"testing"

	"flexio/internal/core"
	"flexio/internal/datatype"
	"flexio/internal/hpio"
	"flexio/internal/mpi"
	"flexio/internal/mpiio"
	"flexio/internal/pfs"
	"flexio/internal/sim"
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
		return hpio.Fill(make([]byte, regions*size), rank, 0)
	}
	want := make([]byte, regions*ranks*size)
	for rank := 0; rank < ranks; rank++ { // ascending: the highest rank lands last
		for g, buf := 0, fill(rank); g < regions; g++ {
			copy(want[int64(g*ranks*size)+disp(rank):], buf[g*size:(g+1)*size])
		}
	}

	engines := map[string]func() mpiio.Collective{
		"twophase":        func() mpiio.Collective { return core.ROMIO(core.Options{}) },
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
				spec := func(_, rank int) StepSpec {
					buf := fill(rank)
					return StepSpec{Filetype: ft, Disp: disp(rank), Memtype: datatype.Bytes(int64(len(buf))), Count: 1, Buf: buf}
				}
				if err := run(w, fs, info, true, 2, spec); err != nil { // the second call hits the memo
					t.Fatal(err)
				}
				if got := fs.Snapshot(File, int64(len(want))); !bytes.Equal(got, want) {
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

// TestContainedWritesHighestRankWins: one rank's region contains another's,
// so the aggregator's segment list overlaps within one sieve window (rank 0
// writes bytes [0,100), rank 1 bytes [50,60), one aggregator). Every
// exchange strategy writes the highest rank's bytes where they overlap and
// reads the image back through the same list.
func TestContainedWritesHighestRankWins(t *testing.T) {
	regions := []struct{ disp, n int64 }{{0, 100}, {50, 10}}
	fill := func(rank int) []byte {
		return hpio.Fill(make([]byte, regions[rank].n), rank, 0)
	}
	want := make([]byte, 100)
	for rank := range regions { // ascending: the highest rank lands last
		copy(want[regions[rank].disp:], fill(rank))
	}
	for _, comm := range []core.CommStrategy{core.Nonblocking, core.Alltoallw, core.Blocking} {
		t.Run(comm.String(), func(t *testing.T) {
			cfg := sim.DefaultConfig()
			w := mpi.NewWorld(len(regions), cfg)
			fs := pfs.NewFileSystem(cfg)
			info := mpiio.Info{Collective: core.New(core.Options{Comm: comm}), CbNodes: 1}
			errs := make([]error, len(regions))
			w.Run(func(p *mpi.Proc) {
				r := p.Rank()
				f, err := mpiio.Open(p, fs, "contain.dat", info)
				if err != nil {
					errs[r] = err
					return
				}
				defer f.Close()
				n := regions[r].n
				if errs[r] = f.SetView(regions[r].disp, datatype.Bytes(1), datatype.Bytes(n)); errs[r] != nil {
					return
				}
				if errs[r] = f.WriteAll(fill(r), datatype.Bytes(n), 1); errs[r] != nil {
					return
				}
				got := make([]byte, n)
				if errs[r] = f.ReadAll(got, datatype.Bytes(n), 1); errs[r] == nil && !bytes.Equal(got, want[regions[r].disp:][:n]) {
					errs[r] = fmt.Errorf("rank %d read back %v, want %v", r, got, want[regions[r].disp:][:n])
				}
			})
			for _, err := range errs {
				if err != nil {
					t.Fatal(err)
				}
			}
			if got := fs.Snapshot("contain.dat", int64(len(want))); !bytes.Equal(got, want) {
				t.Fatalf("image %v, want %v", got, want)
			}
		})
	}
}
