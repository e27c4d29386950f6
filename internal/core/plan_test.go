package core_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"flexio/internal/colltest"
	"flexio/internal/core"
	"flexio/internal/datatype"
	"flexio/internal/hpio"
	"flexio/internal/mpi"
	"flexio/internal/mpiio"
	"flexio/internal/pfs"
	"flexio/internal/realm"
	"flexio/internal/sim"
)

// The merge-plan tests lean on Options.Validate: on every aggregator memo
// hit it rebuilds the round plans from the requests just received and
// aborts the collective unless they deeply equal the cached ones. So "the
// run succeeded, the image is right, and the aggregators did hit" means
// every memo-hit plan equalled a fresh build.

// planWorld runs script on every rank of a fresh world (two ranks per node
// when nodeRanks is set) against one file, and returns the world and file
// system for inspection.
func planWorld(t *testing.T, ranks, nodeRanks int, info mpiio.Info,
	script func(p *mpi.Proc, f *mpiio.File) error) (*mpi.World, *pfs.FileSystem) {
	t.Helper()
	cfg := sim.DefaultConfig()
	w := mpi.NewWorld(ranks, cfg)
	if nodeRanks > 0 {
		w.SetNodeMap(mpi.BlockNodeMap(nodeRanks))
	}
	fs := pfs.NewFileSystem(cfg)
	errs := make(chan error, ranks)
	w.Run(func(p *mpi.Proc) {
		f, err := mpiio.Open(p, fs, "plan.dat", info)
		if err != nil {
			errs <- err
			return
		}
		if err := script(p, f); err != nil {
			errs <- fmt.Errorf("rank %d: %w", p.Rank(), err)
			return
		}
		errs <- f.Close()
	})
	for i := 0; i < ranks; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	return w, fs
}

// writeThenRead issues the workload's collective write twice and reads it
// back twice, checking what comes back; calls two to four hit the memo.
func writeThenRead(wl colltest.Workload) func(p *mpi.Proc, f *mpiio.File) error {
	return func(p *mpi.Proc, f *mpiio.File) error {
		ft, disp := wl.Filetype(p.Rank())
		if err := f.SetView(disp, byteType, ft); err != nil {
			return err
		}
		mt, bufLen := wl.Memtype()
		buf := wl.FillBuffer(p.Rank())
		want, _ := datatype.Pack(buf, mt, 0, wl.RegionCount)
		for step := 0; step < 2; step++ {
			if err := f.WriteAll(buf, mt, wl.RegionCount); err != nil {
				return err
			}
		}
		for step := 0; step < 2; step++ {
			back := make([]byte, bufLen)
			if err := f.ReadAll(back, mt, wl.RegionCount); err != nil {
				return err
			}
			if got, _ := datatype.Pack(back, mt, 0, wl.RegionCount); !bytes.Equal(got, want) {
				return fmt.Errorf("read-back %d differs from what was written", step)
			}
		}
		return nil
	}
}

// TestPlanMemoHitEqualsFreshBuild covers every colltest pattern shape
// (dense and spaced interleaves, enumerated filetypes, noncontiguous
// memory, a displaced view) under every option that changes what the
// aggregator receives or how realms are cut.
func TestPlanMemoHitEqualsFreshBuild(t *testing.T) {
	patterns := map[string]colltest.Workload{
		"dense":      {Ranks: 8, RegionSize: 64, RegionCount: 40},
		"spaced":     baseWorkload(),
		"enumerated": {Ranks: 8, RegionSize: 16, RegionCount: 96, Spacing: 48, Enumerate: true},
		"memgap":     {Ranks: 6, RegionSize: 100, RegionCount: 30, Spacing: 7, Disp: 3, MemNoncontig: true, MemGap: 12},
	}
	engines := map[string]core.Options{
		"nonblocking": {},
		"alltoallw":   {Comm: core.Alltoallw},
		"pfr-aligned": {Persistent: true, Align: 4096},
		"heapmerge":   {HeapMerge: true},
		"cyclic":      {Assigner: realm.Cyclic{Block: 512}},
		"preagg":      {Preagg: true},
		"preagg-a2a":  {Preagg: true, Comm: core.Alltoallw},
	}
	for pname, wl := range patterns {
		for ename, o := range engines {
			t.Run(pname+"/"+ename, func(t *testing.T) {
				o.Validate = true
				info := mpiio.Info{Collective: core.New(o), CbNodes: 3, CollBufSize: 2048}
				w, fs := planWorld(t, wl.Ranks, 2, info, writeThenRead(wl))
				if err := colltest.VerifyImage(wl, fs.Snapshot("plan.dat", wl.FileSize())); err != nil {
					t.Fatal(err)
				}
				// Four calls, one agg-side lookup per aggregator slot per
				// call; at least the three repeats of the three real
				// aggregators must have hit (and been cross-checked).
				if hits, _ := cacheCounts(w.Totals()); hits < 3*3 {
					t.Fatalf("only %d memo hits: the plan cross-check never ran", hits)
				}
			})
		}
	}
}

// TestPlanAfterRealmReassignment: layout A twice, then one rank's access
// stretches the aggregate region so the Even assigner cuts different realms
// (layout B) twice, then back to A twice. The last two calls hit plans
// cached before the reassignment, under A's realm signature; B's calls
// must not see them.
func TestPlanAfterRealmReassignment(t *testing.T) {
	wl := baseWorkload()
	far := baseWorkload()
	far.Disp += 1 << 16
	for _, comm := range []core.CommStrategy{core.Nonblocking, core.Alltoallw} {
		t.Run(comm.String(), func(t *testing.T) {
			info := mpiio.Info{Collective: core.New(core.Options{Comm: comm, Validate: true}), CollBufSize: 1024}
			_, fs := planWorld(t, wl.Ranks, 0, info, func(p *mpi.Proc, f *mpiio.File) error {
				mt, _ := wl.Memtype()
				buf := wl.FillBuffer(p.Rank())
				for _, layout := range []colltest.Workload{wl, far, wl} {
					ft, disp := wl.Filetype(p.Rank())
					if p.Rank() == wl.Ranks-1 {
						ft, disp = layout.Filetype(p.Rank())
					}
					if err := f.SetView(disp, byteType, ft); err != nil {
						return err
					}
					for step := 0; step < 2; step++ {
						if err := f.WriteAll(buf, mt, wl.RegionCount); err != nil {
							return err
						}
					}
				}
				return nil
			})
			if err := colltest.VerifyImage(wl, fs.Snapshot("plan.dat", wl.FileSize())); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestPlanAfterFailoverResume: the healthy engine fills its memo under the
// full realm layout; the resume engine (rank 1 demoted from aggregator
// duty, so its realm moves to the survivors) then runs the same collective
// three times. Its first call must build plans for the failover layout,
// not inherit the pre-failure ones, and its repeats must hit plans equal to
// a fresh build; the image stays byte-identical throughout.
func TestPlanAfterFailoverResume(t *testing.T) {
	wl := baseWorkload()
	for name, o := range map[string]core.Options{
		"plain":  {Validate: true},
		"preagg": {Validate: true, Preagg: true},
		"pfr":    {Validate: true, Persistent: true},
	} {
		t.Run(name, func(t *testing.T) {
			cfg := sim.DefaultConfig()
			w := mpi.NewWorld(wl.Ranks, cfg)
			w.SetNodeMap(mpi.BlockNodeMap(2))
			fs := pfs.NewFileSystem(cfg)
			journal := mpiio.NewWriteJournal()
			o.Journal = journal
			writes := func(coll mpiio.Collective, steps int) {
				t.Helper()
				errs := make(chan error, wl.Ranks)
				w.Run(func(p *mpi.Proc) {
					f, err := mpiio.Open(p, fs, "plan.dat", mpiio.Info{Collective: coll, CollBufSize: 1024})
					if err != nil {
						errs <- err
						return
					}
					ft, disp := wl.Filetype(p.Rank())
					if err := f.SetView(disp, byteType, ft); err != nil {
						errs <- err
						return
					}
					mt, _ := wl.Memtype()
					for step := 0; step < steps; step++ {
						if err := f.WriteAll(wl.FillBuffer(p.Rank()), mt, wl.RegionCount); err != nil {
							errs <- fmt.Errorf("rank %d step %d: %w", p.Rank(), step, err)
							return
						}
					}
					errs <- f.Close()
				})
				for i := 0; i < wl.Ranks; i++ {
					if err := <-errs; err != nil {
						t.Fatal(err)
					}
				}
				if err := colltest.VerifyImage(wl, fs.Snapshot("plan.dat", wl.FileSize())); err != nil {
					t.Fatal(err)
				}
			}
			writes(core.New(o), 2)
			writes(core.ResumeCollective(o, journal, []int{1}), 3)
		})
	}
}

// TestNonMonotoneHIndexedView: a filetype whose blocks are listed out of
// offset order. datatype normalizes every type's segments, so the engines
// see (and the merger gets) offset-sorted runs and the stream order is the
// offset order; the collective image must equal what the same view writes
// through the independent naive path, on both engines.
func TestNonMonotoneHIndexedView(t *testing.T) {
	const ranks, blk, tile = 4, 24, 512
	view := func(rank int) (datatype.Type, int64) {
		// Blocks at 3, 0, 2, 1 (in units of ranks*blk), this rank's slot in each.
		displs := []int64{3, 0, 2, 1}
		for k := range displs {
			displs[k] = displs[k]*ranks*blk + int64(rank*blk)
		}
		ft := datatype.Must(datatype.HIndexed([]int64{1, 1, 1, 1}, displs, datatype.Bytes(blk)))
		return datatype.Must(datatype.Resized(ft, tile)), 0
	}
	const count = 5 // filetype instances per rank
	write := func(coll mpiio.Collective, name string, fs *pfs.FileSystem, w *mpi.World) {
		t.Helper()
		spec := func(_, rank int) colltest.StepSpec {
			ft, disp := view(rank)
			buf := hpio.Fill(make([]byte, count*4*blk), rank, 0)
			return colltest.StepSpec{Filetype: ft, Disp: disp, Memtype: datatype.Bytes(int64(len(buf))), Count: 1, Buf: buf}
		}
		info := mpiio.Info{Collective: coll, IndepMethod: mpiio.Naive, CbNodes: 2, CollBufSize: 256}
		errs, err := colltest.Transfer(w, fs, name, info, true, 1, spec)
		if err := errors.Join(append(errs, err)...); err != nil {
			t.Fatal(err)
		}
	}
	cfg := sim.DefaultConfig()
	w := mpi.NewWorld(ranks, cfg)
	fs := pfs.NewFileSystem(cfg)
	write(nil, "naive.dat", fs, w)
	want := fs.Snapshot("naive.dat", count*tile)
	for name, coll := range map[string]mpiio.Collective{
		"twophase": core.ROMIO(core.Options{}),
		"core-nb":  core.New(core.Options{Validate: true}),
		"core-a2a": core.New(core.Options{Comm: core.Alltoallw, Validate: true}),
	} {
		write(coll, name+".dat", fs, w)
		if got := fs.Snapshot(name+".dat", count*tile); !bytes.Equal(got, want) {
			t.Errorf("%s: collective image differs from the naive reference", name)
		}
	}
}
