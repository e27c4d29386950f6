package core_test

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"flexio/internal/colltest"
	"flexio/internal/core"
	"flexio/internal/datatype"
	"flexio/internal/mpi"
	"flexio/internal/mpiio"
	"flexio/internal/pfs"
	"flexio/internal/sim"
)

// engineSet builds a fresh engine and the engine that resumes it after a
// failure, both journalling into j.
type engineSet struct {
	name   string
	fresh  func(j *mpiio.WriteJournal) mpiio.Collective
	resume func(j *mpiio.WriteJournal, dead []int) mpiio.Collective
}

func byrefEngines() []engineSet {
	coreSet := func(name string, o core.Options) engineSet {
		return engineSet{
			name: name,
			fresh: func(j *mpiio.WriteJournal) mpiio.Collective {
				withJournal := o
				withJournal.Journal = j
				return core.New(withJournal)
			},
			resume: func(j *mpiio.WriteJournal, dead []int) mpiio.Collective {
				return core.ResumeCollective(o, j, dead)
			},
		}
	}
	return []engineSet{
		coreSet("core-nb", core.Options{Method: mpiio.DataSieve}),
		coreSet("core-a2a", core.Options{Method: mpiio.DataSieve, Comm: core.Alltoallw}),
		coreSet("core-blocking", core.Options{Method: mpiio.IntegratedSieve, Comm: core.Blocking}),
		{
			name:  "twophase",
			fresh: func(j *mpiio.WriteJournal) mpiio.Collective { return core.ROMIO(core.Options{Journal: j}) },
			resume: func(j *mpiio.WriteJournal, dead []int) mpiio.Collective {
				j.MarkResume(dead)
				return core.ROMIO(core.Options{Journal: j})
			},
		},
	}
}

// TestCrashSweepDropsViewsInFlight kills one rank at every collective
// operation of a transfer in turn — so also right after it handed the
// aggregators views of its stream (crash-after-send) and, on reads, right
// after an aggregator served views of the file's pages (crash-after-serve)
// — then revives the world, resumes, and requires the byte-identical
// result. A dying rank must drop, never pool, a buffer whose views are in
// flight: under `-race -tags bufpooldebug` a recycled stream is poisoned
// under the aggregator still gathering from it, the journal marks the
// poisoned round durable, the resume skips it, and the image check fails
// (the race detector flags the same access). The victim is a pure client
// for the skip path and an aggregator for the serve path. The write-lent rows
// write from memory segments long enough to be lent, not packed: a victim
// that dies after lending its own buffer must drop it, never pool it.
func TestCrashSweepDropsViewsInFlight(t *testing.T) {
	packedWl := colltest.Workload{Ranks: 4, RegionSize: 64, RegionCount: 32, Spacing: 64,
		MemNoncontig: true, MemGap: 16}
	lentWl := colltest.Workload{Ranks: 4, RegionSize: 256, RegionCount: 8, Spacing: 256,
		MemNoncontig: true, MemGap: 16}
	const cbNodes = 2
	rows := []struct {
		dir   string
		wl    colltest.Workload
		write bool
	}{
		{"write", packedWl, true},
		{"read", packedWl, false},
		{"write-lent", lentWl, true},
	}
	for _, eng := range byrefEngines() {
		for _, row := range rows {
			wl, write := row.wl, row.write
			for _, victim := range []int{wl.Ranks - 1, 0} {
				t.Run(fmt.Sprintf("%s/%s/victim%d", eng.name, row.dir, victim), func(t *testing.T) {
					fired := 0
					// Ops 1 and 2 are the barriers of Open and SetView.
					for seq := int64(3); ; seq++ {
						hit, err := crashAndResume(wl, eng, write, victim, cbNodes, seq)
						if err != nil {
							t.Fatalf("crash at collective op %d: %v", seq, err)
						}
						if !hit {
							break
						}
						fired++
					}
					if fired < 8 {
						t.Fatalf("the sweep crashed the victim only %d times: rounds not covered", fired)
					}
				})
			}
		}
	}
}

// crashAndResume runs one transfer with the victim crashing at its seq'th
// collective operation, resumes if anything failed, and verifies the data.
// hit reports whether the crash rule fired at all.
func crashAndResume(wl colltest.Workload, eng engineSet, write bool, victim, cbNodes int, seq int64) (hit bool, err error) {
	cfg := sim.DefaultConfig()
	w := mpi.NewWorld(wl.Ranks, cfg)
	fs := pfs.NewFileSystem(cfg)
	mt, bufLen := wl.Memtype()

	attempt := func(coll mpiio.Collective, indep bool) ([]error, [][]byte) {
		errs := make([]error, wl.Ranks)
		bufs := make([][]byte, wl.Ranks)
		w.Run(func(p *mpi.Proc) {
			r := p.Rank()
			f, err := mpiio.Open(p, fs, "sweep.dat", mpiio.Info{
				Collective: coll, IndepMethod: mpiio.ListIO, CollBufSize: 1024, CbNodes: cbNodes})
			if err != nil {
				errs[r] = err
				return
			}
			ft, disp := wl.Filetype(r)
			if errs[r] = f.SetView(disp, datatype.Bytes(1), ft); errs[r] != nil {
				return
			}
			switch {
			case indep:
				errs[r] = f.WriteIndependent(wl.FillBuffer(r), mt, wl.RegionCount)
			case write:
				errs[r] = f.WriteAll(wl.FillBuffer(r), mt, wl.RegionCount)
			default:
				bufs[r] = make([]byte, bufLen)
				errs[r] = f.ReadAll(bufs[r], mt, wl.RegionCount)
			}
			f.Close()
		})
		return errs, bufs
	}

	if !write {
		// Seed the file through the fault-free independent path.
		if errs, _ := attempt(nil, true); errors.Join(errs...) != nil {
			return false, fmt.Errorf("seeding: %w", errors.Join(errs...))
		}
		w.ResetClocks()
	}
	rf := mpi.NewRankFaultSchedule(1).CrashAtSeq(victim, seq)
	w.SetRankFaults(rf)
	w.SetCollDeadline(50e-3)
	journal := mpiio.NewWriteJournal()

	errs, bufs := attempt(eng.fresh(journal), false)
	if hit = rf.Injected() > 0; !hit {
		return false, errors.Join(errs...)
	}
	if len(w.FailedRanks()) > 0 {
		// Only the victim is demoted: survivors that waited out the
		// detection timeout on its missing messages can be flagged as
		// stragglers too, and they are healthy.
		w.ReviveAll()
		errs, bufs = attempt(eng.resume(journal, []int{victim}), false)
		if err := errors.Join(errs...); err != nil {
			return true, fmt.Errorf("resume: %w", err)
		}
	}
	if write {
		return true, colltest.VerifyImage(wl, fs.Snapshot("sweep.dat", wl.FileSize()))
	}
	for r, buf := range bufs {
		if !bytes.Equal(buf, wl.FillBuffer(r)) {
			return true, fmt.Errorf("rank %d read back wrong bytes after the resume", r)
		}
	}
	return true, nil
}

// TestDenseMemtypeWrittenInPlace: a dense memory type makes the stream the
// caller's buffer itself, and a gapped one whose segments are long enough
// lends the caller's buffer. Each write must leave that buffer
// byte-identical and produce the image a gapped (Resized) memory type of
// short segments carrying the same data produces through the packed path,
// on every engine and strategy.
func TestDenseMemtypeWrittenInPlace(t *testing.T) {
	dense := colltest.Workload{Ranks: 6, RegionSize: 48, RegionCount: 50, Spacing: 80, Disp: 24}
	gapped := dense
	gapped.MemNoncontig, gapped.MemGap = true, 24
	type memory func(r int) (datatype.Type, int64, []byte)
	of := func(wl colltest.Workload) memory {
		return func(r int) (datatype.Type, int64, []byte) {
			mt, _ := wl.Memtype()
			return mt, wl.RegionCount, wl.FillBuffer(r)
		}
	}
	// The same stream in segments of five regions (240 B) with 24-byte gaps.
	lent := func(r int) (datatype.Type, int64, []byte) {
		mt := datatype.Must(datatype.Resized(datatype.Bytes(5*dense.RegionSize), 5*dense.RegionSize+24))
		count := dense.RegionCount / 5
		buf := make([]byte, count*mt.Extent())
		if err := datatype.Unpack(dense.FillBuffer(r), buf, mt, 0, count); err != nil {
			panic(err)
		}
		return mt, count, buf
	}
	for _, eng := range byrefEngines() {
		t.Run(eng.name, func(t *testing.T) {
			image := func(mem memory) []byte {
				wl := dense
				cfg := sim.DefaultConfig()
				w := mpi.NewWorld(wl.Ranks, cfg)
				fs := pfs.NewFileSystem(cfg)
				errs := make([]error, wl.Ranks)
				info := mpiio.Info{Collective: eng.fresh(nil), CollBufSize: 2048, CbNodes: 3}
				w.Run(func(p *mpi.Proc) {
					r := p.Rank()
					f, err := mpiio.Open(p, fs, "dense.dat", info)
					if err != nil {
						errs[r] = err
						return
					}
					ft, disp := wl.Filetype(r)
					if errs[r] = f.SetView(disp, datatype.Bytes(1), ft); errs[r] != nil {
						return
					}
					mt, count, buf := mem(r)
					keep := bytes.Clone(buf)
					for step := 0; step < 2 && errs[r] == nil; step++ { // the second call hits the memo
						errs[r] = f.WriteAll(buf, mt, count)
					}
					if !bytes.Equal(buf, keep) {
						errs[r] = fmt.Errorf("rank %d: WriteAll modified the user buffer", r)
					}
					f.Close()
				})
				if err := errors.Join(errs...); err != nil {
					t.Fatal(err)
				}
				img := fs.Snapshot("dense.dat", wl.FileSize())
				if err := colltest.VerifyImage(wl, img); err != nil {
					t.Fatal(err)
				}
				return img
			}
			want := image(of(gapped))
			if !bytes.Equal(image(of(dense)), want) {
				t.Fatal("dense and gapped memory types of the same data produced different images")
			}
			if !bytes.Equal(image(lent), want) {
				t.Fatal("lent and packed memory types of the same data produced different images")
			}
		})
	}
}

// TestAbortedReadAllLeavesUserBufferUntouched: a storage error in a late
// round aborts the read after earlier rounds already delivered data to the
// private stream; none of it may show in the user buffer.
func TestAbortedReadAllLeavesUserBufferUntouched(t *testing.T) {
	wl := colltest.Workload{Ranks: 4, RegionSize: 64, RegionCount: 32, Spacing: 64}
	for _, eng := range byrefEngines() {
		t.Run(eng.name, func(t *testing.T) {
			cfg := sim.DefaultConfig()
			w := mpi.NewWorld(wl.Ranks, cfg)
			fs := pfs.NewFileSystem(cfg)
			var mu sync.Mutex
			armed := false
			fs.SetFaultSchedule(pfs.NewFaultSchedule(0).WithHook(func(op pfs.Op) error {
				mu.Lock()
				defer mu.Unlock()
				if armed && op.Kind == "read" && op.Round == 3 {
					return errors.New("injected EIO")
				}
				return nil
			}))
			errs := make([]error, wl.Ranks)
			touched := make([]bool, wl.Ranks)
			info := mpiio.Info{Collective: eng.fresh(nil), CollBufSize: 1024, CbNodes: 2}
			w.Run(func(p *mpi.Proc) {
				r := p.Rank()
				f, err := mpiio.Open(p, fs, "abort.dat", info)
				if err != nil {
					errs[r] = err
					return
				}
				ft, disp := wl.Filetype(r)
				f.SetView(disp, datatype.Bytes(1), ft)
				mt, bufLen := wl.Memtype()
				if err := f.WriteAll(wl.FillBuffer(r), mt, wl.RegionCount); err != nil {
					errs[r] = fmt.Errorf("seeding write: %w", err)
					return
				}
				p.Barrier()
				mu.Lock()
				armed = true
				mu.Unlock()
				p.Barrier()
				buf := bytes.Repeat([]byte{0xA5}, int(bufLen))
				errs[r] = f.ReadAll(buf, mt, wl.RegionCount)
				touched[r] = !bytes.Equal(buf, bytes.Repeat([]byte{0xA5}, int(bufLen)))
				f.Close()
			})
			checkAgreement(t, errs)
			for r, err := range errs {
				if err == nil {
					t.Fatalf("rank %d: the injected read error vanished", r)
				}
				if touched[r] {
					t.Errorf("rank %d: an aborted ReadAll wrote into the user buffer", r)
				}
			}
		})
	}
}
