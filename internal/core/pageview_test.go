package core_test

import (
	"bytes"
	"errors"
	"testing"

	"flexio/internal/bufpool"
	"flexio/internal/colltest"
	"flexio/internal/core"
	"flexio/internal/mpi"
	"flexio/internal/mpiio"
	"flexio/internal/pfs"
	"flexio/internal/sim"
)

// TestReadsNeverWriteTheFile: a read aggregator lends its clients views of
// the file's pages, and of the file system's zero page where it failed, so
// a client that wrote through a view would change the file. Collective
// reads under corrupted links (checksums off, checksums on and repaired,
// checksums on and exhausted), a transient storage abort met reading ahead,
// and an aggregator crash mid-read leave the file byte-identical and the
// zero page all zeros, on every engine and exchange strategy.
func TestReadsNeverWriteTheFile(t *testing.T) {
	// Each arm returns how many faults its schedule injected so far.
	corrupt := func(checked bool, repeat int) func(*mpi.World, *pfs.FileSystem) func() int64 {
		return func(w *mpi.World, _ *pfs.FileSystem) func() int64 {
			if checked {
				w.EnableIntegrity(3)
			}
			s := mpi.NewRankFaultSchedule(3).Corrupt(0, 2, repeat, 4)
			w.SetRankFaults(s)
			return s.Injected
		}
	}
	cases := []struct {
		name  string
		arm   func(*mpi.World, *pfs.FileSystem) func() int64
		fails bool // the read must fail
	}{
		{name: "wire-corrupt-unchecked", arm: corrupt(false, 1), fails: true},
		{name: "wire-corrupt-repaired", arm: corrupt(true, 1)},
		{name: "wire-corrupt-exhausted", arm: corrupt(true, 100), fails: true},
		{name: "transient-read-ahead", fails: true, arm: func(_ *mpi.World, fs *pfs.FileSystem) func() int64 {
			s := pfs.NewFaultSchedule(5).Add(pfs.Rule{Kind: "read", Class: pfs.ClassTransient, Rounds: []int{3}})
			fs.SetFaultSchedule(s)
			return s.Injected
		}},
		{name: "aggregator-crash", fails: true, arm: func(w *mpi.World, _ *pfs.FileSystem) func() int64 {
			s := mpi.NewRankFaultSchedule(1).Crash(1, 2)
			w.SetRankFaults(s)
			return s.Injected
		}},
	}
	for _, eng := range byrefEngines() {
		for _, tc := range cases {
			t.Run(eng.name+"/"+tc.name, func(t *testing.T) {
				cfg := sim.DefaultConfig()
				w, fs := mpi.NewWorld(aheadWorkload.Ranks, cfg), pfs.NewFileSystem(cfg)
				info := mpiio.Info{Collective: eng.fresh(nil), RetryLimit: -1}
				aheadSeed(t, w, fs, info)
				size := fs.Size("ahead.dat")
				before := fs.Snapshot("ahead.dat", size)
				injected := tc.arm(w, fs)
				errs, _ := aheadRead(w, fs, info)
				if injected() == 0 || tc.fails && errors.Join(errs...) == nil {
					t.Fatalf("%d faults injected; every rank read without an error: %v", injected(), errors.Join(errs...) == nil)
				}
				if fs.Size("ahead.dat") != size || !bytes.Equal(fs.Snapshot("ahead.dat", size), before) {
					t.Error("a collective read changed the file")
				}
				if zero := bytes.Join(fs.ZeroViews(nil, cfg.PageSize), nil); !bytes.Equal(zero, make([]byte, cfg.PageSize)) {
					t.Error("a collective read wrote into the zero page")
				}
			})
		}
	}
}

// TestReadStreamNeedsNoZeroFill: a client whose pieces cover its read stream
// takes the stream from the pool without clearing it, so whatever a recycled
// buffer held must be overwritten before the unpack. Before every
// steady-state read, pooled buffers of the stream's size class are filled
// with the poison -tags bufpooldebug puts in every released buffer; none of
// it may reach a user buffer, on any engine, with or without pre-aggregation
// (whose members hold a stream their own pieces do not cover).
func TestReadStreamNeedsNoZeroFill(t *testing.T) {
	wl := colltest.Workload{Ranks: 8, RegionSize: 256, RegionCount: 64, Spacing: 768,
		MemNoncontig: true, MemGap: 64, NodeRanks: 4}
	type engine struct {
		name string
		coll mpiio.Collective
	}
	var engines []engine
	for _, eng := range byrefEngines() {
		engines = append(engines, engine{eng.name, eng.fresh(nil)})
	}
	engines = append(engines, engine{"core-nb-preagg", core.New(core.Options{Preagg: true})},
		engine{"twophase-preagg", core.ROMIO(core.Options{Preagg: true})})
	for _, eng := range engines {
		t.Run(eng.name, func(t *testing.T) {
			cfg := sim.DefaultConfig()
			s, err := colltest.NewSession(colltest.NewWorld(cfg, wl), pfs.NewFileSystem(cfg), wl,
				mpiio.Info{Collective: eng.coll, CbNodes: 2, CollBufSize: 8 << 10}, false)
			if err != nil {
				t.Fatal(err)
			}
			for step := 0; step < 3; step++ {
				bufs := make([][]byte, 4*wl.Ranks)
				for k := range bufs {
					bufs[k] = bufpool.Get(wl.RegionSize * wl.RegionCount)
					for i := range bufs[k] {
						bufs[k][i] = 0xDB
					}
				}
				for _, b := range bufs {
					bufpool.Put(b)
				}
				if err := s.Step(); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				if err := s.Verify(); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
			}
		})
	}
}
