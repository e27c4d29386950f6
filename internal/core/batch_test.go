package core_test

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"flexio/internal/colltest"
	"flexio/internal/core"
	"flexio/internal/datatype"
	"flexio/internal/metrics"
	"flexio/internal/mpi"
	"flexio/internal/mpiio"
	"flexio/internal/pfs"
	"flexio/internal/sim"
	"flexio/internal/stats"
	"flexio/internal/trace"
)

// Under DataSieve an aggregator writes consecutive rounds as one batch, one
// sieve window, while their data fits the collective buffer and their span
// fits the sieve buffer. These tests run batchWorkload, which is one eighth
// dense like the benchmark's tiny-enum-write: with two aggregators and a 1 KiB
// collective buffer, each aggregator's 16 KiB realm is 16 rounds of 128 data
// bytes.
var batchWorkload = colltest.Workload{Ranks: 4, RegionSize: 16, RegionCount: 64, Spacing: 112}

const (
	batchAggs   = 2
	batchCB     = 1024
	batchRounds = 16
)

// batchWrite is one WriteStream of an aggregator's trace: its data bytes and
// the span of every sieve write window it issued.
type batchWrite struct {
	bytes   int64
	windows []int64
}

// tagInt returns e's integer tag key, or -1.
func tagInt(e trace.Event, key string) int64 {
	for _, tg := range e.Tags {
		if tg.Key == key && !tg.IsStr {
			return tg.Int
		}
	}
	return -1
}

func tagStr(e trace.Event, key, val string) bool {
	return slices.ContainsFunc(e.Tags, func(tg trace.Tag) bool { return tg.Key == key && tg.Str == val })
}

// aggWrites returns an aggregator's writes in issue order.
func aggWrites(tr *trace.Tracer) (writes []batchWrite) {
	inWrite := false
	var open []bool // per open span: is it a write's I/O span
	for _, e := range tr.Events() {
		switch e.Kind {
		case trace.KindBegin:
			w := e.Name == stats.PIO && tagStr(e, "op", "write")
			if w && !inWrite {
				writes = append(writes, batchWrite{bytes: tagInt(e, trace.BytesTag)})
				inWrite = true
			} else {
				w = false
			}
			open = append(open, w)
		case trace.KindEnd:
			if open[len(open)-1] {
				inWrite = false
			}
			open = open[:len(open)-1]
		case trace.KindInstant:
			if e.Name == "io_call" && tagStr(e, "kind", "sieve_write") && inWrite {
				w := &writes[len(writes)-1]
				w.windows = append(w.windows, tagInt(e, "len"))
			}
		}
	}
	return writes
}

// recorded builds the workload's world with its trace and metrics armed.
func recorded(cfg *sim.Config, wl colltest.Workload) *mpi.World {
	w := colltest.NewWorld(cfg, wl)
	w.EnableTracing(0)
	w.EnableMetrics()
	return w
}

// dataRounds counts the rounds aggregator a gathered data in, from the
// flight recorder.
func dataRounds(res colltest.Result, a int) int {
	n := 0
	for _, rs := range res.World.MetricsSet().Dump(false).Rounds {
		if rs.RecvBytes[a] > 0 {
			n++
		}
	}
	return n
}

// TestWriteBatchesSparseRounds: on a sparse shape with cb smaller than the
// sieve buffer, every batch is one RMW read and one write, and the batches
// are as long as the tighter limit allows: eight rounds (1 KiB of data) under
// the default 4 MiB sieve buffer, two rounds (a 2 KiB span) under a 2 KiB
// one. The image is exact, and every strategy batches the same way.
func TestWriteBatchesSparseRounds(t *testing.T) {
	for _, tc := range []struct {
		sieve   int64
		batches int // per aggregator
	}{
		{0, batchRounds / 8},
		{2 << 10, batchRounds / 2},
	} {
		for _, comm := range []core.CommStrategy{core.Nonblocking, core.Alltoallw, core.Blocking} {
			t.Run(fmt.Sprintf("%s/sieve=%d", comm, tc.sieve), func(t *testing.T) {
				res, err := colltest.Write(recorded(sim.DefaultConfig(), batchWorkload), batchWorkload, mpiio.Info{
					Collective: core.New(core.Options{Comm: comm}), CbNodes: batchAggs,
					CollBufSize: batchCB, SieveBufSize: tc.sieve}, 1)
				if err != nil {
					t.Fatal(err)
				}
				if err := colltest.VerifyImage(batchWorkload, res.Image); err != nil {
					t.Fatal(err)
				}
				for a := 0; a < batchAggs; a++ {
					writes, rounds := aggWrites(res.World.TraceSink().Tracer(a)), dataRounds(res, a)
					if rounds != batchRounds || len(writes) != tc.batches {
						t.Fatalf("aggregator %d: %d writes of %d rounds, want %d of %d", a, len(writes), rounds, tc.batches, batchRounds)
					}
					for k, w := range writes {
						if w.bytes != batchRounds*128/int64(tc.batches) || len(w.windows) != 1 {
							t.Errorf("aggregator %d batch %d: %d bytes in %d windows, want %d in one",
								a, k, w.bytes, len(w.windows), batchRounds*128/tc.batches)
						}
					}
					// One RMW read and one write a batch.
					if got := res.World.Proc(a).Metrics.Counter(metrics.CIOCalls); got != int64(2*tc.batches) {
						t.Errorf("aggregator %d: %d storage calls, want %d", a, got, 2*tc.batches)
					}
				}
			})
		}
	}
}

// TestWriteBatchBounds: no batch carries more than cb bytes or spans more
// than the sieve buffer (it is one window however the limits are set), and
// where no batching applies the storage calls are exactly those of a write
// per round: a dense shape whose rounds carry more than half of cb (as the
// benchmark's sieve-write does), and the methods that do not batch.
func TestWriteBatchBounds(t *testing.T) {
	for _, tc := range []struct{ cb, sieve int64 }{
		{1024, 1024}, {1024, 1536}, {1024, 3000}, {512, 3000}, {1000, 5000}, {3000, 1024}, {1024, 1 << 20},
	} {
		t.Run(fmt.Sprintf("cb=%d/sieve=%d", tc.cb, tc.sieve), func(t *testing.T) {
			res, err := colltest.Write(recorded(sim.DefaultConfig(), batchWorkload), batchWorkload, mpiio.Info{
				Collective: core.New(core.Options{}), CbNodes: batchAggs,
				CollBufSize: tc.cb, SieveBufSize: tc.sieve}, 1)
			if err != nil {
				t.Fatal(err)
			}
			if err := colltest.VerifyImage(batchWorkload, res.Image); err != nil {
				t.Fatal(err)
			}
			for a := 0; a < batchAggs; a++ {
				writes := aggWrites(res.World.TraceSink().Tracer(a))
				for k, w := range writes {
					if w.bytes > tc.cb {
						t.Errorf("aggregator %d batch %d: %d bytes, cb is %d", a, k, w.bytes, tc.cb)
					}
					for _, span := range w.windows {
						if span > tc.sieve {
							t.Errorf("aggregator %d batch %d: a %d-byte window, the sieve buffer is %d", a, k, span, tc.sieve)
						}
					}
					if tc.cb <= tc.sieve && len(w.windows) != 1 {
						t.Errorf("aggregator %d batch %d: %d windows, want one", a, k, len(w.windows))
					}
				}
			}
		})
	}

	dense := colltest.Workload{Ranks: 4, RegionSize: 48, RegionCount: 64, Spacing: 16}
	for _, tc := range []struct {
		name  string
		wl    colltest.Workload
		coll  func() mpiio.Collective
		calls int64 // storage calls over all ranks, as one write per round issues them
	}{
		{"dense/datasieve", dense, func() mpiio.Collective { return core.New(core.Options{}) }, 32},
		{"sparse/naive", batchWorkload, func() mpiio.Collective { return core.New(core.Options{Method: mpiio.Naive}) }, 256},
		{"sparse/listio", batchWorkload, func() mpiio.Collective { return core.New(core.Options{Method: mpiio.ListIO}) }, 32},
		{"sparse/romio", batchWorkload, func() mpiio.Collective { return core.ROMIO(core.Options{}) }, 64},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := colltest.Write(recorded(sim.DefaultConfig(), tc.wl), tc.wl, mpiio.Info{
				Collective: tc.coll(), CbNodes: batchAggs, CollBufSize: batchCB}, 1)
			if err != nil {
				t.Fatal(err)
			}
			if err := colltest.VerifyImage(tc.wl, res.Image); err != nil {
				t.Fatal(err)
			}
			for a := 0; a < batchAggs; a++ {
				if writes, rounds := aggWrites(res.World.TraceSink().Tracer(a)), dataRounds(res, a); len(writes) != rounds {
					t.Errorf("aggregator %d: %d writes for %d rounds with data, want one a round", a, len(writes), rounds)
				}
			}
			if got := res.World.Totals().Counter(metrics.CIOCalls); got != tc.calls {
				t.Errorf("%d storage calls, want %d", got, tc.calls)
			}
		})
	}
}

// TestWriteBatchResume: a pure client dies entering round 6, in the middle of
// every aggregator's second batch (a 4 KiB sieve buffer cuts batches of four
// rounds). Each aggregator had committed its first batch, four rounds, before
// the abort. The resume keeps the realm epoch, so it skips those rounds and
// replays the rest, byte-identically, and both are counted in rounds.
func TestWriteBatchResume(t *testing.T) {
	const victim = 3
	for _, comm := range []core.CommStrategy{core.Nonblocking, core.Alltoallw, core.Blocking} {
		t.Run(comm.String(), func(t *testing.T) {
			wl := batchWorkload
			cfg := sim.DefaultConfig()
			w := mpi.NewWorld(wl.Ranks, cfg)
			fs := pfs.NewFileSystem(cfg)
			mt, _ := wl.Memtype()
			attempt := func(coll mpiio.Collective) []error {
				errs := make([]error, wl.Ranks)
				w.Run(func(p *mpi.Proc) {
					r := p.Rank()
					f, err := mpiio.Open(p, fs, "batch.dat", mpiio.Info{Collective: coll,
						CbNodes: batchAggs, CollBufSize: batchCB, SieveBufSize: 4 << 10, RetryLimit: -1})
					if err != nil {
						errs[r] = err
						return
					}
					ft, disp := wl.Filetype(r)
					if errs[r] = f.SetView(disp, datatype.Bytes(1), ft); errs[r] == nil {
						errs[r] = f.WriteAll(wl.FillBuffer(r), mt, wl.RegionCount)
					}
					f.Close()
				})
				return errs
			}
			w.SetRankFaults(mpi.NewRankFaultSchedule(1).Crash(victim, 6))
			w.SetCollDeadline(50e-3)
			journal := mpiio.NewWriteJournal()
			o := core.Options{Comm: comm, Journal: journal}
			errs := attempt(core.New(o))
			for r, err := range errs {
				if r != victim && mpiio.ErrorClass(err) != mpiio.ClassUnresponsive {
					t.Fatalf("rank %d: %v, want an unresponsive abort", r, err)
				}
			}
			if got := journal.Rounds(); got != 2*4 {
				t.Fatalf("%d rounds committed before the abort, want %d", got, 2*4)
			}
			w.ReviveAll()
			w.SetRankFaults(nil)
			met := w.EnableMetrics()
			if err := errors.Join(attempt(core.ResumeCollective(o, journal, []int{victim}))...); err != nil {
				t.Fatalf("resume: %v", err)
			}
			if err := colltest.VerifyImage(wl, fs.Snapshot("batch.dat", wl.FileSize())); err != nil {
				t.Fatal(err)
			}
			m := met.Merged()
			replayed, skipped := m.Counter(metrics.CRoundsReplayed), m.Counter(metrics.CRoundsSkipped)
			if skipped != 2*4 || replayed != 2*(batchRounds-4) {
				t.Errorf("replay=%d skip=%d, want %d and %d", replayed, skipped, 2*(batchRounds-4), 2*4)
			}
		})
	}
}

// TestWriteBatchDegrades: a hard fault on every sieve write makes each
// aggregator re-issue each batch with naive I/O under Degraded: the call
// succeeds, the image is exact, and every round of every batch is counted as
// degraded once.
func TestWriteBatchDegrades(t *testing.T) {
	cfg := sim.DefaultConfig()
	sched := pfs.NewFaultSchedule(13).Add(pfs.Rule{
		Kind: "write", Class: pfs.ClassIO, Match: func(op pfs.Op) bool { return op.Sieve },
	})
	w := mpi.NewWorld(batchWorkload.Ranks, cfg)
	fs := pfs.NewFileSystem(cfg)
	fs.SetFaultSchedule(sched)
	info := mpiio.Info{Collective: core.New(core.Options{Degraded: true}), RetryLimit: -1,
		CbNodes: batchAggs, CollBufSize: batchCB}
	mt, _ := batchWorkload.Memtype()
	errs := make([]error, batchWorkload.Ranks)
	w.Run(func(p *mpi.Proc) {
		r := p.Rank()
		f, err := mpiio.Open(p, fs, "batch.dat", info)
		if err != nil {
			errs[r] = err
			return
		}
		ft, disp := batchWorkload.Filetype(r)
		if errs[r] = f.SetView(disp, datatype.Bytes(1), ft); errs[r] == nil {
			errs[r] = f.WriteAll(batchWorkload.FillBuffer(r), mt, batchWorkload.RegionCount)
		}
		f.Close()
	})
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	if err := colltest.VerifyImage(batchWorkload, fs.Snapshot("batch.dat", batchWorkload.FileSize())); err != nil {
		t.Fatal(err)
	}
	// Two batches of eight rounds per aggregator: one faulted sieve write
	// each, every one re-issued.
	if got := sched.Injected(); got != 2*batchAggs {
		t.Errorf("%d sieve writes faulted, want %d", got, 2*batchAggs)
	}
	if got := w.Totals().Counter(metrics.CDegradedRounds); got != batchAggs*batchRounds {
		t.Errorf("%d degraded rounds, want %d", got, batchAggs*batchRounds)
	}
}
