package core_test

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"flexio/internal/bufpool"
	"flexio/internal/colltest"
	"flexio/internal/core"
	"flexio/internal/datatype"
	"flexio/internal/mpi"
	"flexio/internal/mpiio"
	"flexio/internal/pfs"
	"flexio/internal/sim"
	"flexio/internal/stats"
	"flexio/internal/trace"
)

// roundSpan is one round-wrapper span of a rank's trace. nested marks the
// wrapper a pipeline puts around a neighbouring round's file access inside
// the round it runs in.
type roundSpan struct {
	round      int
	start, end sim.Time
	nested     bool
}

func roundSpans(tr *trace.Tracer) []roundSpan {
	var spans []roundSpan
	var open []int // index into spans, -1 for a span of another name
	depth := 0
	for _, e := range tr.Events() {
		switch e.Kind {
		case trace.KindBegin:
			k := -1
			if e.Name == trace.RoundSpan {
				k = len(spans)
				sp := roundSpan{round: -1, start: e.TS, nested: depth > 0}
				for _, tg := range e.Tags {
					if tg.Key == trace.RoundTag {
						sp.round = int(tg.Int)
					}
				}
				spans = append(spans, sp)
				depth++
			}
			open = append(open, k)
		case trace.KindEnd:
			k := open[len(open)-1]
			open = open[:len(open)-1]
			if k >= 0 {
				spans[k].end = e.TS
				depth--
			}
		}
	}
	return spans
}

// TestReadAheadOverlapsExchange: under Nonblocking an aggregator reads round
// r+1 while round r's data is on the wire, so every overlapped round costs
// max(read, exchange) where the serial schedule cost read + exchange. The
// serial schedule's time was recorded at the commit before the pipeline
// existed; reads and exchanges are measured on the pipelined run's trace
// (the read of round r+1 is its nested wrapper on the aggregator, the exchange
// runs from there to the last client's end of round r). A fast and a slow
// network put the minimum on either side. Blocking and Alltoallw overlap
// nothing, by design, and keep their recorded times to the bit.
func TestReadAheadOverlapsExchange(t *testing.T) {
	// One aggregator, 384 KiB in six 64 KiB rounds.
	wl := colltest.Workload{Ranks: 4, RegionSize: 4096, RegionCount: 24}
	const rounds = 6
	for _, tc := range []struct {
		name                        string
		netBandwidth                float64
		serial, blocking, alltoallw uint64 // float64 bits of the parent's elapsed seconds
		readBound                   bool   // the read is the shorter side of every overlap
	}{
		{"fast-net", 110e6, 0x3f84ba0661beb594, 0x3f840e39eaad3130, 0x3f8841b8d7cc0ebc, false},
		{"slow-net", 8e6, 0x3f9613ffd8da68df, 0x3f95be199d51a6af, 0x3fa796e0e5ecbcbd, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(comm core.CommStrategy) colltest.Result {
				cfg := sim.DefaultConfig()
				cfg.NetBandwidth = tc.netBandwidth
				res, err := colltest.RunReadBack(cfg, wl, mpiio.Info{
					Collective: core.New(core.Options{Comm: comm}), CbNodes: 1, CollBufSize: 64 << 10})
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			for comm, want := range map[core.CommStrategy]uint64{core.Blocking: tc.blocking, core.Alltoallw: tc.alltoallw} {
				if got := math.Float64bits(float64(run(comm).Elapsed)); got != want {
					t.Errorf("%v read took %v s, recorded %v s: a strategy that overlaps nothing moved",
						comm, math.Float64frombits(got), math.Float64frombits(want))
				}
			}

			res := run(core.Nonblocking)
			if err := res.CheckTrace(); err != nil {
				t.Fatal(err)
			}
			var sendEnd, read, arrive [rounds]sim.Time
			ahead := 0
			for _, sp := range roundSpans(res.Trace.Tracer(0)) {
				if sp.nested {
					sendEnd[sp.round-1], read[sp.round-1] = sp.start, sp.end-sp.start
					ahead++
				}
			}
			if ahead != rounds-1 {
				t.Fatalf("aggregator read ahead %d times over %d rounds, want %d", ahead, rounds, rounds-1)
			}
			for rank := 1; rank < wl.Ranks; rank++ {
				for _, sp := range roundSpans(res.Trace.Tracer(rank)) {
					if sp.nested {
						t.Fatalf("rank %d is no aggregator but read ahead", rank)
					}
					arrive[sp.round] = max(arrive[sp.round], sp.end)
				}
			}
			var saved sim.Time
			for r := 0; r < rounds-1; r++ {
				exchange := arrive[r] - sendEnd[r]
				if read[r] <= 0 || exchange <= 0 {
					t.Fatalf("round %d: read %v, exchange %v", r, read[r], exchange)
				}
				if (read[r] < exchange) != tc.readBound {
					t.Errorf("round %d: read %v against exchange %v is not the regime this case is for", r, read[r], exchange)
				}
				saved += min(read[r], exchange)
			}
			serial := sim.Time(math.Float64frombits(tc.serial))
			if drift := math.Abs(float64(res.Elapsed + saved - serial)); drift > 0.01*float64(serial) {
				t.Errorf("pipelined %v + overlapped %v = %v, serial schedule took %v (off by %.2f%%)",
					res.Elapsed, saved, res.Elapsed+saved, serial, 100*drift/float64(serial))
			}
			if saved < serial/10 {
				t.Errorf("only %v of %v overlapped", saved, serial)
			}
		})
	}
}

// aheadWorkload is a gapped tile (aggregator accesses stay noncontiguous, so
// data sieving has a hole to read through) that two aggregators move in eight
// rounds of 1 KiB each.
var aheadWorkload = colltest.Workload{Ranks: 4, RegionSize: 64, RegionCount: 32, Spacing: 64}

const (
	aheadAggs   = 2
	aheadCB     = 1024
	aheadRounds = 8
)

// aheadRun seeds the workload's file, calls arm on rank 0 between two
// barriers and reads the file back collectively under info. It returns every
// rank's error and whether the rank's user buffer still holds the 0xA5 it
// was filled with (a successful read is verified instead).
func aheadRun(t *testing.T, w *mpi.World, fs *pfs.FileSystem, info mpiio.Info, arm func()) (errs []error, untouched []bool) {
	t.Helper()
	wl := aheadWorkload
	errs, untouched = make([]error, wl.Ranks), make([]bool, wl.Ranks)
	info.CollBufSize, info.CbNodes = aheadCB, aheadAggs
	w.Run(func(p *mpi.Proc) {
		r := p.Rank()
		f, err := mpiio.Open(p, fs, "ahead.dat", info)
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
		if r == 0 {
			arm()
		}
		p.Barrier()
		blank := bytes.Repeat([]byte{0xA5}, int(bufLen))
		buf := bytes.Clone(blank)
		errs[r] = f.ReadAll(buf, mt, wl.RegionCount)
		untouched[r] = bytes.Equal(buf, blank)
		if errs[r] == nil {
			got, _ := datatype.Pack(buf, mt, 0, wl.RegionCount)
			exp, _ := datatype.Pack(wl.FillBuffer(r), mt, 0, wl.RegionCount)
			if !bytes.Equal(got, exp) {
				errs[r] = fmt.Errorf("rank %d: read-back bytes diverge", r)
			}
		}
		f.Close()
	})
	return errs, untouched
}

// TestReadAheadAbortsUniformly: a storage fault aimed at round k still hits
// the read of round k's window, although a pipelined aggregator issues that
// read while it is in round k-1. Every rank aborts with the fault's class and
// an error naming round k, at the agreement of the round the read was issued
// in; no user buffer is touched, and every pooled buffer (the one in use and
// the one read ahead, on the aggregator that failed and on the one that did
// not) goes back to the pool exactly once.
func TestReadAheadAbortsUniformly(t *testing.T) {
	type fault struct {
		name  string
		class int64
		rule  pfs.Rule
	}
	faults := []fault{
		{"transient", mpiio.ClassTransient, pfs.Rule{Class: pfs.ClassTransient}},
		{"partial", mpiio.ClassPartial, pfs.Rule{Class: pfs.ClassPartial, PartialFrac: 0.5}},
		{"integrity", mpiio.ClassIntegrity, pfs.Rule{}}, // raised by the hook below
	}
	for _, comm := range []core.CommStrategy{core.Nonblocking, core.Blocking} {
		for _, ft := range faults {
			for _, k := range []int{1, aheadRounds - 1} {
				t.Run(fmt.Sprintf("%v/%s/round%d", comm, ft.name, k), func(t *testing.T) {
					cfg := sim.DefaultConfig()
					w := mpi.NewWorld(aheadWorkload.Ranks, cfg)
					met := w.EnableMetrics()
					fs := pfs.NewFileSystem(cfg)
					var mu sync.Mutex
					var hits []int64 // file offsets of the reads the fault hit
					aimed := func(op pfs.Op) bool {
						if op.Kind != "read" || op.Round != k {
							return false
						}
						mu.Lock()
						hits = append(hits, op.Off)
						mu.Unlock()
						return true
					}
					arm := func() {
						if ft.class == mpiio.ClassIntegrity {
							fs.SetFaultHook(func(op pfs.Op) error {
								if aimed(op) {
									return fmt.Errorf("block quarantined: %w", pfs.ErrDataIntegrity)
								}
								return nil
							})
							return
						}
						rule := ft.rule
						rule.Match = aimed
						fs.SetFaultSchedule(pfs.NewFaultSchedule(5).Add(rule))
					}
					before := bufpool.Snapshot()
					// RetryLimit -1: the fault surfaces at once instead of
					// climbing the retry ladder first.
					info := mpiio.Info{Collective: core.New(core.Options{Comm: comm}), RetryLimit: -1}
					errs, untouched := aheadRun(t, w, fs, info, arm)
					after := bufpool.Snapshot()

					checkAgreement(t, errs)
					for r, err := range errs {
						if err == nil {
							t.Fatalf("rank %d: the fault aimed at round %d vanished", r, k)
						}
						if c := mpiio.ErrorClass(err); c != ft.class {
							t.Errorf("rank %d: class %s, want %s", r, mpiio.ClassName(c), mpiio.ClassName(ft.class))
						}
						if !untouched[r] {
							t.Errorf("rank %d: an aborted ReadAll wrote into the user buffer", r)
						}
					}
					named := 0
					for _, err := range errs {
						if strings.Contains(err.Error(), fmt.Sprintf("read round %d:", k)) {
							named++
						}
					}
					if named != aheadAggs {
						t.Errorf("%d ranks name round %d, want the %d aggregators: %v", named, k, aheadAggs, errs)
					}
					// Aggregator a's round-k window starts k collective
					// buffers into its realm, half the file each.
					realm := int64(len(aheadWorkload.Reference())) / aheadAggs
					if len(hits) != aheadAggs {
						t.Errorf("fault hit %d reads, want one per aggregator", len(hits))
					}
					for _, off := range hits {
						if lo := off%realm - int64(k)*aheadCB; lo < 0 || lo >= aheadCB {
							t.Errorf("fault aimed at round %d hit a read at offset %d, outside that round's windows", k, off)
						}
					}
					abortRound := k
					if comm == core.Nonblocking {
						abortRound = k - 1 // the round the read-ahead ran in
					}
					if d := met.Dump(false); d.Abort == nil || d.Abort.Round != abortRound || d.Abort.Class != mpiio.ClassName(ft.class) {
						t.Errorf("abort context %+v, want round %d class %s", d.Abort, abortRound, mpiio.ClassName(ft.class))
					}
					if got, back := after.Gets-before.Gets, after.Puts+after.Drops-before.Puts-before.Drops; got != back {
						t.Errorf("%d pooled buffers taken, %d returned", got, back)
					}
				})
			}
		}
	}
}

// TestReadAheadDegrades: a hard fault in the sieve read of round k, issued
// ahead of its round, is re-issued naively like any other round's; and a rank
// fault scheduled for a round fires when the rank enters that round, once,
// not when its storage operations start carrying the round's number.
func TestReadAheadDegrades(t *testing.T) {
	const k = 3
	t.Run("degraded", func(t *testing.T) {
		cfg := sim.DefaultConfig()
		w := mpi.NewWorld(aheadWorkload.Ranks, cfg)
		fs := pfs.NewFileSystem(cfg)
		sched := pfs.NewFaultSchedule(13).Add(pfs.Rule{
			Kind: "read", Class: pfs.ClassIO, Rounds: []int{k},
			Match: func(op pfs.Op) bool { return op.Sieve },
		})
		info := mpiio.Info{Collective: core.New(core.Options{Method: mpiio.DataSieve, Degrade: core.Always})}
		errs, _ := aheadRun(t, w, fs, info, func() { fs.SetFaultSchedule(sched) })
		if err := errors.Join(errs...); err != nil {
			t.Fatalf("degraded mode should have recovered: %v", err)
		}
		if sched.Injected() == 0 {
			t.Fatal("the sieve fault never fired")
		}
		if n := stats.Merge(w.Recorders()...).Counter(stats.CDegradedRounds); n != aheadAggs {
			t.Errorf("%d degraded rounds, want one per aggregator", n)
		}
	})

	t.Run("stall-once-per-round", func(t *testing.T) {
		const victim, stall = 1, sim.Time(3e-3)
		cfg := sim.DefaultConfig()
		w := mpi.NewWorld(aheadWorkload.Ranks, cfg)
		fs := pfs.NewFileSystem(cfg)
		var sink *trace.Sink
		arm := func() {
			// Rounds k and k+1 of the read: the seeding write is over.
			w.SetRankFaults(mpi.NewRankFaultSchedule(1).Straggle(victim, k, stall, 2))
			sink = w.EnableTracing(0)
		}
		errs, _ := aheadRun(t, w, fs, mpiio.Info{Collective: core.New(core.Options{})}, arm)
		if err := errors.Join(errs...); err != nil {
			t.Fatal(err)
		}
		// Every rank leaves a round's agreement at the same instant, so the
		// victim enters a round late by exactly what the round charged it.
		begins := func(rank int) (at [aheadRounds]sim.Time) {
			for _, sp := range roundSpans(sink.Tracer(rank)) {
				if !sp.nested {
					at[sp.round] = sp.start
				}
			}
			return at
		}
		late, on := begins(victim), begins(0)
		for r := 0; r < aheadRounds; r++ {
			want := sim.Time(0)
			if r == k || r == k+1 {
				want = stall
			}
			if got := late[r] - on[r]; math.Abs(float64(got-want)) > 1e-12 {
				t.Errorf("round %d: victim entered %v after rank 0, want %v", r, got, want)
			}
		}
	})
}
