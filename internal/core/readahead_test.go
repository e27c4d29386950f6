package core_test

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"flexio/internal/bufpool"
	"flexio/internal/colltest"
	"flexio/internal/core"
	"flexio/internal/datatype"
	"flexio/internal/metrics"
	"flexio/internal/mpi"
	"flexio/internal/mpiio"
	"flexio/internal/pfs"
	"flexio/internal/sim"
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

// rankRound is one top-level round span of a rank's trace.
type rankRound struct{ begin, end sim.Time }

// rankRounds reads a rank's rounds from its trace, calling msg (if not nil)
// with every message instant and the round the rank was in when it happened
// (-1 before the first): the last top-level round span begun, through the
// agreement wait that closes it.
func rankRounds(tr *trace.Tracer, msg func(round int, e trace.Event)) []rankRound {
	var rounds []rankRound
	depth := 0 // open spans
	for _, e := range tr.Events() {
		cur := len(rounds) - 1
		switch e.Kind {
		case trace.KindBegin:
			if depth == 0 && e.Name == trace.RoundSpan {
				rounds = append(rounds, rankRound{begin: e.TS})
			}
			depth++
		case trace.KindEnd:
			if depth--; depth == 0 && cur >= 0 && rounds[cur].end == 0 {
				rounds[cur].end = e.TS
			}
		case trace.KindInstant:
			if msg != nil && (e.Name == trace.MsgSendName || e.Name == trace.MsgRecvName) {
				msg(cur, e)
			}
		}
	}
	return rounds
}

// edge is a message instant's causal edge id.
func edge(e trace.Event) int64 {
	for _, tg := range e.Tags {
		if tg.Key == trace.EdgeTag {
			return tg.Int
		}
	}
	return -1
}

// TestReadAheadOverlapsExchange: under Nonblocking an aggregator reads,
// splits and sends round r+1 inside round r, every rank posts round r+1's
// receives before it waits for round r, and round r's agreement is waited a
// round late, when it has long completed. So every round that took its data
// from the round before and sends the next lasts, on every client, the longer
// of two sides, the other hidden entirely: the aggregator's round span
// (read-ahead, split, sends, placing its own piece) and a client's transfer of
// its 16 KiB; the agreement is part of neither. A fast and a slow network put
// the maximum on either side. The pipelined time is pinned; Blocking and
// Alltoallw overlap nothing inside the rounds, by design, and keep their
// recorded times to the bit. Only the exchange ahead of round 0 overlaps
// anything for them (the request receives posted before the sends, round 0
// read while the round count is agreed); the times were recorded with it.
func TestReadAheadOverlapsExchange(t *testing.T) {
	// One aggregator, 384 KiB in six 64 KiB rounds, 16 KiB to each rank.
	wl := colltest.Workload{Ranks: 4, RegionSize: 4096, RegionCount: 24}
	const rounds, perRank = 6, 16 << 10
	for _, tc := range []struct {
		name                string
		netBandwidth        float64
		serial, nonblocking uint64 // float64 bits of elapsed seconds: the schedule before any read-ahead, and this one
		blocking, alltoallw uint64
		netBound            bool // the transfer is the longer side of every overlap
	}{
		{"fast-net", 110e6, 0x3f84ba0661beb594, 0x3f80989879f8f0e1, 0x3f834badfd08567b, 0x3f877f2cea273407, false},
		{"slow-net", 8e6, 0x3f9613ffd8da68df, 0x3f8d99762e7262c3, 0x3f955c18f7397991, 0x3fa765e092e0a62e, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := sim.DefaultConfig()
			cfg.NetBandwidth = tc.netBandwidth
			run := func(comm core.CommStrategy) colltest.Result {
				res, err := colltest.ReadBack(recorded(cfg, wl), wl, mpiio.Info{
					Collective: core.New(core.Options{Comm: comm}), CbNodes: 1, CollBufSize: 64 << 10})
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			for comm, want := range map[core.CommStrategy]uint64{core.Blocking: tc.blocking, core.Alltoallw: tc.alltoallw} {
				if got := math.Float64bits(float64(run(comm).Elapsed)); got != want {
					t.Errorf("%v read took %v s (%#x), recorded %v s: a strategy that overlaps nothing moved",
						comm, math.Float64frombits(got), got, math.Float64frombits(want))
				}
			}

			res := run(core.Nonblocking)
			if err := res.World.TraceSink().Check(); err != nil {
				t.Fatal(err)
			}
			if got := math.Float64bits(float64(res.Elapsed)); got != tc.nonblocking {
				t.Errorf("pipelined read took %v s (%#x), recorded %v s", float64(res.Elapsed), got, math.Float64frombits(tc.nonblocking))
			}
			if serial := sim.Time(math.Float64frombits(tc.serial)); res.Elapsed > serial*9/10 {
				t.Errorf("pipelined read took %v s, the serial schedule %v s", res.Elapsed, serial)
			}
			tl := make([][]rankRound, wl.Ranks)
			for rank := range tl {
				if tl[rank] = rankRounds(res.World.TraceSink().Tracer(rank), nil); len(tl[rank]) != rounds {
					t.Fatalf("rank %d walked %d rounds, want %d", rank, len(tl[rank]), rounds)
				}
				ahead := 0
				for _, sp := range roundSpans(res.World.TraceSink().Tracer(rank)) {
					if sp.nested {
						ahead++
					}
				}
				want := 0 // a client
				if rank == 0 {
					want = rounds - 1 // the aggregator
				}
				if ahead != want {
					t.Fatalf("rank %d read ahead %d times over %d rounds, want %d", rank, ahead, rounds, want)
				}
			}
			transfer := cfg.TransferTime(perRank)
			for r := 1; r+1 < rounds; r++ {
				work := tl[0][r].end - tl[0][r].begin
				if (work < transfer) != tc.netBound {
					t.Errorf("round %d: aggregator round span %v against transfer %v is not the regime this case is for", r, work, transfer)
				}
				for rank := 1; rank < wl.Ranks; rank++ {
					period := tl[rank][r+1].begin - tl[rank][r].begin
					if d := math.Abs(float64(period - max(work, transfer))); d > 1e-9*float64(period) {
						t.Errorf("rank %d: round %d lasted %v, want max(aggregator span %v, transfer %v)", rank, r, period, work, transfer)
					}
				}
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

// aheadCall runs one collective call of the workload on every rank, through
// a file opened under info with the workload's aggregators and collective
// buffer, and returns each rank's error.
func aheadCall(w *mpi.World, fs *pfs.FileSystem, info mpiio.Info, call func(p *mpi.Proc, f *mpiio.File) error) []error {
	errs := make([]error, aheadWorkload.Ranks)
	info.CollBufSize, info.CbNodes = aheadCB, aheadAggs
	w.Run(func(p *mpi.Proc) {
		r := p.Rank()
		f, err := mpiio.Open(p, fs, "ahead.dat", info)
		if err != nil {
			errs[r] = err
			return
		}
		ft, disp := aheadWorkload.Filetype(r)
		f.SetView(disp, datatype.Bytes(1), ft)
		errs[r] = call(p, f)
		f.Close()
	})
	return errs
}

// aheadSeed writes the workload's file collectively under info.
func aheadSeed(t *testing.T, w *mpi.World, fs *pfs.FileSystem, info mpiio.Info) {
	t.Helper()
	wl := aheadWorkload
	mt, _ := wl.Memtype()
	if err := errors.Join(aheadCall(w, fs, info, func(p *mpi.Proc, f *mpiio.File) error {
		return f.WriteAll(wl.FillBuffer(p.Rank()), mt, wl.RegionCount)
	})...); err != nil {
		t.Fatalf("seeding write: %v", err)
	}
}

// aheadRead reads the workload's file back collectively under info. It
// returns every rank's error and whether the rank's user buffer still holds
// the 0xA5 it was filled with (a successful read is verified instead).
func aheadRead(w *mpi.World, fs *pfs.FileSystem, info mpiio.Info) (errs []error, untouched []bool) {
	wl := aheadWorkload
	mt, bufLen := wl.Memtype()
	untouched = make([]bool, wl.Ranks)
	errs = aheadCall(w, fs, info, func(p *mpi.Proc, f *mpiio.File) error {
		r := p.Rank()
		blank := bytes.Repeat([]byte{0xA5}, int(bufLen))
		buf := bytes.Clone(blank)
		err := f.ReadAll(buf, mt, wl.RegionCount)
		untouched[r] = bytes.Equal(buf, blank)
		if err != nil {
			return err
		}
		got, _ := datatype.Pack(buf, mt, 0, wl.RegionCount)
		exp, _ := datatype.Pack(wl.FillBuffer(r), mt, 0, wl.RegionCount)
		if !bytes.Equal(got, exp) {
			return fmt.Errorf("rank %d: read-back bytes diverge", r)
		}
		return nil
	})
	return errs, untouched
}

// aheadRun seeds the workload's file, calls arm while no rank runs (it may
// rewire the world: fault schedules, tracing) and reads the file back
// collectively under info (see aheadRead).
func aheadRun(t *testing.T, w *mpi.World, fs *pfs.FileSystem, info mpiio.Info, arm func()) (errs []error, untouched []bool) {
	t.Helper()
	aheadSeed(t, w, fs, info)
	arm()
	return aheadRead(w, fs, info)
}

// TestReadAheadAbortsUniformly: a storage fault aimed at round k still hits
// the read of round k's window, although a pipelined aggregator issues that
// read while it is in round k-1. Every rank aborts with the fault's class and
// an error naming round k, in round k: Blocking at round k's agreement, the
// pipeline where it waits for the agreement of round k-1, in which the read
// was issued. No user buffer is touched, and every pooled buffer goes back to
// the pool exactly once.
func TestReadAheadAbortsUniformly(t *testing.T) {
	type fault struct {
		name  string
		class int64
		rule  pfs.Rule
	}
	faults := []fault{
		{"transient", mpiio.ClassTransient, pfs.Rule{Class: pfs.ClassTransient}},
		{"partial", mpiio.ClassPartial, pfs.Rule{Class: pfs.ClassPartial, Frac: 0.5}},
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
							fs.SetFaultSchedule(pfs.NewFaultSchedule(0).WithHook(func(op pfs.Op) error {
								if aimed(op) {
									return fmt.Errorf("block quarantined: %w", pfs.ErrDataIntegrity)
								}
								return nil
							}))
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
					if d := met.Dump(false); d.Abort == nil || d.Abort.Round != k || d.Abort.Class != mpiio.ClassName(ft.class) {
						t.Errorf("abort context %+v, want round %d class %s", d.Abort, k, mpiio.ClassName(ft.class))
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
		info := mpiio.Info{Collective: core.New(core.Options{Method: mpiio.DataSieve, Degraded: true})}
		errs, _ := aheadRun(t, w, fs, info, func() { fs.SetFaultSchedule(sched) })
		if err := errors.Join(errs...); err != nil {
			t.Fatalf("degraded mode should have recovered: %v", err)
		}
		if sched.Injected() == 0 {
			t.Fatal("the sieve fault never fired")
		}
		if n := w.Totals().Counter(metrics.CDegradedRounds); n != aheadAggs {
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
			w.SetRankFaults(mpi.NewRankFaultSchedule(1).Stall(victim, k, stall, 2))
			sink = w.EnableTracing(0)
		}
		errs, _ := aheadRun(t, w, fs, mpiio.Info{Collective: core.New(core.Options{})}, arm)
		if err := errors.Join(errs...); err != nil {
			t.Fatal(err)
		}
		// The stall is charged as the rank enters the round, between the last
		// thing it traced and the round's span: the victim's spans of rounds
		// k and k+1 begin one stall after that, every other round span (the
		// read-ahead ones included) at once.
		tr := sink.Tracer(victim)
		events := tr.Events()
		var before []sim.Time // the instant before each round span's begin
		for n, e := range events {
			if n > 0 && e.Kind == trace.KindBegin && e.Name == trace.RoundSpan {
				before = append(before, events[n-1].TS)
			}
		}
		spans := roundSpans(tr)
		if len(spans) != len(before) {
			t.Fatalf("%d round spans, %d of them after another event", len(spans), len(before))
		}
		for n, sp := range spans {
			want := sim.Time(0)
			if !sp.nested && (sp.round == k || sp.round == k+1) {
				want = stall
			}
			if got := sp.start - before[n]; math.Abs(float64(got-want)) > 1e-12 {
				t.Errorf("round %d (read ahead: %v): victim entered %v after its last event, want %v", sp.round, sp.nested, got, want)
			}
		}
	})
}

// TestReadAheadSendsBeforeAgreement: an aggregator sends every payload of
// round r+1 inside round r's span, before it starts round r's agreement (let
// alone waits for it, a round later), so it crosses the wire while round r is
// placed. A payload belongs to the round its receiver takes it in.
func TestReadAheadSendsBeforeAgreement(t *testing.T) {
	res, err := colltest.ReadBack(recorded(sim.DefaultConfig(), aheadWorkload), aheadWorkload, mpiio.Info{
		Collective: core.New(core.Options{}), CbNodes: aheadAggs, CollBufSize: aheadCB})
	if err != nil {
		t.Fatal(err)
	}
	carries := map[int64]int{} // edge id → the round whose data it carried
	for rank := 0; rank < aheadWorkload.Ranks; rank++ {
		rankRounds(res.World.TraceSink().Tracer(rank), func(round int, e trace.Event) {
			if e.Name == trace.MsgRecvName && round >= 0 {
				carries[edge(e)] = round
			}
		})
	}
	for a := 0; a < aheadAggs; a++ {
		type send struct {
			at    sim.Time
			round int
		}
		var sends []send
		rounds := rankRounds(res.World.TraceSink().Tracer(a), func(_ int, e trace.Event) {
			if r, ok := carries[edge(e)]; ok && e.Name == trace.MsgSendName && r > 0 {
				sends = append(sends, send{e.TS, r})
			}
		})
		// Every rank has data in every round of both aggregators.
		if want := (aheadRounds - 1) * aheadWorkload.Ranks; len(sends) != want {
			t.Errorf("aggregator %d sent %d payloads of rounds after the first, want %d", a, len(sends), want)
		}
		for _, s := range sends {
			if in := rounds[s.round-1]; s.at < in.begin || s.at > in.end {
				t.Errorf("aggregator %d sent a round %d payload at %v, outside round %d's span [%v, %v]",
					a, s.round, s.at, s.round-1, in.begin, in.end)
			}
		}
	}
}

// sentAt is where a traced payload left: its sender and the round it was in.
type sentAt struct{ rank, round int }

// payloads reads which payloads the ranks traced in sink sent and which
// they received, by edge id.
func payloads(sink *trace.Sink) (sent map[int64]sentAt, received map[int64]bool) {
	sent, received = map[int64]sentAt{}, map[int64]bool{}
	for rank := 0; rank < aheadWorkload.Ranks; rank++ {
		rankRounds(sink.Tracer(rank), func(round int, e trace.Event) {
			if e.Name == trace.MsgSendName {
				sent[edge(e)] = sentAt{rank, round}
			} else {
				received[edge(e)] = true
			}
		})
	}
	return sent, received
}

// TestReadAheadAbortDropsSentAhead: a read whose read-ahead of round k failed
// (in round k-1) aborts in round k, where round k-1's agreement is waited, and
// has by then received round k and sent round k+1. Nobody receives round
// k+1's payloads (one aggregator's are the zeros a failed read serves): the
// abort drops them, so the next call on the same engine receives exactly what
// it sent and reads byte-exact, and every pooled buffer of both calls goes
// back to the pool once.
func TestReadAheadAbortDropsSentAhead(t *testing.T) {
	const k = 3
	cfg := sim.DefaultConfig()
	w := mpi.NewWorld(aheadWorkload.Ranks, cfg)
	fs := pfs.NewFileSystem(cfg)
	info := mpiio.Info{Collective: core.New(core.Options{}), RetryLimit: -1}
	aheadSeed(t, w, fs, info)

	before := bufpool.Snapshot()
	fs.SetFaultSchedule(pfs.NewFaultSchedule(5).Add(pfs.Rule{
		Kind: "read", Class: pfs.ClassTransient, Rounds: []int{k},
		Match: func(op pfs.Op) bool { return op.Off < int64(len(aheadWorkload.Reference()))/aheadAggs },
	}))
	sink := w.EnableTracing(0)
	errs, _ := aheadRead(w, fs, info)
	checkAgreement(t, errs)
	if errs[0] == nil {
		t.Fatalf("the fault aimed at round %d vanished", k)
	}
	sent, received := payloads(sink)
	ahead, lost := make([]int, aheadAggs), make([]int, aheadAggs)
	for e, at := range sent {
		// What an aggregator sends in round k is round k+1.
		if at.rank < aheadAggs && at.round == k {
			ahead[at.rank]++
		}
		if !received[e] {
			if at.rank >= aheadAggs || at.round != k {
				t.Errorf("rank %d: a payload it sent in round %d was never received", at.rank, at.round)
				continue
			}
			lost[at.rank]++
		}
	}
	for a := range ahead {
		if ahead[a] != aheadWorkload.Ranks || lost[a] != ahead[a] {
			t.Errorf("aggregator %d: %d of the %d payloads it sent ahead never received, want all %d",
				a, lost[a], ahead[a], aheadWorkload.Ranks)
		}
	}

	fs.SetFaultSchedule(nil)
	sink = w.EnableTracing(0)
	errs, _ = aheadRead(w, fs, info)
	if err := errors.Join(errs...); err != nil {
		t.Fatalf("the call after the abort: %v", err)
	}
	sent, received = payloads(sink)
	for e, at := range sent {
		if !received[e] {
			t.Errorf("rank %d: a payload it sent in round %d was never received", at.rank, at.round)
		}
	}
	for e := range received {
		if _, ok := sent[e]; !ok {
			t.Errorf("a payload of the aborted call was received by the next one (edge %d)", e)
		}
	}
	after := bufpool.Snapshot()
	if got, back := after.Gets-before.Gets, after.Puts+after.Drops-before.Puts-before.Drops; got != back {
		t.Errorf("%d pooled buffers taken, %d returned", got, back)
	}
}

// TestReadAheadAbortRetiresAfterBarrier: a pipelined abort surfaces where a
// rank waits for the previous round's agreement, which is no rendezvous, so a
// slower aggregator may still take round k's payload from one that has
// already aborted. Here aggregator 1 is held up (on the host) in its
// read-ahead of round k+1 while aggregator 0, whose read of round k failed,
// aborts at the end of round k; only then does aggregator 1 receive round k
// from it. What the aborting aggregator served is views of the file system's
// zero page (its failed read) and of the file's pages, which nothing recycles
// or writes before finish's barrier: with the checksummed transport armed, a
// view whose bytes changed under the late receiver (a buffer recycled at the
// abort, poisoned under -tags bufpooldebug; -race reports the same access)
// fails its wire checksum. Every pooled buffer goes back once, and a read
// right after is byte-exact.
func TestReadAheadAbortRetiresAfterBarrier(t *testing.T) {
	const k = 3
	cfg := sim.DefaultConfig()
	w := mpi.NewWorld(aheadWorkload.Ranks, cfg)
	met := w.EnableMetrics()
	w.EnableIntegrity(1)
	fs := pfs.NewFileSystem(cfg)
	info := mpiio.Info{Collective: core.New(core.Options{}), RetryLimit: -1}
	aheadSeed(t, w, fs, info)

	half := int64(len(aheadWorkload.Reference())) / aheadAggs
	before := bufpool.Snapshot()
	fs.SetFaultSchedule(pfs.NewFaultSchedule(5).Add(pfs.Rule{
		Kind: "read", Class: pfs.ClassTransient, Rounds: []int{k},
		Match: func(op pfs.Op) bool { return op.Off < half },
	}).WithHook(func(op pfs.Op) error {
		if op.Kind == "read" && op.Round == k+1 && op.Off >= half {
			time.Sleep(20 * time.Millisecond)
		}
		return nil
	}))
	errs, _ := aheadRead(w, fs, info)
	checkAgreement(t, errs)
	if errs[0] == nil || mpiio.ErrorClass(errs[0]) != mpiio.ClassTransient {
		t.Fatalf("the fault aimed at round %d: %v", k, errs[0])
	}
	if n := met.Merged().Counter(metrics.CIntegWireMismatch); n != 0 {
		t.Errorf("%d payloads failed their wire checksum: a read buffer was recycled under a live view", n)
	}

	fs.SetFaultSchedule(nil)
	errs, _ = aheadRead(w, fs, info)
	if err := errors.Join(errs...); err != nil {
		t.Fatalf("the call after the abort: %v", err)
	}
	after := bufpool.Snapshot()
	if got, back := after.Gets-before.Gets, after.Puts+after.Drops-before.Puts-before.Drops; got != back {
		t.Errorf("%d pooled buffers taken, %d returned", got, back)
	}
}
