package core

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"flexio/internal/bufpool"
	"flexio/internal/colltest"
	"flexio/internal/datatype"
	"flexio/internal/metrics"
	"flexio/internal/mpi"
	"flexio/internal/mpiio"
	"flexio/internal/pfs"
	"flexio/internal/sim"
	"flexio/internal/stats"
	"flexio/internal/trace"
)

// preRound is what one rank's trace of a flat-form call shows ahead of round
// 0: the request exchange, the pair charges around it, the round-count
// allreduce and the file accesses issued in its shadow.
type preRound struct {
	sent        sim.Time   // the exchange span that posts and sends the requests ends
	clientStart sim.Time   // the first flatten span after it begins (client side)
	clientEnd   sim.Time   // the last flatten span before the wait ends
	lastRecv    sim.Time   // the last request's msg_recv
	aggCharges  sim.Time   // flatten spans after the wait (aggregator side)
	counted     bool       // the round-count allreduce was entered
	countSeq    int64      // its rendezvous
	countEnter  sim.Time   // and when this rank entered it
	ioCalls     []sim.Time // io_call instants after that, before round 0
	round0      sim.Time   // round 0's span begins
}

// tagOf is e's tag named key, the zero tag if it has none.
func tagOf(e trace.Event, key string) trace.Tag {
	for _, tg := range e.Tags {
		if tg.Key == key {
			return tg
		}
	}
	return trace.Tag{}
}

// preRoundOf reads a rank's trace up to its first round span.
func preRoundOf(tr *trace.Tracer) preRound {
	var pr preRound
	type open struct {
		name string
		at   sim.Time
	}
	var stack []open
	exchanges := 0 // request exchange spans begun
	for _, e := range tr.Events() {
		switch e.Kind {
		case trace.KindBegin:
			if e.Name == trace.RoundSpan && len(stack) == 0 {
				pr.round0 = e.TS
				return pr
			}
			if e.Name == stats.PExchange && tagOf(e, "what").Str == "requests" {
				exchanges++
			}
			if e.Name == stats.PFlatten && exchanges == 1 && pr.sent > 0 && pr.clientStart == 0 {
				pr.clientStart = e.TS
			}
			stack = append(stack, open{e.Name, e.TS})
		case trace.KindEnd:
			o := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			switch {
			case o.name == stats.PExchange && exchanges == 1 && pr.sent == 0:
				pr.sent = e.TS
			case o.name == stats.PFlatten && exchanges == 1 && pr.sent > 0:
				pr.clientEnd = e.TS
			case o.name == stats.PFlatten && exchanges == 2 && !pr.counted:
				pr.aggCharges += e.TS - o.at
			}
		case trace.KindInstant:
			switch {
			case e.Name == trace.MsgRecvName && exchanges > 0:
				pr.lastRecv = e.TS
			case e.Name == trace.CollEnterName && exchanges > 0 && !pr.counted:
				pr.counted, pr.countSeq, pr.countEnter = true, tagOf(e, trace.SeqTag).Int, e.TS
			case e.Name == "io_call" && pr.counted:
				pr.ioCalls = append(pr.ioCalls, e.TS)
			}
		}
	}
	return pr
}

// countDone is when the round-count allreduce of seq completed: the earliest
// exit any rank recorded, a rank that had nothing to do while it was in flight.
func countDone(sink *trace.Sink, ranks int, seq int64) sim.Time {
	done := sim.Time(math.Inf(1))
	for r := 0; r < ranks; r++ {
		for _, e := range sink.Tracer(r).Events() {
			if e.Name == trace.CollExitName && tagOf(e, trace.SeqTag).Int == seq {
				done = min(done, e.TS)
			}
		}
	}
	return done
}

// TestRequestExchangeHidesIntersections: an aggregator posts its request
// receives before it sends its own requests and charges its client-side
// intersections while the requests are in flight, so the first round begins
// once the later of the two is done, the aggregator side charged and the round
// count agreed, instead of after all three in turn. The client spans sit
// between the two exchange spans (the exchange phase does not count them).
// Only when things happen moves: the image, the pairs, the messages and their
// bytes are those of the schedule in which every receive is posted where it is
// waited.
func TestRequestExchangeHidesIntersections(t *testing.T) {
	// tiny-enum-write's shape, small: 16 B regions through an enumerated
	// filetype from gapped memory, two ranks a node, eight rounds.
	wl := colltest.Workload{Ranks: 8, RegionSize: 16, RegionCount: 256, Spacing: 112,
		MemNoncontig: true, MemGap: 16, Enumerate: true, NodeRanks: 2}
	const naggs = 4
	cfg := sim.DefaultConfig()
	run := func() colltest.Result {
		w := colltest.NewWorld(cfg, wl)
		w.EnableTracing(0)
		res, err := colltest.Write(w, wl, mpiio.Info{Collective: New(Options{}), CbNodes: naggs, CollBufSize: 8 << 10}, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := colltest.VerifyImage(wl, res.Image); err != nil {
			t.Fatal(err)
		}
		if err := w.TraceSink().Check(); err != nil {
			t.Fatal(err)
		}
		return res
	}
	res := run()
	postAtWait = true
	ref := run()
	postAtWait = false

	pr := make([]preRound, wl.Ranks)
	for r := range pr {
		pr[r] = preRoundOf(res.World.TraceSink().Tracer(r))
	}
	var entry sim.Time // the latest an aggregator could enter the round-count allreduce
	for a := 0; a < naggs; a++ {
		p := pr[a]
		if p.clientStart == 0 || p.clientStart >= p.lastRecv {
			t.Errorf("aggregator %d: client charges begin at %v, its last request arrives at %v: not in flight", a, p.clientStart, p.lastRecv)
		}
		entry = max(entry, max(p.lastRecv, p.clientEnd)+p.aggCharges)
	}
	log2P := sim.Time(math.Ceil(math.Log2(float64(wl.Ranks))))
	allreduce := log2P*sim.Time(cfg.CollLatencyFactor)*cfg.NetLatency + cfg.TransferTime(8*int64(wl.Ranks-1))
	for r, p := range pr {
		if bound := entry + allreduce; p.round0 > bound*(1+1e-12) {
			t.Errorf("rank %d: round 0 begins at %v, after max(arrivals, client charges) + aggregator charges + allreduce = %v", r, p.round0, bound)
		}
	}
	if res.Elapsed >= ref.Elapsed {
		t.Errorf("the write took %v, %v with every receive posted at its wait", res.Elapsed, ref.Elapsed)
	}

	if !bytes.Equal(res.Image, ref.Image) {
		t.Error("the file images differ")
	}
	got, want := res.World.Totals(), ref.World.Totals()
	for _, c := range []metrics.Counter{metrics.CPairsProcessed, metrics.CReqBytes, metrics.CCommBytes} {
		if got.Counter(c) != want.Counter(c) {
			t.Errorf("%s %d, %d with every receive posted at its wait", metrics.TableName(c), got.Counter(c), want.Counter(c))
		}
	}
	if got, want := res.World.CommMatrix(), ref.World.CommMatrix(); got.TotalMsgs() != want.TotalMsgs() || got.TotalBytes() != want.TotalBytes() {
		t.Errorf("%d messages of %d bytes, %d of %d with every receive posted at its wait",
			got.TotalMsgs(), got.TotalBytes(), want.TotalMsgs(), want.TotalBytes())
	}
}

// zeroWorkload is a gapped tile two aggregators read in eight rounds.
var zeroWorkload = colltest.Workload{Ranks: 4, RegionSize: 64, RegionCount: 32, Spacing: 64}

// zeroCall runs one collective call of zeroWorkload on every rank. A read
// fills each user buffer with 0xA5 first and reports which still hold it.
func zeroCall(w *mpi.World, fs *pfs.FileSystem, info mpiio.Info, write bool) (errs []error, untouched []bool) {
	wl := zeroWorkload
	errs, untouched = make([]error, wl.Ranks), make([]bool, wl.Ranks)
	info.CbNodes, info.CollBufSize = 2, 1024
	w.Run(func(p *mpi.Proc) {
		r := p.Rank()
		f, err := mpiio.Open(p, fs, "zero.dat", info)
		if err != nil {
			errs[r] = err
			return
		}
		defer f.Close()
		ft, disp := wl.Filetype(r)
		f.SetView(disp, datatype.Bytes(1), ft)
		mt, bufLen := wl.Memtype()
		if write {
			errs[r] = f.WriteAll(wl.FillBuffer(r), mt, wl.RegionCount)
			return
		}
		blank := bytes.Repeat([]byte{0xA5}, int(bufLen))
		buf := bytes.Clone(blank)
		errs[r] = f.ReadAll(buf, mt, wl.RegionCount)
		untouched[r] = bytes.Equal(buf, blank)
	})
	return errs, untouched
}

// checkUniformAbort fails unless every rank returned an error of class cls and
// no user buffer was written.
func checkUniformAbort(t *testing.T, errs []error, untouched []bool, cls int64) {
	t.Helper()
	for r, err := range errs {
		if err == nil || mpiio.ErrorClass(err) != cls {
			t.Fatalf("rank %d returned %v, want class %s on every rank: %v", r, err, mpiio.ClassName(cls), errs)
		}
		if !untouched[r] {
			t.Errorf("rank %d: an aborted ReadAll wrote into the user buffer", r)
		}
	}
}

// TestReadFillsRoundZeroBehindCountAgreement: on every flat-form strategy a
// read aggregator reads its round 0 while the ranks agree on the round count,
// under round 0's tag: a storage fault aimed at round 0 still hits that read
// and aborts every rank. When the count agreement itself ends the call
// (another aggregator refused a request), the buffer read ahead goes back to
// the pool and nothing reaches a user buffer.
func TestReadFillsRoundZeroBehindCountAgreement(t *testing.T) {
	strategies := []CommStrategy{Nonblocking, Blocking, Alltoallw}
	for _, comm := range strategies {
		t.Run(comm.String(), func(t *testing.T) {
			w := colltest.NewWorld(sim.DefaultConfig(), zeroWorkload)
			sink := w.EnableTracing(0)
			if _, err := colltest.ReadBack(w, zeroWorkload,
				mpiio.Info{Collective: New(Options{Comm: comm}), CbNodes: 2, CollBufSize: 1024}); err != nil {
				t.Fatal(err)
			}
			for a := 0; a < 2; a++ {
				pr := preRoundOf(sink.Tracer(a))
				if !pr.counted || len(pr.ioCalls) == 0 {
					t.Fatalf("aggregator %d issued no file access between the round count's start and round 0", a)
				}
				done := countDone(sink, zeroWorkload.Ranks, pr.countSeq)
				for _, at := range pr.ioCalls {
					if at < pr.countEnter || at >= done {
						t.Errorf("aggregator %d read round 0 at %v, outside the round count's flight [%v, %v)", a, at, pr.countEnter, done)
					}
				}
			}
		})
	}

	for _, comm := range strategies {
		t.Run("io-fault/"+comm.String(), func(t *testing.T) {
			cfg := sim.DefaultConfig()
			w := mpi.NewWorld(zeroWorkload.Ranks, cfg)
			fs := pfs.NewFileSystem(cfg)
			info := mpiio.Info{Collective: New(Options{Comm: comm}), RetryLimit: -1}
			if errs, _ := zeroCall(w, fs, info, true); errorsIn(errs) {
				t.Fatalf("seeding write: %v", errs)
			}
			sched := pfs.NewFaultSchedule(3).Add(pfs.Rule{Kind: "read", Class: pfs.ClassIO, Rounds: []int{0}})
			fs.SetFaultSchedule(sched)
			before := bufpool.Snapshot()
			errs, untouched := zeroCall(w, fs, info, false)
			after := bufpool.Snapshot()
			checkUniformAbort(t, errs, untouched, mpiio.ClassIO)
			for a := 0; a < 2; a++ {
				if !strings.Contains(errs[a].Error(), "read round 0:") {
					t.Errorf("aggregator %d: %v does not name round 0", a, errs[a])
				}
			}
			if sched.Injected() != 2 {
				t.Errorf("the fault hit %d reads, want one per aggregator", sched.Injected())
			}
			if got, back := after.Gets-before.Gets, after.Puts+after.Drops-before.Puts-before.Drops; got != back {
				t.Errorf("%d pooled buffers taken, %d returned", got, back)
			}
		})
	}

	t.Run("refused", func(t *testing.T) {
		// The far-away request of TestMalformedRequestAbortsCollective:
		// aggregator 1 refuses it, aggregator 0 plans and reads round 0.
		b := newBadRequestWorld(New(Options{}))
		if errs, _ := b.call(t, true, 30*time.Second); errorsIn(errs) {
			t.Fatalf("clean write: %v", errs)
		}
		var sender *clientEntry
		b.eng.scratch.For(2, b.wl.Ranks).clients.Each(func(_ clientKey, ce *clientEntry) { sender = ce })
		fl, err := datatype.DecodeFlat(sender.enc)
		if err != nil {
			t.Fatal(err)
		}
		fl.Disp += 1 << 50
		sender.enc = fl.Encode()
		sink := b.w.EnableTracing(0)
		before := bufpool.Snapshot()
		errs, untouched := make([]error, b.wl.Ranks), make([]bool, b.wl.Ranks)
		b.w.Run(func(p *mpi.Proc) {
			r := p.Rank()
			f, err := mpiio.Open(p, b.fs, "bad.dat", mpiio.Info{Collective: b.eng, CbNodes: 2, CollBufSize: 4 << 10})
			if err != nil {
				errs[r] = err
				return
			}
			defer f.Close()
			_, disp := b.wl.Filetype(r)
			f.SetView(disp, datatype.Bytes(1), b.fts[r])
			mt, bufLen := b.wl.Memtype()
			blank := bytes.Repeat([]byte{0xA5}, int(bufLen))
			buf := bytes.Clone(blank)
			errs[r] = f.ReadAll(buf, mt, b.wl.RegionCount)
			untouched[r] = bytes.Equal(buf, blank)
		})
		after := bufpool.Snapshot()
		checkUniformAbort(t, errs, untouched, mpiio.ErrorClass(errs[0]))
		if !strings.Contains(fmt.Sprint(errs), "bad request from rank 2") {
			t.Errorf("no rank names the sender: %v", errs)
		}
		for a, want := range []bool{true, false} {
			if read := len(preRoundOf(sink.Tracer(a)).ioCalls) > 0; read != want {
				t.Errorf("aggregator %d read its round 0: %v, want %v", a, read, want)
			}
		}
		if got, back := after.Gets-before.Gets, after.Puts+after.Drops-before.Puts-before.Drops; got != back {
			t.Errorf("%d pooled buffers taken, %d returned", got, back)
		}
	})
}

func errorsIn(errs []error) bool {
	for _, err := range errs {
		if err != nil {
			return true
		}
	}
	return false
}
