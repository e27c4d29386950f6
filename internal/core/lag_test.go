package core_test

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"flexio/internal/colltest"
	"flexio/internal/core"
	"flexio/internal/mpi"
	"flexio/internal/mpiio"
	"flexio/internal/pfs"
	"flexio/internal/sim"
	"flexio/internal/stats"
	"flexio/internal/trace"
)

// A nonblocking write waits for round r's agreement at the end of round r+1,
// after flushing what round r completed. These tests run aheadWorkload's
// eight rounds of two aggregators (ranks 0 and 1) as a write. Its rounds are
// half dense, so each aggregator writes them in batches of two (rounds 0-1,
// 2-3, ...), each in the round after its last.

// aheadWrite writes the workload collectively under a Nonblocking engine and
// returns every rank's error; a call that has not returned within five
// seconds fails the test.
func aheadWrite(t *testing.T, w *mpi.World, fs *pfs.FileSystem) []error {
	t.Helper()
	wl := aheadWorkload
	mt, _ := wl.Memtype()
	info := mpiio.Info{Collective: core.New(core.Options{Comm: core.Nonblocking}), RetryLimit: -1}
	var errs []error
	done := make(chan struct{})
	go func() {
		defer close(done)
		errs = aheadCall(w, fs, info, func(p *mpi.Proc, f *mpiio.File) error {
			return f.WriteAll(wl.FillBuffer(p.Rank()), mt, wl.RegionCount)
		})
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("collective write hung")
	}
	return errs
}

// TestLaggedAgreementFlushesAhead: on every aggregator, the write of each
// batch (in the round after its last) starts before the agreement of the
// batch's last round completes on that rank: an aggregator writes a batch
// while slower peers are still finishing its last round. The file is still
// exact.
func TestLaggedAgreementFlushesAhead(t *testing.T) {
	res, err := colltest.Write(recorded(sim.DefaultConfig(), aheadWorkload), aheadWorkload, mpiio.Info{
		Collective: core.New(core.Options{Comm: core.Nonblocking}), CbNodes: aheadAggs, CollBufSize: aheadCB}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := colltest.VerifyImage(aheadWorkload, res.Image); err != nil {
		t.Fatal(err)
	}
	tagged := func(e trace.Event, key, val string) bool {
		return slices.ContainsFunc(e.Tags, func(tg trace.Tag) bool { return tg.Key == key && tg.Str == val })
	}
	wantLast := []int{1, 3, 5, 7}
	for a := 0; a < aheadAggs; a++ {
		// A batch is written once its last round's span has ended, in the
		// next; the agreements that complete once round 0 has begun are
		// round 0's, round 1's, ... and the call's closing one, in that order.
		var last []int
		var written, agreed []sim.Time
		var open []string // names of the open spans, err_agree for an agreement
		ended, begun := 0, false
		for _, e := range res.World.TraceSink().Tracer(a).Events() {
			switch e.Kind {
			case trace.KindBegin:
				name := e.Name
				if tagged(e, "what", "err_agree") {
					name = "err_agree"
				}
				begun = begun || name == trace.RoundSpan
				if name == stats.PIO && tagged(e, "op", "write") {
					last, written = append(last, ended-1), append(written, e.TS)
				}
				open = append(open, name)
			case trace.KindEnd:
				name := open[len(open)-1]
				open = open[:len(open)-1]
				switch {
				case name == trace.RoundSpan && len(open) == 0:
					ended++
				case name == "err_agree" && begun:
					agreed = append(agreed, e.TS)
				}
			}
		}
		if !slices.Equal(last, wantLast) || len(agreed) != aheadRounds+1 {
			t.Fatalf("aggregator %d: batches end at rounds %v with %d agreements, want %v and %d",
				a, last, len(agreed), wantLast, aheadRounds+1)
		}
		for k, r := range last {
			if written[k] >= agreed[r] {
				t.Errorf("aggregator %d: batch ending at round %d written at %v, the round's agreement completed at %v: want the write first",
					a, r, written[k], agreed[r])
			}
		}
	}
}

// TestLaggedAgreementClientCrashAbortsUniformly: a pure client dies entering
// round 2. The aggregators learn of it from their round-2 receives, after
// round 1's agreement was started and before it is waited; the client that
// survives learns of it only at round 2's agreement. Round 1's agreement must
// escalate on what its own rendezvous published (no failure yet), so every
// survivor aborts once, at round 2's, with the unresponsive class: an
// aggregator escalating alone would leave its peers waiting forever.
func TestLaggedAgreementClientCrashAbortsUniformly(t *testing.T) {
	const victim = 3
	cfg := sim.DefaultConfig()
	w := mpi.NewWorld(aheadWorkload.Ranks, cfg)
	w.SetRankFaults(mpi.NewRankFaultSchedule(1).Crash(victim, 2))
	w.SetCollDeadline(50e-3)
	met := w.EnableMetrics()
	errs := aheadWrite(t, w, pfs.NewFileSystem(cfg))
	survivors := append(slices.Clone(errs[:victim]), errs[victim+1:]...)
	checkAgreement(t, survivors)
	for r, err := range survivors {
		if c := mpiio.ErrorClass(err); c != mpiio.ClassUnresponsive {
			t.Errorf("rank %d: class %s, want unresponsive (%v)", r, mpiio.ClassName(c), err)
		}
	}
	if d := met.Dump(false); d.Abort == nil || d.Abort.Round != 3 {
		t.Errorf("abort context %+v, want round 2's agreement, waited in round 3", d.Abort)
	}
}

// TestLaggedAgreementIOFaultWritesHealthyRound: a storage operation carries
// the last round whose data it writes, so a hard fault aimed at round k hits
// aggregator 0's write of the batch ending at round k (issued in round k+1).
// It aborts every rank with the io class, and the error names round k on that
// aggregator. The abort surfaces at the end of round k+2, so the healthy
// aggregator has written its own batch of rounds k-1 and k by then: correct
// bytes, in the window those rounds cover.
func TestLaggedAgreementIOFaultWritesHealthyRound(t *testing.T) {
	const k = 3 // the last round of the second batch
	cfg := sim.DefaultConfig()
	w := mpi.NewWorld(aheadWorkload.Ranks, cfg)
	fs := pfs.NewFileSystem(cfg)
	ref := aheadWorkload.Reference()
	realm := int64(len(ref)) / aheadAggs
	sched := pfs.NewFaultSchedule(3).Add(pfs.Rule{
		Kind: "write", Class: pfs.ClassIO, Rounds: []int{k},
		Match: func(op pfs.Op) bool { return op.Off < realm },
	})
	fs.SetFaultSchedule(sched)
	errs := aheadWrite(t, w, fs)
	checkAgreement(t, errs)
	if sched.Injected() == 0 {
		t.Fatal("the fault never fired")
	}
	for r, err := range errs {
		if c := mpiio.ErrorClass(err); c != mpiio.ClassIO {
			t.Errorf("rank %d: class %s, want io (%v)", r, mpiio.ClassName(c), err)
		}
	}
	if err := errs[0]; err == nil || !strings.Contains(err.Error(), fmt.Sprintf("write round %d:", k)) {
		t.Errorf("aggregator 0's error does not name round %d: %v", k, err)
	}
	img := fs.Snapshot("ahead.dat", int64(len(ref)))
	lo, hi := realm+(k-1)*aheadCB, realm+(k+1)*aheadCB
	if !bytes.Equal(img[lo:hi], ref[lo:hi]) {
		t.Errorf("aggregator 1's rounds %d-%d window [%d, %d) differs from the reference", k-1, k, lo, hi)
	}
}
