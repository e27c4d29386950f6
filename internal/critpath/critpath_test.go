package critpath

import (
	"math"
	"strings"
	"testing"

	"flexio/internal/metrics"
	"flexio/internal/trace"
)

// chainSink builds a two-rank trace where rank 1's send gates rank 0's
// finish: r1 works [0,2] and sends at 1; r0 waits [0,4] and receives,
// blocked, at 3. The critical path is r1 work [0,1] → transfer [1,3] →
// r0 wait [3,4].
func chainSink() *trace.Sink {
	s := trace.NewSink(2, 0)
	r0, r1 := s.Tracer(0), s.Tracer(1)
	r1.Begin(0, "work")
	r1.Instant2(1, trace.MsgSendName, trace.I(trace.EdgeTag, 7), trace.I(trace.BytesTag, 100))
	r1.End(2)
	r0.Begin(0, "wait")
	r0.Instant2(3, trace.MsgRecvName, trace.I(trace.EdgeTag, 7), trace.I(trace.BlockedTag, 1))
	r0.End(4)
	return s
}

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestAnalyzeMessageChain(t *testing.T) {
	rep := Analyze(chainSink())
	if rep.Truncated {
		t.Fatal("complete trace reported as truncated")
	}
	if !approx(rep.WindowSec, 4) {
		t.Fatalf("window = %v, want 4", rep.WindowSec)
	}
	if !approx(rep.Coverage(), 1) {
		t.Fatalf("coverage = %v, want 1 (covered %v of %v)", rep.Coverage(), rep.CoveredSec, rep.WindowSec)
	}
	if !approx(rep.TransferSec, 2) {
		t.Fatalf("transfer = %v, want 2", rep.TransferSec)
	}
	if rep.Steps != 1 {
		t.Fatalf("steps = %d, want 1", rep.Steps)
	}
	// The transfer is attributed to the sender.
	top := rep.Top()
	if top.Rank != 1 || top.Phase != PhaseTransfer || !approx(top.Sec, 2) {
		t.Fatalf("top = %+v, want rank 1 transfer 2s", top)
	}
	// r0 finished last (no slack); r1's track ends at 2 of 4.
	if !approx(rep.ByRank[0].SlackSec, 0) || !approx(rep.ByRank[1].SlackSec, 2) {
		t.Fatalf("slack = %v/%v, want 0/2", rep.ByRank[0].SlackSec, rep.ByRank[1].SlackSec)
	}
	if !approx(rep.ByRank[0].OnPathSec, 1) || !approx(rep.ByRank[1].OnPathSec, 3) {
		t.Fatalf("on-path = %v/%v, want 1/3", rep.ByRank[0].OnPathSec, rep.ByRank[1].OnPathSec)
	}
}

func TestAnalyzeRendezvous(t *testing.T) {
	s := trace.NewSink(2, 0)
	r0, r1 := s.Tracer(0), s.Tracer(1)
	// r1 arrives late at the rendezvous and releases both ranks.
	r0.Begin(0, "compute")
	r0.Instant1(0.5, trace.CollEnterName, trace.I(trace.SeqTag, 1))
	r0.Instant2(2, trace.CollExitName, trace.I(trace.SeqTag, 1), trace.I(trace.ByTag, 1))
	r0.End(3)
	r1.Begin(0, "compute")
	r1.Instant1(2, trace.CollEnterName, trace.I(trace.SeqTag, 1))
	r1.Instant2(2, trace.CollExitName, trace.I(trace.SeqTag, 1), trace.I(trace.ByTag, 1))
	r1.End(2.5)
	rep := Analyze(s)
	if rep.Collectives != 1 {
		t.Fatalf("collectives = %d, want 1", rep.Collectives)
	}
	if !approx(rep.Coverage(), 1) {
		t.Fatalf("coverage = %v, want 1", rep.Coverage())
	}
	// The walk crosses to the releasing rank: r1's pre-rendezvous compute
	// [0,2] plus r0's post-release compute [2,3] are on the path.
	if !approx(rep.ByRank[1].OnPathSec, 2) || !approx(rep.ByRank[0].OnPathSec, 1) {
		t.Fatalf("on-path = %v/%v, want 1/2", rep.ByRank[0].OnPathSec, rep.ByRank[1].OnPathSec)
	}
}

// TestAnalyzeTruncated loses the send to ring overflow: the walk must stay
// local, flag the report, and still terminate with a sane attribution.
func TestAnalyzeTruncated(t *testing.T) {
	s := trace.NewSink(2, 4)
	r0, r1 := s.Tracer(0), s.Tracer(1)
	r1.Instant2(1, trace.MsgSendName, trace.I(trace.EdgeTag, 7), trace.I(trace.BytesTag, 100))
	// Evict the send from r1's ring.
	for i := 0; i < 6; i++ {
		r1.Instant(2, "noise")
	}
	r0.Begin(0, "wait")
	r0.Instant2(3, trace.MsgRecvName, trace.I(trace.EdgeTag, 7), trace.I(trace.BlockedTag, 1))
	r0.End(4)
	rep := Analyze(s)
	if !rep.Truncated || rep.DroppedEvents != 3 {
		t.Fatalf("truncated %v with %d dropped, want true with 3 (7 events into r1's ring of 4)", rep.Truncated, rep.DroppedEvents)
	}
	// The report is the one place a truncated trace is flagged.
	if want := "WARNING: trace truncated (3 event(s) dropped)"; !strings.Contains(rep.Format(), want) {
		t.Fatalf("report lacks %q:\n%s", want, rep.Format())
	}
	if rep.TransferSec != 0 {
		t.Fatalf("transfer = %v, want 0 (send was dropped)", rep.TransferSec)
	}
	// The walk stays on r0 and attributes its whole track locally.
	if !approx(rep.ByRank[0].OnPathSec, 4) {
		t.Fatalf("rank 0 on-path = %v, want 4", rep.ByRank[0].OnPathSec)
	}
}

// TestNestedRoundWrapper: a round r+1 wrapper inside round r (a read-ahead)
// books its phases to round r+1; the rest of round r's wrapper stays in r.
func TestNestedRoundWrapper(t *testing.T) {
	s := trace.NewSink(1, 0)
	a := s.Tracer(0)
	a.Begin(0, trace.RoundSpan, trace.I(trace.RoundTag, 0))
	a.Begin(1, trace.RoundSpan, trace.I(trace.RoundTag, 1))
	a.Begin(1, metrics.PIO.String())
	a.End(4)
	a.End(4)
	a.End(5)
	a.Begin(5, trace.RoundSpan, trace.I(trace.RoundTag, 1))
	a.End(7)
	type bucket struct {
		phase string
		round int
	}
	got := map[bucket]float64{}
	for _, e := range Analyze(s).Entries {
		got[bucket{e.Phase, e.Round}] += e.Sec
	}
	want := map[bucket]float64{
		{trace.RoundSpan, 0}:      2, // [0,1] and [4,5]
		{metrics.PIO.String(), 1}: 3,
		{trace.RoundSpan, 1}:      2,
	}
	if len(got) != len(want) {
		t.Fatalf("entries %v, want %v", got, want)
	}
	for b, sec := range want {
		if !approx(got[b], sec) {
			t.Fatalf("entries %v, want %v", got, want)
		}
	}
}

func TestAnalyzeEmpty(t *testing.T) {
	if rep := Analyze(nil); !approx(rep.Coverage(), 1) || rep.Top().Rank != -1 {
		t.Fatal("nil sink should yield an empty fully-covered report")
	}
	if rep := Analyze(trace.NewSink(2, 0)); rep.WindowSec != 0 || !approx(rep.Coverage(), 1) {
		t.Fatal("eventless sink should yield an empty fully-covered report")
	}
}

// TestFormatGolden pins the report text byte-for-byte: the chaos artifacts
// and the CI determinism check depend on Format being stable for a stable
// trace.
func TestFormatGolden(t *testing.T) {
	got := Analyze(chainSink()).Format()
	want := "== critical path: 2 rank(s), 0 collective(s), window 4.000000s, covered 100.0% ==\n" +
		"path: 1 causal step(s); blocked 2.000000s (transfer 2.000000s, rendezvous 0.000000s), idle 0.000000s\n" +
		"per-rank on-path time and finish slack (virtual seconds):\n" +
		"  r0        1.000000     0.000000\n" +
		"  r1        3.000000     2.000000\n" +
		"top attributions (rank, phase, round, seconds, share of path):\n" +
		"  r1    transfer         -     2.000000   50.0%\n" +
		"  r0    wait             -     1.000000   25.0%\n" +
		"  r1    work             -     1.000000   25.0%"
	if got != want {
		t.Errorf("Format mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
	// Two analyses of identically built traces must render identically.
	if again := Analyze(chainSink()).Format(); again != got {
		t.Error("Format is not deterministic across identical traces")
	}
}

func TestNotePublishesToMetrics(t *testing.T) {
	rep := Analyze(chainSink())
	set := metrics.NewSet(2)
	rep.Note(set)
	d := set.Dump(true)
	if d.CritPath == nil {
		t.Fatal("full dump carries no critpath summary")
	}
	if d.CritPath.TopRank != 1 || d.CritPath.TopPhase != PhaseTransfer {
		t.Fatalf("critpath summary = %+v, want top rank 1 transfer", d.CritPath)
	}
	if g := set.Registry(1).Gauge(metrics.GCritPathSec); !approx(g, 3) {
		t.Fatalf("rank 1 critpath_seconds gauge = %v, want 3", g)
	}
}

// TestSampledBlindSpots drives the chain workload through a sampled sink
// where the sender rank is unsampled: the receive's causal jump cannot be
// followed, and the report must say so instead of silently claiming full
// coverage.
func TestSampledBlindSpots(t *testing.T) {
	s := trace.NewSampledSink(2, 0, []bool{true, false})
	r0, r1 := s.Tracer(0), s.Tracer(1)
	if r1 != nil {
		t.Fatal("unsampled rank should have a nil tracer")
	}
	// The edge id encodes (seq=0, src=1, dst=0) at size 2.
	edge := int64(1*2 + 0)
	r1.Begin(0, "work") // nil-safe no-op
	r0.Begin(0, "wait")
	r0.Instant2(3, trace.MsgRecvName, trace.I(trace.EdgeTag, edge), trace.I(trace.BlockedTag, 1))
	r0.End(4)

	rep := Analyze(s)
	if rep.SampledRanks != 1 {
		t.Fatalf("SampledRanks = %d, want 1", rep.SampledRanks)
	}
	if rep.BlindSteps != 1 || rep.Steps != 1 {
		t.Fatalf("BlindSteps/Steps = %d/%d, want 1/1", rep.BlindSteps, rep.Steps)
	}
	if !approx(rep.BlindSpotFrac(), 1) {
		t.Fatalf("BlindSpotFrac = %v, want 1", rep.BlindSpotFrac())
	}
	if !rep.ByRank[0].Traced || rep.ByRank[1].Traced {
		t.Fatalf("Traced flags = %v/%v, want true/false", rep.ByRank[0].Traced, rep.ByRank[1].Traced)
	}
	// The formatted report discloses the sampling and hides only the
	// untraced rank rows.
	text := rep.Format()
	if !strings.Contains(text, "sampling: 1 of 2 rank(s) traced") {
		t.Fatalf("Format missing sampling disclosure:\n%s", text)
	}
	if strings.Contains(text, "r1 ") {
		t.Fatalf("Format lists the untraced rank:\n%s", text)
	}
}

// TestFullSinkReportsNoBlindSpots pins the honesty knob's quiet side: a
// fully traced sink must not grow a sampling line or blind steps.
func TestFullSinkReportsNoBlindSpots(t *testing.T) {
	rep := Analyze(chainSink())
	if rep.SampledRanks != rep.Ranks {
		t.Fatalf("SampledRanks = %d, want %d", rep.SampledRanks, rep.Ranks)
	}
	if rep.BlindSteps != 0 {
		t.Fatalf("BlindSteps = %d, want 0", rep.BlindSteps)
	}
	if strings.Contains(rep.Format(), "sampling:") {
		t.Fatal("fully traced report grew a sampling line")
	}
}
