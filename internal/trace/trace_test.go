package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"flexio/internal/sim"
	"flexio/internal/stats"
)

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	tr.Begin(1, "x")
	tr.End(2)
	tr.Instant(3, "y")
	tr.Counter(4, "z", 5)
	tr.Reset()
	if tr.Depth() != 0 || tr.Len() != 0 || tr.Dropped() != 0 || tr.Rank() != -1 {
		t.Fatal("nil tracer should report zeros")
	}
	if err := tr.Check(); err != nil {
		t.Fatalf("nil tracer Check: %v", err)
	}

	var s *Sink
	if s.Ranks() != 0 || s.Tracer(0) != nil || s.Dropped() != 0 || s.Events() != 0 {
		t.Fatal("nil sink should report zeros")
	}
	s.Reset()
	if err := s.Check(); err != nil {
		t.Fatalf("nil sink Check: %v", err)
	}
	var buf bytes.Buffer
	if err := s.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("nil sink export: %v", err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("nil sink export is not JSON: %v", err)
	}
	if b := s.Breakdown(); b == nil || len(b.Phases) != 0 {
		t.Fatal("nil sink breakdown should be empty, not nil")
	}
}

func TestSpanNesting(t *testing.T) {
	tr := NewTracer(0, 0)
	tr.Begin(1, "outer")
	tr.Begin(2, "inner")
	if tr.Depth() != 2 {
		t.Fatalf("depth = %d, want 2", tr.Depth())
	}
	tr.End(3)
	tr.End(4)
	if err := tr.Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}
	ev := tr.Events()
	if len(ev) != 4 {
		t.Fatalf("got %d events, want 4", len(ev))
	}
	// Ends carry the name of the span they close (innermost first).
	if ev[2].Name != "inner" || ev[3].Name != "outer" {
		t.Fatalf("end names = %q, %q", ev[2].Name, ev[3].Name)
	}
}

func TestEndWithoutBeginPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("End with no open span should panic")
		}
	}()
	NewTracer(0, 0).End(1)
}

func TestCheckCatchesNonMonotoneTime(t *testing.T) {
	tr := NewTracer(0, 0)
	tr.Begin(5, "a")
	tr.End(3) // goes backward
	if err := tr.Check(); err == nil {
		t.Fatal("Check should reject non-monotone timestamps")
	}
}

func TestCheckCatchesOpenSpan(t *testing.T) {
	tr := NewTracer(0, 0)
	tr.Begin(1, "a")
	if err := tr.Check(); err == nil {
		t.Fatal("Check should reject a span left open")
	}
}

func TestRingOverflow(t *testing.T) {
	tr := NewTracer(0, 4)
	for i := 0; i < 10; i++ {
		tr.Instant(sim.Time(i), "e")
	}
	if tr.Len() != 4 {
		t.Fatalf("Len = %d, want 4", tr.Len())
	}
	if tr.Dropped() != 6 {
		t.Fatalf("Dropped = %d, want 6", tr.Dropped())
	}
	ev := tr.Events()
	// Oldest first: events 6..9 survive.
	for i, e := range ev {
		if want := sim.Time(6 + i); e.TS != want {
			t.Fatalf("event %d at %v, want %v", i, e.TS, want)
		}
	}
	if err := tr.Check(); err != nil {
		t.Fatalf("Check after overflow: %v", err)
	}
}

func TestExportSanitizesOverflowedSpans(t *testing.T) {
	s := NewSink(1, 4)
	tr := s.Tracer(0)
	// The Begin of the first span is overwritten, leaving an orphan End;
	// the last span is still open at export time.
	tr.Begin(0, "lost")
	tr.Instant(1, "a")
	tr.Instant(2, "b")
	tr.Instant(3, "c")
	tr.Instant(4, "d") // evicts the Begin
	tr.End(5)          // orphan
	tr.Begin(6, "open")

	var buf bytes.Buffer
	if err := s.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("export: %v", err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph string  `json:"ph"`
			Ts float64 `json:"ts"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not JSON: %v\n%s", err, buf.String())
	}
	begins, ends := 0, 0
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "B":
			begins++
		case "E":
			ends++
		}
	}
	if begins != ends {
		t.Fatalf("unbalanced export: %d begins, %d ends", begins, ends)
	}
}

func TestChromeTraceShape(t *testing.T) {
	s := NewSink(2, 0)
	s.Tracer(0).Begin(0.5, "io", S("op", "write"), I("bytes", 42))
	s.Tracer(0).End(1.25)
	s.Tracer(1).Counter(0.75, "queue", 3)
	s.Tracer(1).Instant(1, "mark")

	var buf bytes.Buffer
	if err := s.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("export: %v", err)
	}
	out := buf.String()
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not JSON: %v\n%s", err, out)
	}
	// One thread_name metadata record per rank.
	names := 0
	for _, e := range doc.TraceEvents {
		if e["name"] == "thread_name" {
			names++
		}
	}
	if names != 2 {
		t.Fatalf("thread_name records = %d, want 2", names)
	}
	// Virtual seconds export as microseconds.
	if !strings.Contains(out, `"ts":500000.000`) {
		t.Fatalf("0.5 virtual seconds should export as 500000 us:\n%s", out)
	}
	if !strings.Contains(out, `"args":{"op":"write","bytes":42}`) {
		t.Fatalf("tags should render in call-site order:\n%s", out)
	}
}

func TestBreakdownAttribution(t *testing.T) {
	s := NewSink(2, 0)
	// Rank 0 is the aggregator: two rounds, each with comm and io inside
	// the round wrapper, and a bytes instant.
	a := s.Tracer(0)
	for r := 0; r < 2; r++ {
		base := sim.Time(r) * 10
		a.Begin(base, RoundSpan, I(RoundTag, int64(r)), I(AggTag, 0))
		a.Begin(base+1, stats.PComm)
		a.End(base + 3)
		a.Instant(base+3, "round_bytes", I(RoundTag, int64(r)), I(BytesTag, 100))
		a.Begin(base+3, stats.PIO)
		a.End(base + 7)
		a.End(base + 8)
	}
	// Rank 1 only communicates, outside any round.
	b := s.Tracer(1)
	b.Begin(0, stats.PComm)
	b.End(5)

	bd := s.Breakdown()
	if bd.Ranks != 2 {
		t.Fatalf("Ranks = %d", bd.Ranks)
	}
	if got, want := bd.PhaseTotal(stats.PComm), sim.Time(2+2+5); got != want {
		t.Fatalf("comm total = %v, want %v", got, want)
	}
	if got, want := bd.PhaseTotal(stats.PIO), sim.Time(8); got != want {
		t.Fatalf("io total = %v, want %v", got, want)
	}
	if len(bd.Rounds) != 2 {
		t.Fatalf("rounds = %d, want 2", len(bd.Rounds))
	}
	for r, rs := range bd.Rounds {
		if rs.Round != r {
			t.Fatalf("round %d reported as %d", r, rs.Round)
		}
		if rs.Bytes != 100 {
			t.Fatalf("round %d bytes = %d, want 100", r, rs.Bytes)
		}
		if rs.Wall != 8 {
			t.Fatalf("round %d wall = %v, want 8", r, rs.Wall)
		}
		if rs.Phases[stats.PComm] != 2 || rs.Phases[stats.PIO] != 4 {
			t.Fatalf("round %d phases = %v", r, rs.Phases)
		}
	}
	// Formatting is exercised for panics/determinism, not exact content.
	txt := bd.Format(nil)
	if !strings.Contains(txt, "per-round phase split") {
		t.Fatalf("Format output missing round table:\n%s", txt)
	}
	if txt != bd.Format(nil) {
		t.Fatal("Format is nondeterministic")
	}
}

// TestBreakdownNestedRoundWrapper: a wrapper of round r+1 inside round r (a
// read-ahead) books its io to round r+1 and its time to round r's wall.
func TestBreakdownNestedRoundWrapper(t *testing.T) {
	s := NewSink(1, 0)
	a := s.Tracer(0)
	a.Begin(0, RoundSpan, I(RoundTag, 0))
	a.Begin(1, RoundSpan, I(RoundTag, 1))
	a.Begin(1, stats.PIO)
	a.End(4)
	a.End(4)
	a.End(5)
	a.Begin(5, RoundSpan, I(RoundTag, 1))
	a.End(7)
	bd := s.Breakdown()
	if len(bd.Rounds) != 2 {
		t.Fatalf("rounds = %d, want 2", len(bd.Rounds))
	}
	if r0, r1 := bd.Rounds[0], bd.Rounds[1]; r0.Wall != 5 || r1.Wall != 2 || r0.Phases[stats.PIO] != 0 || r1.Phases[stats.PIO] != 3 {
		t.Fatalf("round 0 wall %v io %v, round 1 wall %v io %v; want 5, 0, 2, 3",
			r0.Wall, r0.Phases[stats.PIO], r1.Wall, r1.Phases[stats.PIO])
	}
}

func TestSinkResetClearsEverything(t *testing.T) {
	s := NewSink(1, 2)
	tr := s.Tracer(0)
	tr.Begin(1, "a")
	tr.Instant(2, "b")
	tr.Instant(3, "c") // overflow: drops the Begin
	s.Reset()
	if s.Events() != 0 || s.Dropped() != 0 || tr.Depth() != 0 {
		t.Fatal("Reset should clear events, drops, and open spans")
	}
	tr.Begin(0, "fresh") // timestamps may restart at zero after reset
	tr.End(1)
	if err := s.Check(); err != nil {
		t.Fatalf("Check after reset: %v", err)
	}
}
