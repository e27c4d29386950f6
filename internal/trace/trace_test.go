package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"flexio/internal/sim"
)

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	tr.Begin(1, "x")
	tr.End(2)
	tr.Instant(3, "y")
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
