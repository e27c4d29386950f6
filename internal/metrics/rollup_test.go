package metrics

import (
	"bytes"
	"strings"
	"testing"
)

func TestRegistryMergeFrom(t *testing.T) {
	a := &Registry{rank: -1}
	b := NewSet(2).Registry(0)
	b.Add(CIOBytes, 100)
	b.Inc(CIOCalls)
	b.SetGauge(GNAggs, 4)
	b.Charge(PIO, 1.0)
	a.MergeFrom(b)
	a.MergeFrom(b)
	if got := a.Counter(CIOBytes); got != 200 {
		t.Fatalf("merged io_bytes = %d, want 200", got)
	}
	if got := a.Gauge(GNAggs); got != 4 {
		t.Fatalf("merged gauge = %v, want max 4", got)
	}
	// Nil source and nil receiver are no-ops.
	a.MergeFrom(nil)
	var nilReg *Registry
	nilReg.MergeFrom(b)
}

func TestRollupFoldsByNode(t *testing.T) {
	s := NewSet(4)
	for rank := 0; rank < 4; rank++ {
		s.Registry(rank).Add(CIOBytes, int64(10*(rank+1)))
		s.Registry(rank).SetGauge(GCritPathSec, float64(rank))
	}
	ru := NewRollup(s, NodeOfBlock(2))
	if ru.Nodes() != 2 {
		t.Fatalf("Nodes = %d, want 2", ru.Nodes())
	}
	if m := ru.Members(1); len(m) != 2 || m[0] != 2 || m[1] != 3 {
		t.Fatalf("Members(1) = %v, want [2 3]", m)
	}
	if got := ru.Node(0).Counter(CIOBytes); got != 30 {
		t.Fatalf("node 0 io_bytes = %d, want 10+20", got)
	}
	if got := ru.Node(1).Gauge(GCritPathSec); got != 3 {
		t.Fatalf("node 1 critpath gauge = %v, want max(2,3)", got)
	}
	// One rank per node when nodeOf is nil.
	if flat := NewRollup(s, nil); flat.Nodes() != 4 {
		t.Fatalf("flat Nodes = %d, want 4", flat.Nodes())
	}
}

func TestRollupPromRoundTrip(t *testing.T) {
	s := NewSet(4)
	for rank := 0; rank < 4; rank++ {
		r := s.Registry(rank)
		r.Add(CIOBytes, 1000)
		r.Inc(CIOCalls)
		r.Charge(PComm, 0.25)
	}
	ru := NewRollup(s, NodeOfBlock(2))
	var buf bytes.Buffer
	if err := ru.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	parsed, err := ParseProm(strings.NewReader(text))
	if err != nil {
		t.Fatalf("ParseProm rejected the rollup exposition: %v\n%s", err, text)
	}
	// Per-node series replace per-rank series.
	if got := parsed[`flexio_io_bytes_total{node="0"}`]; got != 2000 {
		t.Fatalf("node 0 io_bytes = %v, want 2000", got)
	}
	if _, ok := parsed[`flexio_io_bytes_total{rank="0"}`]; ok {
		t.Fatal("rollup exposition still carries per-rank series")
	}
	// Histograms merge across every rank, sampled or not: _count equals
	// the total observation count and the +Inf bucket equals _count.
	if got := parsed[`flexio_phase_seconds_count{phase="comm"}`]; got != 4 {
		t.Fatalf("phase comm count = %v, want 4", got)
	}
	if got := parsed[`flexio_phase_seconds_bucket{phase="comm",le="+Inf"}`]; got != 4 {
		t.Fatalf("phase comm +Inf = %v, want 4", got)
	}
	// Deterministic bytes.
	var buf2 bytes.Buffer
	if err := ru.WriteProm(&buf2); err != nil {
		t.Fatal(err)
	}
	if text != buf2.String() {
		t.Fatal("rollup exposition differs between writes")
	}
}

// TestRollupPartialReporting pins the honesty contract when only a sampled
// subset keeps flight rings: histogram _count still reflects every rank
// that observed (registries always record), while flight-backed rounds
// exist only for the kept ranks.
func TestRollupPartialReporting(t *testing.T) {
	keep := func(rank int) bool { return rank == 0 || rank == 2 }
	s := newSetKeeping(4, 8, keep)
	for rank := 0; rank < 4; rank++ {
		r := s.Registry(rank)
		r.Charge(PIO, 1.0)
		pr := r.BeginRound()
		r.EndRound(pr, 0, rank == 0, 256, 512)
	}
	var buf bytes.Buffer
	ru := NewRollup(s, NodeOfBlock(2))
	if err := ru.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseProm(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got := parsed[`flexio_phase_seconds_count{phase="io"}`]; got != 4 {
		t.Fatalf("phase io count = %v, want 4 (registries record on every rank)", got)
	}
	if got := parsed[`flexio_phase_seconds_bucket{phase="io",le="+Inf"}`]; got != 4 {
		t.Fatalf("phase io +Inf = %v, want _count", got)
	}
	// Flight rings exist only where keep admits: unsampled ranks
	// contribute zero-depth rings, so the dump's rounds carry zeros for
	// them rather than fabricated data.
	d := s.Dump(false)
	if len(d.Rounds) != 1 {
		t.Fatalf("rounds = %d, want 1", len(d.Rounds))
	}
	if d.Rounds[0].RecvBytes[0] == 0 || d.Rounds[0].RecvBytes[1] != 0 {
		t.Fatalf("RecvBytes = %v: kept rank must report, dropped rank must read zero",
			d.Rounds[0].RecvBytes)
	}
}
