package trace

import "testing"

func TestSampleRanksDeterministic(t *testing.T) {
	p := SamplePolicy{Always: []int{0, 8}, K: 4, Seed: 7}
	a := p.SampleRanks(64)
	b := p.SampleRanks(64)
	if len(a) != 64 {
		t.Fatalf("len = %d, want 64", len(a))
	}
	for r := range a {
		if a[r] != b[r] {
			t.Fatalf("rank %d sampled differently across calls", r)
		}
	}
	if !a[0] || !a[8] {
		t.Fatal("always-ranks not sampled")
	}
	n := 0
	for r, s := range a {
		if s && r != 0 && r != 8 {
			n++
		}
	}
	if n != 4 {
		t.Fatalf("reservoir sampled %d members, want K=4", n)
	}
	// A different seed should (for this size) pick a different member set.
	c := SamplePolicy{Always: []int{0, 8}, K: 4, Seed: 8}.SampleRanks(64)
	same := true
	for r := range a {
		if a[r] != c[r] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seed change did not move the reservoir")
	}
}

func TestSampleRanksKCoversAll(t *testing.T) {
	got := SamplePolicy{K: 100}.SampleRanks(8)
	for r, s := range got {
		if !s {
			t.Fatalf("rank %d unsampled with K >= size", r)
		}
	}
	none := SamplePolicy{}.SampleRanks(8)
	for r, s := range none {
		if s {
			t.Fatalf("rank %d sampled under the empty policy", r)
		}
	}
}

func TestSampledSink(t *testing.T) {
	sampled := []bool{true, false, true, false}
	s := NewSampledSink(4, 16, sampled)
	if s.SampledCount() != 2 {
		t.Fatalf("SampledCount = %d, want 2", s.SampledCount())
	}
	if s.Tracer(1) != nil {
		t.Fatal("unsampled rank got a tracer")
	}
	if s.Tracer(0) == nil {
		t.Fatal("sampled rank missing its tracer")
	}
	// Nil tracers record nothing but stay safe to drive.
	tr := s.Tracer(1)
	tr.Begin1(1, CollEnterName, Tag{Key: RoundTag, Int: 1})
	tr.End(2)
	if !s.Sampled(0) || s.Sampled(1) {
		t.Fatal("Sampled() disagrees with the policy")
	}
	// A plain sink samples every in-range rank.
	full := NewSink(2, 16)
	if !full.Sampled(0) || !full.Sampled(1) || full.Sampled(2) {
		t.Fatal("full sink Sampled() wrong")
	}
	var nilSink *Sink
	if nilSink.Sampled(0) || nilSink.SampledCount() != 0 {
		t.Fatal("nil sink should sample nothing")
	}
}
