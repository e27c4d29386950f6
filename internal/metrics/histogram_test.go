package metrics

import "testing"

func TestHistogramBasics(t *testing.T) {
	var nilHist *Histogram
	nilHist.Observe(1)
	nilHist.MergeHist(NewHistogram())
	if nilHist.Count() != 0 || nilHist.Sum() != 0 || nilHist.Quantile(0.5) != 0 {
		t.Fatal("nil histogram should report zeros")
	}

	h := NewHistogram()
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile should be 0")
	}
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i) * 1e-3)
	}
	if h.Count() != 100 {
		t.Fatalf("Count = %d", h.Count())
	}
	if h.Min() != 1e-3 || h.Max() != 100e-3 {
		t.Fatalf("min/max = %v/%v", h.Min(), h.Max())
	}
	// Log buckets give ~9% resolution; allow a generous 15% band.
	if p50 := h.Quantile(0.50); p50 < 40e-3 || p50 > 60e-3 {
		t.Fatalf("p50 = %v, want ~50e-3", p50)
	}
	if p95 := h.Quantile(0.95); p95 < 85e-3 || p95 > 100e-3 {
		t.Fatalf("p95 = %v, want ~95e-3", p95)
	}
	if h.Quantile(0) != h.Min() || h.Quantile(1) != h.Max() {
		t.Fatal("q=0/1 should clamp to min/max")
	}

	// Zeros (ranks that never enter a phase) land in the first bucket and
	// drag the median down honestly.
	z := NewHistogram()
	for i := 0; i < 10; i++ {
		z.Observe(0)
	}
	z.Observe(1)
	if p50 := z.Quantile(0.5); p50 > 1e-6 {
		t.Fatalf("p50 of mostly-zeros = %v, want ~0", p50)
	}
}

func TestHistogramMerge(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	for i := 0; i < 50; i++ {
		a.Observe(1e-3)
		b.Observe(1.0)
	}
	a.MergeHist(b)
	if a.Count() != 100 {
		t.Fatalf("merged count = %d", a.Count())
	}
	if a.Min() != 1e-3 || a.Max() != 1.0 {
		t.Fatalf("merged min/max = %v/%v", a.Min(), a.Max())
	}
	if got, want := a.Sum(), 50*1e-3+50*1.0; got < want*0.999 || got > want*1.001 {
		t.Fatalf("merged sum = %v, want %v", got, want)
	}
	// Into an empty histogram, min must come over verbatim.
	c := NewHistogram()
	c.MergeHist(b)
	if c.Min() != 1.0 || c.Count() != 50 {
		t.Fatalf("merge into empty: min=%v count=%d", c.Min(), c.Count())
	}
}
