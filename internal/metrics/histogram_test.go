package metrics

import "testing"

func TestHistogramBasics(t *testing.T) {
	var nilHist *Histogram
	nilHist.Observe(1)
	nilHist.MergeHist(NewHistogram())
	if nilHist.Count() != 0 || nilHist.Sum() != 0 {
		t.Fatal("nil histogram should report zeros")
	}

	h := NewHistogram()
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i) * 1e-3)
	}
	if h.Count() != 100 {
		t.Fatalf("Count = %d", h.Count())
	}
	if got, want := h.Sum(), 5050e-3; got < want*0.999 || got > want*1.001 {
		t.Fatalf("Sum = %v, want %v", got, want)
	}
	// Log buckets give ~9% resolution: every sample lies below its bucket's
	// upper edge, so the edges span the samples with that much slack.
	var lo, hi float64
	h.Buckets(func(upper float64, _ int64) {
		if lo == 0 {
			lo = upper
		}
		hi = upper
	})
	if lo < 1e-3 || lo > 1.1e-3 || hi < 100e-3 || hi > 110e-3 {
		t.Fatalf("bucket edges span [%v, %v], want about [1e-3, 100e-3]", lo, hi)
	}

	// Zeros (ranks that never enter a phase) land in the first bucket.
	z := NewHistogram()
	for i := 0; i < 10; i++ {
		z.Observe(0)
	}
	first := true
	z.Buckets(func(upper float64, count int64) {
		if !first || upper > 2*histBase || count != 10 {
			t.Fatalf("zeros in bucket up to %v (count %d), want all 10 in the first", upper, count)
		}
		first = false
	})
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
	if got, want := a.Sum(), 50*1e-3+50*1.0; got < want*0.999 || got > want*1.001 {
		t.Fatalf("merged sum = %v, want %v", got, want)
	}
	buckets := 0
	a.Buckets(func(_ float64, count int64) {
		if count != 50 {
			t.Fatalf("merged bucket holds %d samples, want 50", count)
		}
		buckets++
	})
	if buckets != 2 {
		t.Fatalf("merged histogram has %d buckets, want 2", buckets)
	}
	// Into an empty histogram the samples come over verbatim.
	c := NewHistogram()
	c.MergeHist(b)
	if c.Count() != 50 || c.Sum() != b.Sum() {
		t.Fatalf("merge into empty: count=%d sum=%v", c.Count(), c.Sum())
	}
}
