package metrics

import "math"

// histBase is the lower edge of the first histogram bucket: 1 ns of
// virtual time. histSub sub-buckets per octave give ~9% value resolution.
const (
	histBase    = 1e-9
	histSub     = 8
	histBuckets = 512 // covers histBase .. histBase*2^(512/8) and beyond
)

// Histogram is a log-bucketed distribution of non-negative samples
// (virtual-time durations, byte counts, ...). It backs the exposition's
// histogram series (bucket counts, sample count and sum). The zero value is
// ready to use; a nil *Histogram observes nothing and reports zeros.
type Histogram struct {
	counts [histBuckets]int64
	n      int64
	sum    float64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// histIndex maps a sample to its bucket.
func histIndex(v float64) int {
	if v < histBase {
		return 0
	}
	i := int(math.Floor(math.Log2(v/histBase) * histSub))
	if i < 0 {
		i = 0
	}
	if i >= histBuckets {
		i = histBuckets - 1
	}
	return i
}

// histUpper is the upper edge of bucket i.
func histUpper(i int) float64 {
	return histBase * math.Exp2(float64(i+1)/histSub)
}

// Observe records one sample. Negative samples are clamped to zero.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.counts[histIndex(v)]++
	h.n++
	h.sum += v
}

// Count returns the number of samples.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.n
}

// Sum returns the sum of all samples.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum
}

// Buckets visits the non-empty buckets in ascending order, passing each
// bucket's upper edge and sample count. Exporters (e.g. Prometheus text
// exposition) build cumulative bucket series from it.
func (h *Histogram) Buckets(visit func(upper float64, count int64)) {
	if h == nil {
		return
	}
	for i := 0; i < histBuckets; i++ {
		if h.counts[i] != 0 {
			visit(histUpper(i), h.counts[i])
		}
	}
}

// MergeHist folds o's samples into h.
func (h *Histogram) MergeHist(o *Histogram) {
	if h == nil || o == nil || o.n == 0 {
		return
	}
	for i := range h.counts {
		h.counts[i] += o.counts[i]
	}
	h.n += o.n
	h.sum += o.sum
}
