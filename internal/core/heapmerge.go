// Package core implements the paper's new flexible collective I/O engine:
// file realms described by datatypes, flattened-filetype request exchange
// (O(D) wire / O(MA) compute instead of ROMIO's O(M) wire / O(M) compute),
// pluggable realm assignment, pluggable collective-buffer access methods
// with conditional data sieving, and a choice of Alltoallw-style or
// overlapped nonblocking data exchange.
package core

import (
	"container/heap"

	"flexio/internal/datatype"
)

// realmHeap orders realm cursors by their current file offset; exhausted
// cursors are removed.
type realmHeap struct {
	cs   []*datatype.Cursor
	aggs []int
}

func (h *realmHeap) Len() int           { return len(h.cs) }
func (h *realmHeap) Less(i, j int) bool { return h.cs[i].Offset() < h.cs[j].Offset() }
func (h *realmHeap) Swap(i, j int) {
	h.cs[i], h.cs[j] = h.cs[j], h.cs[i]
	h.aggs[i], h.aggs[j] = h.aggs[j], h.aggs[i]
}
func (h *realmHeap) Push(x interface{}) { panic("realmHeap: push unused") }
func (h *realmHeap) Pop() interface{} {
	n := len(h.cs) - 1
	c := h.cs[n]
	h.cs = h.cs[:n]
	h.aggs = h.aggs[:n]
	return c
}

// heapMerge is the client-side binary-heap optimization (paper §5.3): one
// pass over the access cursor, with a heap of realm cursors deciding which
// aggregator owns each run. Aggregator a's pieces are appended to perAgg[a],
// the same pieces datatype.Intersect finds pass by pass. Returns the total
// heap work in pair-equivalents (log2(A) per repositioning).
// h is reusable scratch (pass nil to allocate fresh): its entry arrays
// are truncated and refilled, so steady callers re-merge without
// reallocating the heap.
func heapMerge(h *realmHeap, ac *datatype.Cursor, realms []*datatype.Cursor, cb int64, perAgg [][]datatype.Piece) int64 {
	if h == nil {
		h = &realmHeap{}
	}
	h.cs, h.aggs = h.cs[:0], h.aggs[:0]
	for a, rc := range realms {
		if rc.Done() {
			continue
		}
		h.cs = append(h.cs, rc)
		h.aggs = append(h.aggs, a)
	}
	heap.Init(h)
	logA := int64(1)
	for n := h.Len(); n > 1; n >>= 1 {
		logA++
	}
	// One heap operation costs one pair evaluation plus log2(A) sift
	// comparisons; comparisons are far lighter than full pair
	// processing, so they are weighted at a quarter pair each.
	opCost := 1 + (logA+3)/4
	var heapWork int64

	for !ac.Done() && h.Len() > 0 {
		ao := ac.Offset()
		rc := h.cs[0]
		agg := h.aggs[0]
		ro := rc.Offset()
		switch {
		case ro < ao:
			// This realm's cursor lags; advance it and restore heap
			// order.
			if !rc.SeekOffset(ao) {
				heap.Remove(h, 0)
			} else {
				heap.Fix(h, 0)
			}
			heapWork += opCost
		case ro > ao:
			// No realm claims this byte yet — the minimum cursor is
			// already past it, meaning realms don't cover it (the
			// engine validates coverage; skip defensively).
			if !ac.SeekOffset(ro) {
				return heapWork
			}
		default:
			n := ac.Run()
			if rn := rc.Run(); rn < n {
				n = rn
			}
			rs := rc.StreamPos()
			if rem := cb - rs%cb; n > rem {
				n = rem
			}
			perAgg[agg] = append(perAgg[agg], datatype.Piece{
				Round:   int(rs / cb),
				File:    datatype.Seg{Off: ao, Len: n},
				AStream: ac.StreamPos(),
				RStream: rs,
			})
			ac.Next(n)
			if rc.Next(n); rc.Done() {
				heap.Remove(h, 0)
			} else {
				heap.Fix(h, 0)
			}
			heapWork += opCost
		}
	}
	return heapWork
}
