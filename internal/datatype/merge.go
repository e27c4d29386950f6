package datatype

import (
	"math"
	"sort"
)

// Stream merging for node-local pre-aggregation: a leader rank combines the
// flattened accesses of its co-resident ranks into one offset-sorted,
// coalesced access whose packed stream it exchanges with the aggregators on
// everyone's behalf. The plan below is the bidirectional byte map between
// each participant's own packed stream and the merged stream — the leader
// gathers member payloads through it on writes and scatters aggregator
// payloads back through it on reads.
//
// The merged access is the deduplicated union of the participants' byte
// sets: a byte two members both touch appears once in the merged stream.
// For reads that is a small bonus (shared bytes cross the network once);
// for writes, overlapping concurrent accesses are undefined behavior under
// MPI semantics, and the plan resolves them deterministically (the copy
// order below makes the highest (Part, SrcPos) pair win).

// MergeItem maps one contiguous run of a participant's packed data stream
// onto the merged stream. Off is the absolute file offset of the run,
// SrcPos its position in the participant's own stream, and DstPos (filled
// by BuildMergePlan) its position in the merged stream.
type MergeItem struct {
	Off    int64
	Len    int64
	Part   int
	SrcPos int64
	DstPos int64
}

// AppendFlatRuns appends one MergeItem per contiguous run of f's access
// (absolute offsets, limit respected, stream order) tagged with the given
// participant index, and returns the extended slice.
func AppendFlatRuns(items []MergeItem, f Flat, part int) []MergeItem {
	c := f.Cursor()
	for {
		seg, sp, ok := c.Next(1 << 62)
		if !ok {
			break
		}
		items = append(items, MergeItem{Off: seg.Off, Len: seg.Len, Part: part, SrcPos: sp})
	}
	return items
}

// AppendSegRuns appends one MergeItem per segment of an already-flattened
// absolute access list (stream order = list order), tagged with the given
// participant index, and returns the extended slice.
func AppendSegRuns(items []MergeItem, segs []Seg, part int) []MergeItem {
	var pos int64
	for _, s := range segs {
		if s.Len > 0 {
			items = append(items, MergeItem{Off: s.Off, Len: s.Len, Part: part, SrcPos: pos})
		}
		pos += s.Len
	}
	return items
}

// BuildMergePlan sorts the items by file offset (ties by participant, then
// source position), computes the deduplicated union of their byte ranges as
// an offset-sorted, coalesced segment list appended to merged[:0], and
// fills each item's DstPos with the run's position in the merged stream.
// Every item maps to one contiguous destination run: items are sorted, so
// a run overlapping existing coverage overlaps only the coverage tail, and
// any extension appends contiguously right after it. Returns the updated
// items, the merged segments, and the merged stream's total byte count.
func BuildMergePlan(items []MergeItem, merged []Seg) ([]MergeItem, []Seg, int64) {
	sort.Slice(items, func(i, j int) bool {
		if items[i].Off != items[j].Off {
			return items[i].Off < items[j].Off
		}
		if items[i].Part != items[j].Part {
			return items[i].Part < items[j].Part
		}
		return items[i].SrcPos < items[j].SrcPos
	})
	merged = merged[:0]
	var total int64
	for i := range items {
		it := &items[i]
		if n := len(merged); n > 0 && it.Off <= merged[n-1].End() {
			last := &merged[n-1]
			it.DstPos = (total - last.Len) + (it.Off - last.Off)
			if ext := it.End() - last.End(); ext > 0 {
				last.Len += ext
				total += ext
			}
		} else {
			it.DstPos = total
			merged = append(merged, Seg{Off: it.Off, Len: it.Len})
			total += it.Len
		}
	}
	return items, merged, total
}

// End returns the first offset past the item's run.
func (m MergeItem) End() int64 { return m.Off + m.Len }

// Run merging for the aggregator rounds: every client's pieces of one
// two-phase round arrive as a run of segments already in file-offset order
// (the realm intersection emits them that way), so the round's file-ordered
// sequence is a k-way merge, O(n log k), rather than a sort of the
// concatenation.

// RunItem names one segment of a merged sequence by its source run and its
// byte length. A run's items keep the run's own order, so a consumer walking
// the sequence with one cursor per run visits each run's payload front to
// back.
type RunItem struct {
	Run int32
	Len int64
}

// RunMerger merges offset-sorted runs. The zero value is ready to use; it
// keeps its tables between calls so steady callers merge without allocating.
//
// The merge is a tournament (loser) tree over the runs' heads: leaf i is run
// i, every inner node remembers the run that lost the match played there, and
// tree[0] is the overall winner. Taking the winner's head and replaying its
// leaf-to-root path costs one comparison per level, half of what sifting a
// binary heap down does; an aggregator planning a layout the memo has not
// seen spends a third of its time here.
type RunMerger struct {
	tree  []int32 // tree[0] the winner, tree[1:] the loser of each match, as run indices
	win   []int32 // the winner of each match while the first tournament is played
	heads []int64 // heads[i] is the offset of run i's head, exhausted when there is none
	next  []int   // next[i] indexes the segment after run i's head
}

// exhausted is the head of a run with nothing left, and of the leaves that
// pad the tree to a power of two. No segment starts there: a segment is not
// empty and ends inside the offset range.
const exhausted = math.MaxInt64

// before orders runs a and b by (head offset, run index).
func (m *RunMerger) before(a, b int32) bool {
	ha, hb := m.heads[a], m.heads[b]
	return ha < hb || (ha == hb && a < b)
}

// Merge appends to items[:0] every segment of every run in file-offset
// order and to segs[:0] the same bytes as an I/O list (a segment starting
// exactly where the previous one ends extends it; nothing else coalesces),
// and returns both with the total byte count.
//
// Segments at equal offsets are ordered by run index, then by position in
// the run. Data written in sequence order therefore resolves overlapping
// writes the way BuildMergePlan does: the highest (run, position) wins.
//
// Every run is checked for sortedness; one that is not sorted is stably
// sorted in place first, which keeps the order above but means its items no
// longer follow the order the caller handed in.
func (m *RunMerger) Merge(runs [][]Seg, items []RunItem, segs []Seg) ([]RunItem, []Seg, int64) {
	items, segs = items[:0], segs[:0]
	leaves := 1
	for leaves < len(runs) {
		leaves <<= 1
	}
	if cap(m.heads) < leaves {
		m.heads, m.next = make([]int64, leaves), make([]int, leaves)
		m.tree, m.win = make([]int32, leaves), make([]int32, 2*leaves)
	}
	heads, next, tree, win := m.heads[:leaves], m.next[:leaves], m.tree[:leaves], m.win[:2*leaves]
	for i := range heads {
		heads[i], next[i] = exhausted, 1
		win[leaves+i] = int32(i)
		if i >= len(runs) || len(runs[i]) == 0 {
			continue
		}
		run := runs[i]
		for j := 1; j < len(run); j++ {
			if run[j].Off < run[j-1].Off {
				sort.SliceStable(run, func(a, b int) bool { return run[a].Off < run[b].Off })
				break
			}
		}
		heads[i] = run[0].Off
	}
	// The first tournament, bottom-up: match k is between the winners of
	// matches 2k and 2k+1 (the leaves are matches already won).
	for k := leaves - 1; k >= 1; k-- {
		a, b := win[2*k], win[2*k+1]
		if m.before(b, a) {
			a, b = b, a
		}
		win[k], tree[k] = a, b
	}
	tree[0] = win[1] // with a single leaf, win[1] is that leaf

	var total int64
	for w := tree[0]; heads[w] != exhausted; w = tree[0] {
		run := runs[w]
		s := run[next[w]-1]
		items = append(items, RunItem{Run: w, Len: s.Len})
		if n := len(segs); n > 0 && segs[n-1].End() == s.Off {
			segs[n-1].Len += s.Len
		} else {
			segs = append(segs, s)
		}
		total += s.Len
		if next[w] < len(run) {
			heads[w] = run[next[w]].Off
			next[w]++
		} else {
			heads[w] = exhausted
		}
		// Replay the matches on the way from leaf w to the root: the run
		// coming up meets the loser stored at each and the better goes on.
		for k := (leaves + int(w)) >> 1; k >= 1; k >>= 1 {
			if m.before(tree[k], w) {
				tree[k], w = w, tree[k]
			}
		}
		tree[0] = w
	}
	return items, segs, total
}
