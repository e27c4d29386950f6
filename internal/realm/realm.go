// Package realm implements file realm assignment for two-phase collective
// I/O. A file realm is the region of the file one I/O aggregator is
// exclusively responsible for. Following the paper's central design idea,
// a realm is described by a displacement and a datatype (optionally tiled
// forever), so arbitrary assignment policies — contiguous even partitions,
// stripe-aligned partitions, cyclic block distributions, load-balanced
// partitions — plug into the same two-phase engine.
package realm

import (
	"fmt"
	"sort"

	"flexio/internal/datatype"
)

// Realm is one aggregator's file responsibility: Count instances of
// Pattern tiled from Disp (Count < 0 tiles forever). A Realm with a
// zero-size Pattern is empty: the aggregator performs no I/O.
type Realm struct {
	Disp    int64
	Pattern datatype.Type
	Count   int64
}

// Empty reports whether the realm contains no bytes.
func (r Realm) Empty() bool {
	return r.Pattern == nil || r.Pattern.Size() == 0 || r.Count == 0
}

// Cursor returns a fresh cursor over the realm's bytes.
func (r Realm) Cursor() *datatype.Cursor {
	c := new(datatype.Cursor)
	r.CursorInto(c)
	return c
}

// CursorInto is Cursor into caller-owned memory: c becomes the cursor over
// the realm's bytes, keeping its table's memory (see datatype.Cursor.Init).
func (r Realm) CursorInto(c *datatype.Cursor) {
	if r.Pattern == nil {
		c.Init(noBytes, 0, 0)
		return
	}
	c.Init(r.Pattern, r.Disp, r.Count)
}

var noBytes = datatype.Bytes(0) // immutable

// Flat returns the wire form of the realm (realms, like accesses, travel
// as flattened datatypes).
func (r Realm) Flat() datatype.Flat {
	if r.Pattern == nil {
		return datatype.FlatOf(datatype.Bytes(0), 0, 0)
	}
	return datatype.FlatOf(r.Pattern, r.Disp, r.Count)
}

// String describes the realm.
func (r Realm) String() string {
	if r.Empty() {
		return "realm(empty)"
	}
	return fmt.Sprintf("realm(disp=%d count=%d %s)", r.Disp, r.Count, r.Pattern)
}

// Assignment is a realm set as a collective engine passes it around: computed
// once (per call for the whole world, or per file when persisted) and then
// shared read-only by every rank, together with the content signature the
// engine's layout memo keys on, so no rank re-hashes the patterns per call.
type Assignment struct {
	Realms []Realm
	Sig    uint64
}

// Context carries everything an assignment policy may consult.
type Context struct {
	// NAggs is the number of I/O aggregators to assign realms for.
	NAggs int
	// Start and End bound the aggregate access region (end exclusive).
	Start, End int64
	// Align, when positive, requests realm boundaries at multiples of
	// this many bytes (the paper aligns to the Lustre stripe size via a
	// ROMIO hint).
	Align int64
	// AllSegs is the combined flattened access of every process, sorted
	// and coalesced. It is populated only for assigners whose NeedsSegs
	// returns true (gathering it costs O(M) communication).
	AllSegs []datatype.Seg
	// RankSegs is the per-rank flattened access (RankSegs[r] for rank r,
	// sorted, coalesced, absolute offsets; nil for ranks with no data).
	// Populated alongside AllSegs for NeedsSegs assigners; topology-aware
	// policies use it to attribute bytes to nodes.
	RankSegs [][]datatype.Seg
	// NodeOf is the world's rank→node placement (nil = one rank per
	// node), for topology-aware policies.
	NodeOf func(rank int) int
	// AggRanks lists the actual rank of each aggregator slot: the realm
	// at index i belongs to rank AggRanks[i]. Empty means aggregator i is
	// rank i (the default layout); realm.Failover fills it with the
	// surviving ranks so topology-aware policies see true placements.
	AggRanks []int
}

// AggRank returns the actual rank of aggregator slot i.
func (c Context) AggRank(i int) int {
	if i < len(c.AggRanks) {
		return c.AggRanks[i]
	}
	return i
}

// Assigner decides the realm of every aggregator. Assignments must be
// deterministic functions of the Context: every rank runs the assigner
// independently and they must agree.
type Assigner interface {
	// Name identifies the policy in logs and benchmarks.
	Name() string
	// NeedsSegs reports whether Assign requires Context.AllSegs.
	NeedsSegs() bool
	// Assign returns exactly ctx.NAggs realms that together cover at
	// least [ctx.Start, ∞).
	Assign(ctx Context) ([]Realm, error)
}

func validate(ctx Context) error {
	if ctx.NAggs <= 0 {
		return fmt.Errorf("realm: need at least one aggregator, got %d", ctx.NAggs)
	}
	if ctx.End < ctx.Start {
		return fmt.Errorf("realm: inverted access region [%d,%d)", ctx.Start, ctx.End)
	}
	if ctx.Align < 0 {
		return fmt.Errorf("realm: negative alignment %d", ctx.Align)
	}
	return nil
}

func roundDown(x, align int64) int64 { return x - x%align }

func roundUp(x, align int64) int64 {
	if r := x % align; r != 0 {
		return x + align - r
	}
	return x
}

// contiguousRealms builds realms [base+i*chunk, base+(i+1)*chunk), with the
// last realm extended to infinity so the partition covers the whole file to
// the right (persistent realms must own every byte ever written).
func contiguousRealms(naggs int, base, chunk int64) []Realm {
	realms := make([]Realm, naggs)
	for i := 0; i < naggs; i++ {
		disp := base + int64(i)*chunk
		if i == naggs-1 {
			realms[i] = Realm{Disp: disp, Pattern: datatype.Bytes(tailBlock(chunk)), Count: -1}
		} else {
			realms[i] = Realm{Disp: disp, Pattern: datatype.Bytes(chunk), Count: 1}
		}
	}
	return realms
}

// tailBlock picks the tiling block of an unbounded contiguous tail realm.
// Any block size covers [disp, ∞); a reasonable minimum keeps cursor
// iteration from degenerating into per-byte steps when the nominal chunk
// is tiny.
func tailBlock(chunk int64) int64 {
	const min = 1 << 20
	if chunk < min {
		return min
	}
	return chunk
}

// Even is the default ROMIO-style policy: the aggregate access region is
// divided evenly among aggregators. With Align > 0 the boundaries are
// rounded to alignment (the paper's file realm alignment optimization),
// which may leave trailing aggregators with no data when the region is
// smaller than NAggs*Align — exactly the imbalance Figure 7 exhibits for
// small client counts.
type Even struct {
	Align int64
}

// Name implements Assigner.
func (e Even) Name() string {
	if e.Align > 0 {
		return fmt.Sprintf("even/align=%d", e.Align)
	}
	return "even"
}

// NeedsSegs implements Assigner.
func (e Even) NeedsSegs() bool { return false }

// Assign implements Assigner.
func (e Even) Assign(ctx Context) ([]Realm, error) {
	if err := validate(ctx); err != nil {
		return nil, err
	}
	align := e.Align
	if align == 0 {
		align = ctx.Align
	}
	base := ctx.Start
	span := ctx.End - ctx.Start
	if span == 0 {
		span = 1
	}
	if align <= 0 {
		chunk := (span + int64(ctx.NAggs) - 1) / int64(ctx.NAggs)
		if chunk <= 0 {
			chunk = 1
		}
		return contiguousRealms(ctx.NAggs, base, chunk), nil
	}
	// Aligned: round each boundary individually (rather than the chunk
	// size), so realm sizes stay within one alignment unit of even. When
	// the region is small relative to the alignment, boundaries collapse
	// and trailing realms go empty — the imbalance the paper observes
	// for small accesses with stripe-aligned realms.
	base = roundDown(base, align)
	span = ctx.End - base
	n := int64(ctx.NAggs)
	bounds := make([]int64, ctx.NAggs+1)
	for i := int64(0); i <= n; i++ {
		bounds[i] = base + roundDown(span*i/n, align)
	}
	realms := make([]Realm, ctx.NAggs)
	for i := 0; i < ctx.NAggs; i++ {
		width := bounds[i+1] - bounds[i]
		if i == ctx.NAggs-1 {
			realms[i] = Realm{Disp: bounds[i], Pattern: datatype.Bytes(tailBlock(width)), Count: -1}
			continue
		}
		realms[i] = Realm{Disp: bounds[i], Pattern: datatype.Bytes(width), Count: 1}
	}
	return realms, nil
}

// Cyclic distributes fixed-size blocks round-robin: aggregator i owns
// blocks j with j mod NAggs == i. Expressed as a resized datatype tiled
// forever, it demonstrates non-contiguous datatype-described realms and is
// a natural fit for persistent file realms on striped file systems (block
// = stripe keeps each aggregator on the same OSTs).
type Cyclic struct {
	Block int64
}

// Name implements Assigner.
func (c Cyclic) Name() string { return fmt.Sprintf("cyclic/block=%d", c.Block) }

// NeedsSegs implements Assigner.
func (c Cyclic) NeedsSegs() bool { return false }

// Assign implements Assigner.
func (c Cyclic) Assign(ctx Context) ([]Realm, error) {
	if err := validate(ctx); err != nil {
		return nil, err
	}
	block := c.Block
	if block <= 0 {
		if ctx.Align > 0 {
			block = ctx.Align
		} else {
			block = 1 << 20
		}
	}
	realms := make([]Realm, ctx.NAggs)
	stride := block * int64(ctx.NAggs)
	for i := range realms {
		pat, err := datatype.Resized(datatype.Bytes(block), stride)
		if err != nil {
			return nil, err
		}
		realms[i] = Realm{Disp: int64(i) * block, Pattern: pat, Count: -1}
	}
	return realms, nil
}

// LoadBalanced partitions so each aggregator receives (approximately) the
// same number of actual data bytes rather than the same extent of file
// space, fixing the imbalance the even partition suffers on sparse
// clustered accesses (paper §5.2's motivating example). It requires the
// combined flattened access.
type LoadBalanced struct {
	// Align, when positive, rounds each boundary up to a multiple of it;
	// 0 takes the context's alignment.
	Align int64
}

// Name implements Assigner.
func (l LoadBalanced) Name() string { return "load-balanced" }

// NeedsSegs implements Assigner.
func (l LoadBalanced) NeedsSegs() bool { return true }

// Assign implements Assigner.
func (l LoadBalanced) Assign(ctx Context) ([]Realm, error) {
	if err := validate(ctx); err != nil {
		return nil, err
	}
	segs := ctx.AllSegs
	var total int64
	for _, s := range segs {
		total += s.Len
	}
	if total == 0 {
		return Even{Align: l.Align}.Assign(ctx)
	}
	align := l.Align
	if align == 0 {
		align = ctx.Align
	}
	n := int64(ctx.NAggs)
	target := (total + n - 1) / n
	bounds := make([]int64, 0, ctx.NAggs+1)
	bounds = append(bounds, ctx.Start)
	var acc int64
	for _, s := range segs {
		for acc+s.Len >= target*int64(len(bounds)) && len(bounds) < ctx.NAggs {
			// Boundary inside (or at the end of) this segment.
			need := target*int64(len(bounds)) - acc
			b := s.Off + need
			if align > 0 {
				b = roundUp(b, align)
			}
			if b <= bounds[len(bounds)-1] {
				b = bounds[len(bounds)-1] + 1
			}
			bounds = append(bounds, b)
		}
		acc += s.Len
	}
	for len(bounds) < ctx.NAggs {
		bounds = append(bounds, bounds[len(bounds)-1]+1)
	}
	sort.Slice(bounds, func(i, j int) bool { return bounds[i] < bounds[j] })
	realms := make([]Realm, ctx.NAggs)
	for i := 0; i < ctx.NAggs; i++ {
		lo := bounds[i]
		if i == ctx.NAggs-1 {
			// A block pattern tiled forever is a contiguous realm
			// covering [lo, ∞).
			realms[i] = Realm{Disp: lo, Pattern: datatype.Bytes(tailBlock(0)), Count: -1}
			continue
		}
		hi := bounds[i+1]
		realms[i] = Realm{Disp: lo, Pattern: datatype.Bytes(hi - lo), Count: 1}
	}
	return realms, nil
}

// Coverage verifies that realms jointly cover [start, end) with no byte
// owned by two realms; it returns an error describing the first violation.
// Used by tests and enabled in the collective engine's debug mode.
func Coverage(realms []Realm, start, end int64) error {
	if end <= start {
		return nil
	}
	cursors := make([]*datatype.Cursor, len(realms))
	for i, r := range realms {
		cursors[i] = r.Cursor()
	}
	pos := start
	for pos < end {
		owner := -1
		var runEnd int64
		for i, c := range cursors {
			if c == nil || c.Done() {
				continue
			}
			if !c.SeekOffset(pos) {
				cursors[i] = nil
				continue
			}
			if c.Offset() == pos {
				if owner >= 0 {
					return fmt.Errorf("realm: byte %d owned by both realm %d and %d", pos, owner, i)
				}
				owner = i
				runEnd = pos + c.Run()
			}
		}
		if owner < 0 {
			return fmt.Errorf("realm: byte %d not covered by any realm", pos)
		}
		if runEnd > end {
			runEnd = end
		}
		// Another realm starting inside the owner's run is an overlap.
		for i, c := range cursors {
			if c == nil || c.Done() || i == owner {
				continue
			}
			if o := c.Offset(); o > pos && o < runEnd {
				return fmt.Errorf("realm: byte %d owned by both realm %d and %d", o, owner, i)
			}
		}
		pos = runEnd
	}
	return nil
}
