package datatype

import "fmt"

// Cursor walks the data bytes of a tiled datatype access: count instances
// (count < 0 means unbounded, as used by persistent file realms) of a type
// placed at byte displacement disp. Instance i occupies
// [disp+i*extent, disp+(i+1)*extent).
//
// Cursors are strictly forward: SeekOffset and Next only move toward larger
// file offsets. Work() counts the offset/length pairs touched, which the
// MPI-IO layers convert into virtual CPU time; whole instances are skipped
// with O(1) work (the paper's "skip full datatypes" optimization), while
// movement within an instance is a linear pair-by-pair scan, so succinct
// datatypes (small D, large count) are much cheaper to intersect with a
// window than enumerated ones (large D, count==1).
type Cursor struct {
	segs   []Seg   // one flattened instance
	prefix []int64 // prefix[i] = sum of lens of segs[:i]
	size   int64   // data bytes per instance
	extent int64
	disp   int64
	count  int64 // -1 = unbounded

	inst  int64 // current instance
	idx   int   // current segment within instance
	intra int64 // bytes consumed within current segment

	work  int64
	done  bool
	limit int64 // max data bytes to expose; <0 = unlimited
}

// NewCursor creates a cursor over count instances of t at displacement
// disp. count < 0 means unbounded tiling.
func NewCursor(t Type, disp int64, count int64) *Cursor {
	c := new(Cursor)
	c.Init(t, disp, count)
	return c
}

// Init makes c what NewCursor(t, disp, count) returns, reusing the memory of
// c's prefix table: a caller that walks one access after another keeps one
// Cursor in its scratch and builds none. Clones of c share that table and
// must be dead by now.
func (c *Cursor) Init(t Type, disp int64, count int64) {
	c.init(t.Flatten(), t.Size(), t.Extent(), disp, count)
}

// init points c at a tiling of segs, which must be in normal form (sorted,
// disjoint, coalesced, inside extent) with size their total length.
func (c *Cursor) init(segs []Seg, size, extent, disp, count int64) {
	prefix := c.prefix[:0]
	if cap(prefix) <= len(segs) {
		prefix = make([]int64, 0, len(segs)+1)
	}
	var sum int64
	prefix = append(prefix, 0)
	for _, s := range segs {
		sum += s.Len
		prefix = append(prefix, sum)
	}
	*c = Cursor{
		segs:   segs,
		prefix: prefix,
		size:   size,
		extent: extent,
		disp:   disp,
		count:  count,
		limit:  -1,
		done:   size == 0 || extent == 0 || count == 0,
	}
}

// Clone returns an independent cursor at the same position with a zeroed
// work counter.
func (c *Cursor) Clone() *Cursor {
	dup := *c
	dup.work = 0
	return &dup
}

// Reset rewinds to the first data byte and zeroes the work counter.
func (c *Cursor) Reset() {
	c.inst, c.idx, c.intra, c.work = 0, 0, 0, 0
	c.done = c.size == 0 || c.extent == 0 || c.count == 0 || c.limit == 0
}

// SetLimit caps the cursor at n data bytes: positions at or beyond stream
// position n read as exhausted. A negative n removes the cap. Used to clip
// a file view to the actual transfer size (the view's filetype conceptually
// repeats forever; the buffer's size decides how much I/O happens).
func (c *Cursor) SetLimit(n int64) {
	c.limit = n
	if n >= 0 && !c.done && c.StreamPos() >= n {
		c.done = true
	}
}

// Run returns the length of the contiguous data run starting at the current
// position (0 if exhausted), without consuming it.
func (c *Cursor) Run() int64 {
	if c.done {
		return 0
	}
	n := c.segs[c.idx].Len - c.intra
	if c.limit >= 0 {
		if lr := c.limit - c.StreamPos(); lr < n {
			n = lr
		}
	}
	return n
}

// Work returns the number of offset/length pairs touched since creation or
// the last Reset.
func (c *Cursor) Work() int64 { return c.work }

// Done reports whether the cursor has consumed every data byte.
func (c *Cursor) Done() bool { return c.done }

// Offset returns the absolute file offset of the next data byte, or -1 if
// the cursor is exhausted.
func (c *Cursor) Offset() int64 {
	if c.done {
		return -1
	}
	return c.disp + c.inst*c.extent + c.segs[c.idx].Off + c.intra
}

// StreamPos returns the number of data bytes preceding the current
// position: the position within the linearized data stream of the access.
func (c *Cursor) StreamPos() int64 {
	if c.done {
		if c.count < 0 {
			return 0 // unbounded cursors never finish normally
		}
		return c.count * c.size
	}
	return c.inst*c.size + c.prefix[c.idx] + c.intra
}

// advance moves past n bytes of the current segment (n must not exceed the
// remainder of the segment).
func (c *Cursor) advance(n int64) {
	c.intra += n
	if c.intra == c.segs[c.idx].Len {
		c.intra = 0
		c.idx++
		c.work++ // finished evaluating this pair
		if c.idx == len(c.segs) {
			c.idx = 0
			c.inst++
			if c.count >= 0 && c.inst >= c.count {
				c.done = true
			}
		}
	}
}

// Next consumes up to max bytes of the current contiguous run and returns
// the absolute file segment consumed along with the stream position of its
// first byte. ok is false when the cursor is exhausted or max <= 0.
func (c *Cursor) Next(max int64) (seg Seg, streamPos int64, ok bool) {
	if c.done || max <= 0 {
		return Seg{}, 0, false
	}
	streamPos = c.StreamPos()
	off := c.Offset()
	n := c.segs[c.idx].Len - c.intra
	if n > max {
		n = max
	}
	if c.limit >= 0 {
		if lr := c.limit - streamPos; n > lr {
			n = lr
		}
	}
	c.advance(n)
	if c.limit >= 0 && !c.done && c.StreamPos() >= c.limit {
		c.done = true
	}
	return Seg{off, n}, streamPos, true
}

// SeekOffset advances the cursor to the first data byte at absolute file
// offset >= off. It returns false if the access contains no such byte.
// Seeking backward is a no-op (the cursor is already past off).
func (c *Cursor) SeekOffset(off int64) bool {
	if c.done {
		return false
	}
	if off <= c.Offset() {
		return true
	}
	rel := off - c.disp
	ti := rel / c.extent
	if ti < 0 {
		ti = 0
	}
	if c.count >= 0 && ti >= c.count {
		c.done = true
		return false
	}
	if ti > c.inst {
		// Skip whole instances in O(1): one division, one pair's worth
		// of work, regardless of how many instances are skipped.
		c.inst, c.idx, c.intra = ti, 0, 0
		c.work++
	}
	// Linear scan within the instance (pair-by-pair evaluation, as the
	// paper describes for enumerated datatypes).
	for {
		instBase := c.disp + c.inst*c.extent
		for c.idx < len(c.segs) {
			s := c.segs[c.idx]
			if instBase+s.End() > off {
				// Position within (or at the start of) this segment.
				if instBase+s.Off >= off {
					c.intra = 0
				} else {
					c.intra = off - (instBase + s.Off)
				}
				if c.limit >= 0 && c.StreamPos() >= c.limit {
					c.done = true
					return false
				}
				return true
			}
			c.idx++
			c.intra = 0
			c.work++
		}
		c.idx = 0
		c.inst++
		c.work++
		if c.count >= 0 && c.inst >= c.count {
			c.done = true
			return false
		}
	}
}

// String describes the cursor position for debugging.
func (c *Cursor) String() string {
	if c.done {
		return "cursor(done)"
	}
	return fmt.Sprintf("cursor(inst=%d idx=%d intra=%d off=%d stream=%d)",
		c.inst, c.idx, c.intra, c.Offset(), c.StreamPos())
}

// Segments materializes the flattened access of count instances of t at
// disp: the full M = count*D offset/length list with coalescing across
// instance boundaries. This is the representation the original ROMIO-style
// implementation communicates; the number of pairs processed to build it is
// returned as work.
func Segments(t Type, disp int64, count int64) (segs []Seg, work int64) {
	if count < 0 {
		panic("datatype: Segments requires a bounded count")
	}
	flat := t.Flatten()
	ext := t.Extent()
	out := make([]Seg, 0, count*int64(len(flat)))
	for i := int64(0); i < count; i++ {
		instBase := disp + i*ext
		for _, s := range flat {
			off := instBase + s.Off
			if n := len(out); n > 0 && out[n-1].End() == off {
				out[n-1].Len += s.Len
			} else {
				out = append(out, Seg{off, s.Len})
			}
			work++
		}
	}
	return out, work
}

// TotalSize returns the number of data bytes in count instances of t.
func TotalSize(t Type, count int64) int64 {
	if count < 0 {
		return -1
	}
	return t.Size() * count
}
