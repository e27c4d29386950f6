package main

import (
	"flexio/internal/datatype"
)

// rng is splitmix64: the benchmark's only source of randomness, so one
// -seed fixes every payload byte and the interleave's slot permutation.
type rng struct{ s uint64 }

func newRNG(seed int64, stream uint64) *rng {
	return &rng{s: uint64(seed)*0x9E3779B97F4A7C15 + stream*0xD1B54A32D192ED03 + 1}
}

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *rng) fill(b []byte) {
	for len(b) >= 8 {
		v := r.next()
		for i := 0; i < 8; i++ {
			b[i] = byte(v >> (8 * i))
		}
		b = b[8:]
	}
	if len(b) > 0 {
		v := r.next()
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
	}
}

// shape is what a workload hands the program: per-rank views, memory types
// and user buffers, plus the file image those writes must produce. The
// image is computed from offsets alone, never through the datatype package,
// so it checks the layers instead of agreeing with them.
type shape interface {
	ranks() int
	// userBytes is the useful data one collective call moves.
	userBytes() int64
	// perOpView reports whether every op installs a fresh view (a new
	// displacement and a newly built filetype) before its collective call.
	perOpView() bool
	view(rank, step int) (disp int64, filetype datatype.Type)
	memory(rank int) (memtype datatype.Type, count int64)
	// payload is rank's user buffer for the step-th op on a file.
	payload(rank, step int) []byte
	// image is the file after the first steps ops on a fresh file.
	image(steps int) []byte
}

// interleave is the HPIO-style pattern of the paper's Figs 4 and 5: every
// rank owns regionCount regions of regionSize bytes, the ranks' regions
// interleave in the file with spacing bytes between neighbours, and the
// seed decides which slot of each group a rank gets.
type interleave struct {
	p           int
	regionSize  int64
	regionCount int64
	spacing     int64
	memGap      int64 // bytes between regions in the user buffer (0 = contiguous)
	enumerate   bool  // one filetype instance listing every region (D = regionCount)

	slot []int
	// bufs[parity][rank]: ops alternate between two payload sets so a
	// write the program dropped leaves the previous set in the file.
	bufs [2][][]byte
}

func newInterleave(seed int64, p int, regionSize, regionCount, spacing, memGap int64, enumerate bool) *interleave {
	il := &interleave{p: p, regionSize: regionSize, regionCount: regionCount,
		spacing: spacing, memGap: memGap, enumerate: enumerate}
	il.slot = make([]int, p)
	for i := range il.slot {
		il.slot[i] = i
	}
	r := newRNG(seed, 0)
	for i := p - 1; i > 0; i-- {
		j := int(r.next() % uint64(i+1))
		il.slot[i], il.slot[j] = il.slot[j], il.slot[i]
	}
	for parity := range il.bufs {
		il.bufs[parity] = make([][]byte, p)
		for rank := 0; rank < p; rank++ {
			buf := make([]byte, (regionSize+memGap)*regionCount)
			rr := newRNG(seed, uint64(1+parity*p+rank))
			for i := int64(0); i < regionCount; i++ {
				at := i * (regionSize + memGap)
				rr.fill(buf[at : at+regionSize])
			}
			il.bufs[parity][rank] = buf
		}
	}
	return il
}

func (il *interleave) ranks() int       { return il.p }
func (il *interleave) userBytes() int64 { return int64(il.p) * il.regionSize * il.regionCount }
func (il *interleave) perOpView() bool  { return false }
func (il *interleave) stride() int64    { return (il.regionSize + il.spacing) * int64(il.p) }

func (il *interleave) view(rank, _ int) (int64, datatype.Type) {
	disp := int64(il.slot[rank]) * (il.regionSize + il.spacing)
	if !il.enumerate {
		return disp, datatype.Must(datatype.Resized(datatype.Bytes(il.regionSize), il.stride()))
	}
	lens := make([]int64, il.regionCount)
	displs := make([]int64, il.regionCount)
	for i := range lens {
		lens[i] = 1
		displs[i] = int64(i) * il.stride()
	}
	return disp, datatype.Must(datatype.HIndexed(lens, displs, datatype.Bytes(il.regionSize)))
}

func (il *interleave) memory(int) (datatype.Type, int64) {
	if il.memGap == 0 {
		return datatype.Bytes(il.regionSize), il.regionCount
	}
	return datatype.Must(datatype.Resized(datatype.Bytes(il.regionSize), il.regionSize+il.memGap)), il.regionCount
}

func (il *interleave) payload(rank, step int) []byte { return il.bufs[step%2][rank] }

func (il *interleave) image(steps int) []byte {
	size := il.stride()*(il.regionCount-1) + int64(il.p-1)*(il.regionSize+il.spacing) + il.regionSize
	img := make([]byte, size)
	if steps == 0 {
		return img
	}
	for rank := 0; rank < il.p; rank++ {
		buf := il.payload(rank, steps-1)
		for i := int64(0); i < il.regionCount; i++ {
			off := i*il.stride() + int64(il.slot[rank])*(il.regionSize+il.spacing)
			at := i * (il.regionSize + il.memGap)
			copy(img[off:off+il.regionSize], buf[at:at+il.regionSize])
		}
	}
	return img
}

// checkpoint is the paper's Fig 7 time-step pattern: every data point
// keeps slots time steps of elems elements together, and step t writes
// slot t of every point, with the elements dealt round-robin to the ranks.
// Each op therefore has a displacement and a filetype nobody has seen.
type checkpoint struct {
	p        int
	elemSize int64
	elems    int64
	points   int64
	slots    int

	// base[rank] is one random stream; step t writes the window starting
	// at t*payloadShift, so every step's bytes differ without holding
	// slots full buffers.
	base [][]byte
}

// payloadShift is odd and larger than an element, so the windows of two
// steps never line up on element boundaries.
const payloadShift = 61

func newCheckpoint(seed int64, p int, elemSize, elems, points int64, slots int) *checkpoint {
	c := &checkpoint{p: p, elemSize: elemSize, elems: elems, points: points, slots: slots}
	c.base = make([][]byte, p)
	for rank := range c.base {
		c.base[rank] = make([]byte, c.mine(rank)*points+int64(slots-1)*payloadShift)
		newRNG(seed, uint64(1+rank)).fill(c.base[rank])
	}
	return c
}

// owned is how many of a point's elements the rank writes.
func (c *checkpoint) owned(rank int) int64 {
	return (c.elems - int64(rank) + int64(c.p) - 1) / int64(c.p)
}

// mine is the rank's bytes per data point.
func (c *checkpoint) mine(rank int) int64 { return c.owned(rank) * c.elemSize }

func (c *checkpoint) slotSize() int64    { return c.elems * c.elemSize }
func (c *checkpoint) pointExtent() int64 { return int64(c.slots) * c.slotSize() }
func (c *checkpoint) ranks() int         { return c.p }
func (c *checkpoint) userBytes() int64   { return c.points * c.slotSize() }
func (c *checkpoint) perOpView() bool    { return true }

func (c *checkpoint) view(rank, step int) (int64, datatype.Type) {
	n := c.owned(rank)
	lens := make([]int64, n)
	displs := make([]int64, n)
	for i := range lens {
		lens[i] = 1
		displs[i] = (int64(rank) + int64(i)*int64(c.p)) * c.elemSize
	}
	pattern := datatype.Must(datatype.HIndexed(lens, displs, datatype.Bytes(c.elemSize)))
	return int64(step) * c.slotSize(), datatype.Must(datatype.Resized(pattern, c.pointExtent()))
}

func (c *checkpoint) memory(rank int) (datatype.Type, int64) {
	return datatype.Bytes(c.mine(rank)), c.points
}

func (c *checkpoint) payload(rank, step int) []byte {
	at := int64(step) * payloadShift
	return c.base[rank][at : at+c.mine(rank)*c.points]
}

func (c *checkpoint) image(steps int) []byte {
	img := make([]byte, c.points*c.pointExtent())
	for rank := 0; rank < c.p; rank++ {
		n := c.owned(rank)
		for step := 0; step < steps; step++ {
			buf := c.payload(rank, step)
			for pt := int64(0); pt < c.points; pt++ {
				for i := int64(0); i < n; i++ {
					off := pt*c.pointExtent() + int64(step)*c.slotSize() + (int64(rank)+i*int64(c.p))*c.elemSize
					at := (pt*n + i) * c.elemSize
					copy(img[off:off+c.elemSize], buf[at:at+c.elemSize])
				}
			}
		}
	}
	return img
}
