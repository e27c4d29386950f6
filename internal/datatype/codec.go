package datatype

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// Flat is the wire representation of a tiled datatype access: the flattened
// datatype (D segments of one instance) plus the tiling parameters. This is
// what the new collective I/O implementation communicates between clients
// and aggregators — O(D) space instead of the O(M) flattened access.
type Flat struct {
	Disp   int64
	Extent int64
	Size   int64
	Count  int64 // -1 = unbounded
	Limit  int64 // cap on data bytes (-1 = none); clips a partial final instance
	Segs   []Seg
}

// FlatOf captures the wire form of count instances of t at disp, with no
// data limit.
func FlatOf(t Type, disp, count int64) Flat {
	return Flat{
		Disp:   disp,
		Extent: t.Extent(),
		Size:   t.Size(),
		Count:  count,
		Limit:  -1,
		Segs:   t.Flatten(),
	}
}

// Cursor builds a streaming cursor over the access the Flat describes. It
// panics on a Flat no datatype could have produced; one decoded by DecodeFlat
// is never that.
func (f Flat) Cursor() *Cursor {
	c := new(Cursor)
	if err := f.CursorInto(c); err != nil {
		panic(fmt.Sprintf("datatype: invalid Flat: %v", err))
	}
	return c
}

// CursorInto is Cursor into caller-owned memory: c becomes the cursor over
// f's access, keeping its prefix table's memory (see Cursor.Init). The cursor
// reads f.Segs in place when they are in normal form, so they must stay
// untouched while it is in use.
func (f Flat) CursorInto(c *Cursor) error {
	segs, size, extent, err := f.normalSegs()
	if err != nil {
		return err
	}
	c.init(segs, size, extent, f.Disp, f.Count)
	if f.Limit >= 0 {
		c.SetLimit(f.Limit)
	}
	return nil
}

// normalSegs returns f's segments in the normal form a Type keeps (sorted,
// disjoint, coalesced, none empty) with their total size and the tiling
// extent, or the error FromSegs(f.Segs, f.Extent) gives. Segments already in
// that form, which is what every encoder sends, are recognised in one pass
// and returned as they are: no copy, no sort.
func (f Flat) normalSegs() (segs []Seg, size, extent int64, err error) {
	segs = f.Segs
	if size, err = checkNormal(segs); err != nil {
		if segs, size, err = normalize(f.Segs); err != nil {
			return nil, 0, 0, err
		}
	}
	var span int64
	if n := len(segs); n > 0 {
		span = segs[n-1].End()
	}
	if extent = f.Extent; extent <= 0 {
		extent = span
	}
	if span > extent {
		return nil, 0, 0, fmt.Errorf("datatype: extent %d smaller than span %d", extent, span)
	}
	return segs, size, extent, nil
}

// Touches reports whether the access f has a data byte, a segment edge or an
// instance start in [a, b] (a <= b): the places where an intersection's walk
// over f can change course. Every segment of every instance counts, the data
// limit aside, and so does the start of instance Count, where the access ends.
// f's segments must be in normal form (FlatOf, DecodeFlat).
func (f Flat) Touches(a, b int64) bool {
	n := len(f.Segs)
	if n == 0 || f.Count == 0 || b < f.Disp {
		return false
	}
	if a <= f.Disp {
		return true
	}
	ext := f.Extent
	if ext <= 0 {
		ext = f.Segs[n-1].End()
	}
	// i is the first instance starting at or after a.
	i := (a - f.Disp + ext - 1) / ext
	if f.Count >= 0 && i > f.Count {
		return false
	}
	base := f.Disp + (i-1)*ext
	if base+ext <= b {
		return true
	}
	// [a, b] lies inside instance i-1: find its first segment ending at or
	// after a.
	k, _ := slices.BinarySearchFunc(f.Segs, a-base, func(s Seg, at int64) int { return cmp.Compare(s.End(), at) })
	return k < n && base+f.Segs[k].Off <= b
}

// WireBytes returns the encoded size in bytes, the quantity the cost model
// charges for communicating the access description.
func (f Flat) WireBytes() int64 {
	return int64(5*8 + 4 + 16*len(f.Segs))
}

// Encode serializes the Flat into a byte slice (fixed-width little-endian;
// the simulated network carries real bytes so sizes feed the cost model).
func (f Flat) Encode() []byte { return f.AppendEncode(nil) }

// AppendEncode is Encode onto dst, which is returned extended: a caller that
// keeps its last encoding's buffer encodes the next one into it.
func (f Flat) AppendEncode(dst []byte) []byte {
	dst, buf := extend(dst, int(f.WireBytes()))
	binary.LittleEndian.PutUint64(buf[0:], uint64(f.Disp))
	binary.LittleEndian.PutUint64(buf[8:], uint64(f.Extent))
	binary.LittleEndian.PutUint64(buf[16:], uint64(f.Size))
	binary.LittleEndian.PutUint64(buf[24:], uint64(f.Count))
	binary.LittleEndian.PutUint64(buf[32:], uint64(f.Limit))
	binary.LittleEndian.PutUint32(buf[40:], uint32(len(f.Segs)))
	putPairs(buf[44:], f.Segs)
	return dst
}

// extend grows dst by n bytes and returns it with the new tail.
func extend(dst []byte, n int) (all, tail []byte) {
	at := len(dst)
	all = slices.Grow(dst, n)[:at+n]
	return all, all[at:]
}

// putPairs encodes segs as 16-byte offset/length pairs into buf.
func putPairs(buf []byte, segs []Seg) {
	p := 0
	for _, s := range segs {
		binary.LittleEndian.PutUint64(buf[p:], uint64(s.Off))
		binary.LittleEndian.PutUint64(buf[p+8:], uint64(s.Len))
		p += 16
	}
}

// DecodeFlat parses a Flat encoded by Encode. The bytes come from another
// process, so the segments are validated here (the check Cursor would make,
// as an error): a Flat this returns always yields a cursor.
func DecodeFlat(buf []byte) (Flat, error) {
	f, _, err := DecodeFlatAppend(buf, nil)
	return f, err
}

// DecodeFlatAppend is DecodeFlat with the segments appended to arena, which
// is returned extended: an aggregator decodes every client's request into
// one block. Flats decoded earlier keep their segments when arena grows.
func DecodeFlatAppend(buf []byte, arena []Seg) (Flat, []Seg, error) {
	if len(buf) < 44 {
		return Flat{}, arena, fmt.Errorf("datatype: DecodeFlat: short buffer (%d bytes)", len(buf))
	}
	f := Flat{
		Disp:   int64(binary.LittleEndian.Uint64(buf[0:])),
		Extent: int64(binary.LittleEndian.Uint64(buf[8:])),
		Size:   int64(binary.LittleEndian.Uint64(buf[16:])),
		Count:  int64(binary.LittleEndian.Uint64(buf[24:])),
		Limit:  int64(binary.LittleEndian.Uint64(buf[32:])),
	}
	n := int(binary.LittleEndian.Uint32(buf[40:]))
	if len(buf) != 44+16*n {
		return Flat{}, arena, fmt.Errorf("datatype: DecodeFlat: want %d bytes for %d segs, have %d",
			44+16*n, n, len(buf))
	}
	at := len(arena)
	arena = appendPairs(arena, buf[44:])
	f.Segs = arena[at:len(arena):len(arena)]
	segs, _, _, err := f.normalSegs()
	if err != nil {
		return Flat{}, arena[:at], fmt.Errorf("datatype: DecodeFlat: %w", err)
	}
	f.Segs = segs
	return f, arena, nil
}

// EncodeSegs serializes a flattened access (absolute offset/length pairs) —
// the representation the original implementation exchanges. 16 bytes per
// pair, so the wire cost is O(M).
func EncodeSegs(segs []Seg) []byte { return AppendSegsEncoding(nil, segs) }

// AppendSegsEncoding is EncodeSegs onto dst, which is returned extended.
func AppendSegsEncoding(dst []byte, segs []Seg) []byte {
	dst, buf := extend(dst, 4+16*len(segs))
	binary.LittleEndian.PutUint32(buf, uint32(len(segs)))
	putPairs(buf[4:], segs)
	return dst
}

// appendPairs decodes the 16-byte offset/length pairs buf consists of onto
// arena.
func appendPairs(arena []Seg, buf []byte) []Seg {
	arena = slices.Grow(arena, len(buf)/16)
	for p := 0; p < len(buf); p += 16 {
		arena = append(arena, Seg{
			Off: int64(binary.LittleEndian.Uint64(buf[p:])),
			Len: int64(binary.LittleEndian.Uint64(buf[p+8:])),
		})
	}
	return arena
}

// checkNormal makes the one linear pass that recognises a segment list in
// normal form (sorted, disjoint, coalesced, no segment empty, negative or
// ending past the offset range) and returns its total size, or says which
// pair breaks the form.
func checkNormal(segs []Seg) (size int64, err error) {
	for i, s := range segs {
		switch {
		case s.Off < 0 || s.Len <= 0:
			return 0, fmt.Errorf("datatype: pair %d: offset %d, length %d", i, s.Off, s.Len)
		case s.Len > math.MaxInt64-s.Off:
			return 0, fmt.Errorf("datatype: pair %d: end of [%d,+%d) overflows", i, s.Off, s.Len)
		case i > 0 && s.Off <= segs[i-1].End():
			return 0, fmt.Errorf("datatype: pair %d at %d is not past pair %d ending at %d", i, s.Off, i-1, segs[i-1].End())
		}
		size += s.Len
	}
	return size, nil
}

// DecodeSegs parses a flattened access encoded by EncodeSegs. The bytes come
// from another process, so the list is validated here: what this returns is
// in normal form (see DecodeSegsAppend).
func DecodeSegs(buf []byte) ([]Seg, error) {
	return DecodeSegsAppend(buf, nil)
}

// DecodeSegsAppend is DecodeSegs with the segments appended to arena, which
// is returned extended (and as it was on an error): an aggregator decodes
// every client's request into one block. Unlike a Flat, whose segments may
// arrive in any order, a flattened access is sent sorted and coalesced, so
// one that is not in normal form is refused, not repaired: negative or empty
// pairs, pairs out of order, overlapping or touching, an end that overflows.
func DecodeSegsAppend(buf []byte, arena []Seg) ([]Seg, error) {
	if len(buf) < 4 {
		return arena, fmt.Errorf("datatype: DecodeSegs: short buffer (%d bytes)", len(buf))
	}
	n := int(binary.LittleEndian.Uint32(buf))
	if len(buf) != 4+16*n {
		return arena, fmt.Errorf("datatype: DecodeSegs: want %d bytes for %d segs, have %d",
			4+16*n, n, len(buf))
	}
	at := len(arena)
	arena = appendPairs(arena, buf[4:])
	if _, err := checkNormal(arena[at:]); err != nil {
		return arena[:at], fmt.Errorf("datatype: DecodeSegs: %w", err)
	}
	return arena, nil
}
