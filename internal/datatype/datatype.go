// Package datatype implements an MPI-style derived datatype engine: the
// constructors of MPI-2 (contiguous, vector, indexed, hindexed, struct,
// resized, subarray), flattening into offset/length pairs, streaming cursors
// over tiled datatypes with instance skipping, and a wire codec for
// exchanging flattened datatypes between processes.
//
// A Type describes a pattern of bytes within a span called its extent. A
// file view or a file realm tiles the pattern: instance i occupies
// [disp+i*Extent(), disp+(i+1)*Extent()). Size() is the number of actual
// data bytes per instance; Extent()-Size() is "gap" space.
//
// The package distinguishes two representations that the paper's Section
// 5.3 compares:
//
//   - the flattened datatype: the D offset/length pairs of ONE instance
//     (what the new implementation communicates), and
//   - the flattened access: all M = count*D pairs of an entire access
//     (what the original ROMIO implementation communicates).
package datatype

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// Seg is one contiguous byte range: offsets are relative to the start of a
// datatype instance (or absolute file offsets, where documented).
type Seg struct {
	Off int64
	Len int64
}

// End returns the first offset past the segment.
func (s Seg) End() int64 { return s.Off + s.Len }

// SplitSegs cuts a segment list at n data bytes: head covers the first n
// bytes of the concatenated data stream, tail the remainder. A segment
// straddling the cut is split; the input is never mutated. n <= 0 yields
// (nil, segs); n >= the total yields (segs, nil).
func SplitSegs(segs []Seg, n int64) (head, tail []Seg) {
	if n <= 0 {
		return nil, segs
	}
	var acc int64
	for i, s := range segs {
		if acc+s.Len < n {
			acc += s.Len
			continue
		}
		if acc+s.Len == n {
			return segs[:i+1], segs[i+1:]
		}
		// Straddler: split without touching the shared backing array.
		cut := n - acc
		head = append(append(head, segs[:i]...), Seg{Off: s.Off, Len: cut})
		tail = append(tail, Seg{Off: s.Off + cut, Len: s.Len - cut})
		tail = append(tail, segs[i+1:]...)
		return head, tail
	}
	return segs, nil
}

// Type is an immutable derived datatype.
type Type interface {
	// Size is the number of data bytes in one instance.
	Size() int64
	// Extent is the span one instance occupies when tiled.
	Extent() int64
	// NumSegs is D: the number of contiguous segments per instance after
	// flattening and coalescing.
	NumSegs() int64
	// Flatten returns the canonical flattened form of one instance:
	// sorted, disjoint, coalesced segments relative to instance start.
	// The returned slice must not be modified.
	Flatten() []Seg
	// String returns a human-readable constructor-style description.
	String() string
}

// base carries the memoized flattened representation shared by all concrete
// types.
type base struct {
	segs   []Seg
	size   int64
	extent int64
	node   Node // constructor tree (zero Kind when built from raw segments)
}

func (b *base) Size() int64    { return b.size }
func (b *base) Extent() int64  { return b.extent }
func (b *base) NumSegs() int64 { return int64(len(b.segs)) }
func (b *base) Flatten() []Seg { return b.segs }

// String returns the constructor's description. Types are built on hot
// paths (realm assignment makes a Bytes per aggregator per call, a checkpoint
// loop a new view per step), so nothing is formatted until someone asks.
func (b *base) String() string {
	if b.node.Kind == 0 {
		return fmt.Sprintf("segs(%d)", len(b.segs))
	}
	return b.node.String()
}

// normalize sorts, validates, and coalesces raw segments into a new slice.
// Zero-length segments are dropped. Overlapping segments are an error (MPI
// forbids overlapping writes; we reject the type eagerly to catch workload
// bugs). Constructors emit segments in offset order almost always, so the
// order is checked while copying and the sort runs only when it is needed.
func normalize(raw []Seg) ([]Seg, int64, error) {
	segs := make([]Seg, 0, len(raw))
	sorted := true
	for _, s := range raw {
		if s.Len < 0 {
			return nil, 0, fmt.Errorf("datatype: negative segment length %d", s.Len)
		}
		if s.Off < 0 {
			return nil, 0, fmt.Errorf("datatype: negative segment offset %d", s.Off)
		}
		if s.Len > math.MaxInt64-s.Off {
			return nil, 0, fmt.Errorf("datatype: segment at %d of %d bytes ends beyond the offset range", s.Off, s.Len)
		}
		if s.Len == 0 {
			continue
		}
		if n := len(segs); n > 0 && s.Off < segs[n-1].Off {
			sorted = false
		}
		segs = append(segs, s)
	}
	if !sorted {
		slices.SortFunc(segs, func(a, b Seg) int { return cmp.Compare(a.Off, b.Off) })
	}
	out := segs[:0]
	var size int64
	for _, s := range segs {
		if n := len(out); n > 0 {
			prev := &out[n-1]
			if s.Off < prev.End() {
				return nil, 0, fmt.Errorf("datatype: overlapping segments [%d,%d) and [%d,%d)",
					prev.Off, prev.End(), s.Off, s.End())
			}
			if s.Off == prev.End() {
				prev.Len += s.Len
				size += s.Len
				continue
			}
		}
		out = append(out, s)
		size += s.Len
	}
	return out, size, nil
}

// newBase builds the type a constructor describes by node from its raw
// segments.
func newBase(raw []Seg, extent int64, node Node) (Type, error) {
	segs, size, err := normalize(raw)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", node, err)
	}
	if extent < 0 {
		return nil, fmt.Errorf("%s: negative extent %d", node, extent)
	}
	if n := len(segs); n > 0 {
		if segs[n-1].End() > extent {
			return nil, fmt.Errorf("%s: segments span %d bytes, beyond extent %d (tiled instances would overlap)",
				node, segs[n-1].End(), extent)
		}
	}
	return &base{segs: segs, size: size, extent: extent, node: node}, nil
}

// Bytes returns an elementary datatype of n contiguous bytes.
func Bytes(n int64) Type {
	if n < 0 {
		panic(fmt.Sprintf("datatype: Bytes(%d): negative size", n))
	}
	var segs []Seg
	if n > 0 {
		segs = []Seg{{0, n}}
	}
	return &base{segs: segs, size: n, extent: n, node: Node{Kind: KindBytes, A: n}}
}

// Contiguous replicates inner count times back to back
// (MPI_Type_contiguous).
func Contiguous(count int64, inner Type) (Type, error) {
	if count < 0 {
		return nil, fmt.Errorf("datatype: contiguous: negative count %d", count)
	}
	ext := inner.Extent()
	raw := make([]Seg, 0, count*inner.NumSegs())
	for i := int64(0); i < count; i++ {
		for _, s := range inner.Flatten() {
			raw = append(raw, Seg{s.Off + i*ext, s.Len})
		}
	}
	return newBase(raw, count*ext, Node{Kind: KindContig, A: count, Children: []Node{Tree(inner)}})
}

// Vector is MPI_Type_vector with byte-granular stride semantics of
// MPI_Type_hvector: count blocks of blocklen inner instances, block i
// starting at i*stride bytes. stride must be >= blocklen*inner.Extent() (no
// overlap) and the extent is (count-1)*stride + blocklen*inner.Extent().
func Vector(count, blocklen int64, stride int64, inner Type) (Type, error) {
	if count < 0 || blocklen < 0 {
		return nil, fmt.Errorf("datatype: vector: negative count %d or blocklen %d", count, blocklen)
	}
	iext := inner.Extent()
	raw := make([]Seg, 0, count*blocklen*inner.NumSegs())
	for i := int64(0); i < count; i++ {
		blockStart := i * stride
		for j := int64(0); j < blocklen; j++ {
			for _, s := range inner.Flatten() {
				raw = append(raw, Seg{blockStart + j*iext + s.Off, s.Len})
			}
		}
	}
	var ext int64
	if count > 0 {
		ext = (count-1)*stride + blocklen*iext
	}
	return newBase(raw, ext, Node{Kind: KindVector, A: count, B: blocklen, C: stride, Children: []Node{Tree(inner)}})
}

// Indexed is MPI_Type_indexed with displacements and block lengths in units
// of the inner type's extent.
func Indexed(blocklens, displs []int64, inner Type) (Type, error) {
	if len(blocklens) != len(displs) {
		return nil, fmt.Errorf("datatype: indexed: %d blocklens vs %d displs", len(blocklens), len(displs))
	}
	iext := inner.Extent()
	hd := make([]int64, len(displs))
	for i := range displs {
		hd[i] = displs[i] * iext
	}
	return HIndexed(blocklens, hd, inner)
}

// HIndexed is MPI_Type_create_hindexed: displacements in bytes, block
// lengths in units of inner instances.
func HIndexed(blocklens, byteDispls []int64, inner Type) (Type, error) {
	if len(blocklens) != len(byteDispls) {
		return nil, fmt.Errorf("datatype: hindexed: %d blocklens vs %d displs", len(blocklens), len(byteDispls))
	}
	var blocks int64
	for _, n := range blocklens {
		if n < 0 {
			return nil, fmt.Errorf("datatype: hindexed: negative blocklen %d", n)
		}
		blocks += n
	}
	iext := inner.Extent()
	raw := make([]Seg, 0, blocks*inner.NumSegs())
	ext := int64(0)
	for i := range blocklens {
		for j := int64(0); j < blocklens[i]; j++ {
			for _, s := range inner.Flatten() {
				raw = append(raw, Seg{byteDispls[i] + j*iext + s.Off, s.Len})
			}
		}
		if end := byteDispls[i] + blocklens[i]*iext; end > ext {
			ext = end
		}
	}
	return newBase(raw, ext, Node{
		Kind:     KindHIndexed,
		Lens:     append([]int64(nil), blocklens...),
		Displs:   append([]int64(nil), byteDispls...),
		Children: []Node{Tree(inner)},
	})
}

// Struct is MPI_Type_create_struct: heterogeneous blocks at byte
// displacements.
func Struct(blocklens []int64, byteDispls []int64, types []Type) (Type, error) {
	if len(blocklens) != len(byteDispls) || len(blocklens) != len(types) {
		return nil, fmt.Errorf("datatype: struct: mismatched lengths (%d, %d, %d)",
			len(blocklens), len(byteDispls), len(types))
	}
	var raw []Seg
	ext := int64(0)
	for i := range types {
		if blocklens[i] < 0 {
			return nil, fmt.Errorf("datatype: struct: negative blocklen %d", blocklens[i])
		}
		iext := types[i].Extent()
		for j := int64(0); j < blocklens[i]; j++ {
			for _, s := range types[i].Flatten() {
				raw = append(raw, Seg{byteDispls[i] + j*iext + s.Off, s.Len})
			}
		}
		if end := byteDispls[i] + blocklens[i]*iext; end > ext {
			ext = end
		}
	}
	children := make([]Node, len(types))
	for i, ty := range types {
		children[i] = Tree(ty)
	}
	return newBase(raw, ext, Node{
		Kind:     KindStruct,
		Lens:     append([]int64(nil), blocklens...),
		Displs:   append([]int64(nil), byteDispls...),
		Children: children,
	})
}

// Resized is MPI_Type_create_resized: the same data pattern with an
// overridden extent (commonly used to shrink or pad the tiling period).
// The new extent must still contain every segment.
func Resized(inner Type, extent int64) (Type, error) {
	segs := inner.Flatten()
	if n := len(segs); n > 0 && segs[n-1].End() > extent {
		return nil, fmt.Errorf("datatype: resized(%s, %d): segments end at %d beyond new extent",
			inner, extent, segs[n-1].End())
	}
	if extent < 0 {
		return nil, fmt.Errorf("datatype: resized: negative extent %d", extent)
	}
	return &base{
		segs:   segs,
		size:   inner.Size(),
		extent: extent,
		node:   Node{Kind: KindResized, A: extent, Children: []Node{Tree(inner)}},
	}, nil
}

// Subarray is MPI_Type_create_subarray for a row-major n-dimensional array
// of elemSize-byte elements: it selects the block starting at `starts` of
// shape `subsizes` out of an array of shape `sizes`.
func Subarray(sizes, subsizes, starts []int64, elemSize int64) (Type, error) {
	n := len(sizes)
	if len(subsizes) != n || len(starts) != n {
		return nil, fmt.Errorf("datatype: subarray: dimension mismatch")
	}
	if n == 0 {
		return nil, fmt.Errorf("datatype: subarray: zero dimensions")
	}
	if elemSize <= 0 {
		return nil, fmt.Errorf("datatype: subarray: elemSize must be positive, got %d", elemSize)
	}
	for d := 0; d < n; d++ {
		if sizes[d] <= 0 || subsizes[d] < 0 || starts[d] < 0 || starts[d]+subsizes[d] > sizes[d] {
			return nil, fmt.Errorf("datatype: subarray: dim %d out of range (size=%d sub=%d start=%d)",
				d, sizes[d], subsizes[d], starts[d])
		}
	}
	// Row-major strides in bytes.
	strides := make([]int64, n)
	strides[n-1] = elemSize
	for d := n - 2; d >= 0; d-- {
		strides[d] = strides[d+1] * sizes[d+1]
	}
	rowLen := subsizes[n-1] * elemSize
	var raw []Seg
	var walk func(d int, off int64)
	walk = func(d int, off int64) {
		if d == n-1 {
			raw = append(raw, Seg{off + starts[d]*elemSize, rowLen})
			return
		}
		for i := int64(0); i < subsizes[d]; i++ {
			walk(d+1, off+(starts[d]+i)*strides[d])
		}
	}
	walk(0, 0)
	return newBase(raw, strides[0]*sizes[0], Node{
		Kind:   KindSubarray,
		A:      elemSize,
		Lens:   append([]int64(nil), sizes...),
		Displs: append([]int64(nil), subsizes...),
		Aux:    append([]int64(nil), starts...),
	})
}

// FromSegs builds a datatype directly from raw segments (relative to 0)
// with the given extent; extent <= 0 means "tight" (end of last segment).
func FromSegs(raw []Seg, extent int64) (Type, error) {
	segs, size, err := normalize(raw)
	if err != nil {
		return nil, err
	}
	if extent <= 0 {
		if len(segs) > 0 {
			extent = segs[len(segs)-1].End()
		} else {
			extent = 0
		}
	}
	if len(segs) > 0 && segs[len(segs)-1].End() > extent {
		return nil, fmt.Errorf("datatype: FromSegs: extent %d smaller than span %d",
			extent, segs[len(segs)-1].End())
	}
	return &base{segs: segs, size: size, extent: extent}, nil
}

// Must panics if err is non-nil; it is a convenience for tests and
// examples building statically known-valid datatypes.
func Must(t Type, err error) Type {
	if err != nil {
		panic(err)
	}
	return t
}
