package datatype

import (
	"encoding/binary"
	"fmt"
	"strings"
)

// Kind identifies a datatype constructor in the tree representation.
type Kind uint8

// Tree node kinds.
const (
	KindBytes Kind = iota + 1
	KindContig
	KindVector
	KindHIndexed
	KindStruct
	KindResized
	KindSubarray
	KindSegs
)

// Node is the "higher-level datatype" representation from the paper's
// Figure 3: the constructor tree itself, rather than its flattened
// offset/length pairs. For regular nested types (a vector of vectors, a
// subarray) the tree is dramatically smaller than even the flattened
// datatype, at the cost of processing to expand it; for irregular types
// (hindexed with explicit lists) it is no smaller. The paper's §5.3
// discusses exactly this storage/processing trade-off.
type Node struct {
	Kind Kind
	// A..D are kind-specific scalars:
	//   Bytes:    A=n
	//   Contig:   A=count
	//   Vector:   A=count, B=blocklen, C=stride
	//   Resized:  A=extent
	//   Subarray: A=elemSize
	//   Segs:     A=extent
	A, B, C, D int64
	// Lens/Displs carry per-block arrays (HIndexed, Struct, Segs) or the
	// sizes/subsizes arrays (Subarray).
	Lens, Displs []int64
	// Aux carries the starts array for Subarray.
	Aux []int64
	// Children holds inner types (one for Contig/Vector/HIndexed/
	// Resized; len(Lens) for Struct).
	Children []Node
}

// Tree returns the constructor tree of the type. Types built from raw
// segments report a KindSegs node.
func Tree(t Type) Node {
	if b, ok := t.(*base); ok && b.node.Kind != 0 {
		return b.node
	}
	segs := t.Flatten()
	n := Node{Kind: KindSegs, A: t.Extent(), Lens: make([]int64, len(segs)), Displs: make([]int64, len(segs))}
	for i, s := range segs {
		n.Displs[i] = s.Off
		n.Lens[i] = s.Len
	}
	return n
}

// String renders the tree as a constructor-style description.
func (n Node) String() string {
	child := func() string {
		if len(n.Children) == 0 {
			return "?"
		}
		return n.Children[0].String()
	}
	switch n.Kind {
	case KindBytes:
		return fmt.Sprintf("bytes(%d)", n.A)
	case KindContig:
		return fmt.Sprintf("contig(%d, %s)", n.A, child())
	case KindVector:
		return fmt.Sprintf("vector(%d, %d, %d, %s)", n.A, n.B, n.C, child())
	case KindHIndexed:
		return fmt.Sprintf("hindexed(%d blocks, %s)", len(n.Lens), child())
	case KindStruct:
		names := make([]string, len(n.Children))
		for i, c := range n.Children {
			names[i] = c.String()
		}
		return fmt.Sprintf("struct(%d blocks: %s)", len(n.Children), strings.Join(names, ", "))
	case KindResized:
		return fmt.Sprintf("resized(%s, %d)", child(), n.A)
	case KindSubarray:
		return fmt.Sprintf("subarray(%dd, elem=%d)", len(n.Lens), n.A)
	case KindSegs:
		return fmt.Sprintf("segs(%d)", len(n.Lens))
	}
	return fmt.Sprintf("kind(%d)", n.Kind)
}

// Build reconstructs the datatype the node describes.
func (n Node) Build() (Type, error) {
	switch n.Kind {
	case KindBytes:
		if n.A < 0 {
			return nil, fmt.Errorf("datatype: tree: negative byte size %d", n.A)
		}
		return Bytes(n.A), nil
	case KindContig:
		inner, err := n.child0()
		if err != nil {
			return nil, err
		}
		return Contiguous(n.A, inner)
	case KindVector:
		inner, err := n.child0()
		if err != nil {
			return nil, err
		}
		return Vector(n.A, n.B, n.C, inner)
	case KindHIndexed:
		inner, err := n.child0()
		if err != nil {
			return nil, err
		}
		return HIndexed(n.Lens, n.Displs, inner)
	case KindStruct:
		if len(n.Children) != len(n.Lens) || len(n.Lens) != len(n.Displs) {
			return nil, fmt.Errorf("datatype: tree: struct arity mismatch")
		}
		types := make([]Type, len(n.Children))
		for i := range n.Children {
			t, err := n.Children[i].Build()
			if err != nil {
				return nil, err
			}
			types[i] = t
		}
		return Struct(n.Lens, n.Displs, types)
	case KindResized:
		inner, err := n.child0()
		if err != nil {
			return nil, err
		}
		return Resized(inner, n.A)
	case KindSubarray:
		return Subarray(n.Lens, n.Displs, n.Aux, n.A)
	case KindSegs:
		if len(n.Lens) != len(n.Displs) {
			return nil, fmt.Errorf("datatype: tree: %d lengths for %d displacements", len(n.Lens), len(n.Displs))
		}
		segs := make([]Seg, len(n.Lens))
		for i := range segs {
			segs[i] = Seg{Off: n.Displs[i], Len: n.Lens[i]}
		}
		return FromSegs(segs, n.A)
	default:
		return nil, fmt.Errorf("datatype: tree: unknown kind %d", n.Kind)
	}
}

func (n Node) child0() (Type, error) {
	if len(n.Children) != 1 {
		return nil, fmt.Errorf("datatype: tree: kind %d wants one child, has %d", n.Kind, len(n.Children))
	}
	return n.Children[0].Build()
}

// WireBytes is the encoded size — the storage/communication cost of the
// tree representation.
func (n Node) WireBytes() int64 {
	return int64(len(n.Encode()))
}

// Encode serializes the tree (recursive fixed-width little-endian).
func (n Node) Encode() []byte {
	return n.appendTo(nil)
}

func (n Node) appendTo(buf []byte) []byte {
	buf = append(buf, byte(n.Kind))
	var tmp [8]byte
	putI64 := func(v int64) {
		binary.LittleEndian.PutUint64(tmp[:], uint64(v))
		buf = append(buf, tmp[:]...)
	}
	putI64(n.A)
	putI64(n.B)
	putI64(n.C)
	putI64(n.D)
	putArr := func(a []int64) {
		binary.LittleEndian.PutUint32(tmp[:4], uint32(len(a)))
		buf = append(buf, tmp[:4]...)
		for _, v := range a {
			putI64(v)
		}
	}
	putArr(n.Lens)
	putArr(n.Displs)
	putArr(n.Aux)
	buf = append(buf, byte(len(n.Children)))
	for _, c := range n.Children {
		buf = c.appendTo(buf)
	}
	return buf
}

// DecodeNode parses a tree encoded by Encode.
func DecodeNode(buf []byte) (Node, error) {
	n, rest, err := decodeNode(buf)
	if err != nil {
		return Node{}, err
	}
	if len(rest) != 0 {
		return Node{}, fmt.Errorf("datatype: tree: %d trailing bytes", len(rest))
	}
	return n, nil
}

func decodeNode(buf []byte) (Node, []byte, error) {
	if len(buf) < 1+4*8 {
		return Node{}, nil, fmt.Errorf("datatype: tree: short buffer")
	}
	var n Node
	n.Kind = Kind(buf[0])
	buf = buf[1:]
	getI64 := func() int64 {
		v := int64(binary.LittleEndian.Uint64(buf))
		buf = buf[8:]
		return v
	}
	n.A, n.B, n.C, n.D = getI64(), getI64(), getI64(), getI64()
	getArr := func() ([]int64, error) {
		if len(buf) < 4 {
			return nil, fmt.Errorf("datatype: tree: short array header")
		}
		c := int(binary.LittleEndian.Uint32(buf))
		buf = buf[4:]
		if len(buf) < 8*c {
			return nil, fmt.Errorf("datatype: tree: short array body")
		}
		if c == 0 {
			return nil, nil
		}
		out := make([]int64, c)
		for i := range out {
			out[i] = getI64()
		}
		return out, nil
	}
	var err error
	if n.Lens, err = getArr(); err != nil {
		return Node{}, nil, err
	}
	if n.Displs, err = getArr(); err != nil {
		return Node{}, nil, err
	}
	if n.Aux, err = getArr(); err != nil {
		return Node{}, nil, err
	}
	if len(buf) < 1 {
		return Node{}, nil, fmt.Errorf("datatype: tree: missing child count")
	}
	nc := int(buf[0])
	buf = buf[1:]
	for i := 0; i < nc; i++ {
		var c Node
		c, buf, err = decodeNode(buf)
		if err != nil {
			return Node{}, nil, err
		}
		n.Children = append(n.Children, c)
	}
	return n, buf, nil
}
