package datatype

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
)

// treeRoundTrip checks Build(Decode(Encode(Tree(t)))) reproduces the type's
// flattened form.
func treeRoundTrip(t *testing.T, ty Type) {
	t.Helper()
	n := Tree(ty)
	dec, err := DecodeNode(n.Encode())
	if err != nil {
		t.Fatalf("%s: decode: %v", ty, err)
	}
	if !reflect.DeepEqual(n, dec) {
		t.Fatalf("%s: tree round trip mismatch:\n  %+v\n  %+v", ty, n, dec)
	}
	back, err := dec.Build()
	if err != nil {
		t.Fatalf("%s: build: %v", ty, err)
	}
	if !reflect.DeepEqual(back.Flatten(), ty.Flatten()) {
		t.Fatalf("%s: rebuilt type flattens differently", ty)
	}
	if back.Extent() != ty.Extent() || back.Size() != ty.Size() {
		t.Fatalf("%s: rebuilt extent/size differ", ty)
	}
}

func TestTreeRoundTripConstructors(t *testing.T) {
	inner := Must(Vector(3, 1, 24, Bytes(8)))
	for _, ty := range []Type{
		Bytes(16),
		Bytes(0),
		Must(Contiguous(5, Bytes(8))),
		Must(Vector(4, 2, 48, Bytes(8))),
		Must(Indexed([]int64{1, 2}, []int64{0, 3}, Bytes(4))),
		Must(HIndexed([]int64{1, 1}, []int64{100, 0}, Bytes(4))),
		Must(Struct([]int64{1, 1}, []int64{0, 64}, []Type{Bytes(4), inner})),
		Must(Resized(Bytes(8), 40)),
		Must(Subarray([]int64{4, 6}, []int64{2, 3}, []int64{1, 2}, 4)),
		Must(Vector(8, 1, 1024, Must(Vector(4, 1, 64, Bytes(16))))), // nested
	} {
		treeRoundTrip(t, ty)
	}
}

func TestTreeFromSegsFallsBack(t *testing.T) {
	ty := Must(FromSegs([]Seg{{0, 4}, {10, 6}}, 20))
	n := Tree(ty)
	if n.Kind != KindSegs {
		t.Fatalf("kind = %d, want KindSegs", n.Kind)
	}
	treeRoundTrip(t, ty)
}

func TestTreeIsCompactForNestedTypes(t *testing.T) {
	// Paper Figure 3's point: for regular nested patterns the
	// higher-level datatype is far smaller than the flattened datatype,
	// which itself is far smaller than the flattened access.
	nested := Must(Vector(64, 1, 8192, Must(Vector(64, 1, 64, Bytes(16)))))
	tree := Tree(nested).WireBytes()
	flatDT := FlatOf(nested, 0, 1).WireBytes()
	if tree*20 > flatDT {
		t.Fatalf("tree %dB not << flattened datatype %dB (D=%d)", tree, flatDT, nested.NumSegs())
	}
	// For an irregular hindexed list the tree carries the same arrays —
	// no free lunch.
	lens := make([]int64, 100)
	displs := make([]int64, 100)
	for i := range lens {
		lens[i] = 1
		displs[i] = int64(i) * 48
	}
	irregular := Must(HIndexed(lens, displs, Bytes(16)))
	it := Tree(irregular).WireBytes()
	id := FlatOf(irregular, 0, 1).WireBytes()
	if it < id/2 {
		t.Fatalf("irregular tree %dB unexpectedly much smaller than flat %dB", it, id)
	}
}

func TestDecodeNodeErrors(t *testing.T) {
	if _, err := DecodeNode(nil); err == nil {
		t.Fatal("nil accepted")
	}
	enc := Tree(Bytes(8)).Encode()
	if _, err := DecodeNode(enc[:len(enc)-1]); err == nil {
		t.Fatal("truncated accepted")
	}
	if _, err := DecodeNode(append(enc, 7)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
	bad := Node{Kind: Kind(99)}
	if _, err := bad.Build(); err == nil {
		t.Fatal("unknown kind built")
	}
	if _, err := (Node{Kind: KindVector}).Build(); err == nil {
		t.Fatal("vector without child built")
	}
}

func TestQuickTreeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		ty := genType(rng)
		treeRoundTrip(t, ty)
	}
}

// FuzzDecodeNode: whatever bytes arrive as a tree request, decoding either
// fails or yields a node that encodes back to the same bytes, and building
// it fails or yields a type that survives the round trip through its own
// tree. Only small trees are built: a count is a claim, not memory yet.
func FuzzDecodeNode(f *testing.F) {
	inner := Must(Vector(3, 1, 24, Bytes(8)))
	for _, ty := range []Type{
		Bytes(16),
		Bytes(0),
		Must(Contiguous(5, Bytes(8))),
		Must(Vector(4, 2, 48, Bytes(8))),
		Must(HIndexed([]int64{1, 1}, []int64{100, 0}, Bytes(4))),
		Must(Struct([]int64{1, 1}, []int64{0, 64}, []Type{Bytes(4), inner})),
		Must(Resized(Bytes(8), 40)),
		Must(Subarray([]int64{4, 6}, []int64{2, 3}, []int64{1, 2}, 4)),
		Must(FromSegs([]Seg{{0, 4}, {16, 8}}, 32)),
	} {
		f.Add(Tree(ty).Encode())
	}
	enc := Tree(Bytes(8)).Encode()
	f.Add(enc[:len(enc)-1])                   // truncated
	f.Add(append(enc[:len(enc):len(enc)], 7)) // trailing byte
	f.Add(Node{Kind: Kind(99)}.Encode())      // unknown kind
	f.Add(Node{Kind: KindVector}.Encode())    // no child
	f.Add(Node{Kind: KindContig, A: -3, Children: []Node{{Kind: KindBytes, A: 8}}}.Encode())

	var small func(n Node, depth int) bool
	small = func(n Node, depth int) bool {
		ok := func(v int64) bool { return v >= -64 && v <= 64 }
		if depth > 3 || !ok(n.A) || !ok(n.B) || !ok(n.C) || !ok(n.D) || len(n.Children) > 3 {
			return false
		}
		for _, arr := range [][]int64{n.Lens, n.Displs, n.Aux} {
			if len(arr) > 3 {
				return false
			}
			for _, v := range arr {
				if !ok(v) {
					return false
				}
			}
		}
		for _, c := range n.Children {
			if !small(c, depth+1) {
				return false
			}
		}
		return true
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		n, err := DecodeNode(data)
		if err != nil {
			return
		}
		if back := n.Encode(); !bytes.Equal(back, data) {
			t.Fatalf("decoded node encodes to %x, came from %x", back, data)
		}
		if !small(n, 0) {
			return
		}
		ty, err := n.Build()
		if err != nil {
			return
		}
		again, err := DecodeNode(Tree(ty).Encode())
		if err != nil {
			t.Fatalf("tree of the built type does not decode: %v", err)
		}
		rebuilt, err := again.Build()
		if err != nil {
			t.Fatalf("tree of the built type does not build: %v", err)
		}
		if !reflect.DeepEqual(rebuilt.Flatten(), ty.Flatten()) || rebuilt.Extent() != ty.Extent() {
			t.Fatalf("type %s changed across its own tree", ty)
		}
	})
}
