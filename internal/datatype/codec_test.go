package datatype

import (
	"bytes"
	"reflect"
	"testing"
)

func TestFlatRoundTrip(t *testing.T) {
	v := Must(Vector(3, 2, 40, Bytes(8)))
	f := FlatOf(v, 1234, 77)
	enc := f.Encode()
	if int64(len(enc)) != f.WireBytes() {
		t.Fatalf("encoded %d bytes, WireBytes says %d", len(enc), f.WireBytes())
	}
	dec, err := DecodeFlat(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f, dec) {
		t.Fatalf("round trip mismatch:\n  in  %+v\n  out %+v", f, dec)
	}
}

func TestFlatUnboundedCount(t *testing.T) {
	f := FlatOf(Bytes(8), 0, -1)
	dec, err := DecodeFlat(f.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if dec.Count != -1 {
		t.Fatalf("count = %d, want -1", dec.Count)
	}
	c := dec.Cursor()
	if !c.SeekOffset(1 << 20) {
		t.Fatal("unbounded decoded cursor exhausted")
	}
}

func TestDecodeFlatErrors(t *testing.T) {
	if _, err := DecodeFlat(nil); err == nil {
		t.Fatal("nil buffer accepted")
	}
	f := FlatOf(Bytes(8), 0, 1)
	enc := f.Encode()
	if _, err := DecodeFlat(enc[:len(enc)-1]); err == nil {
		t.Fatal("truncated buffer accepted")
	}
	if _, err := DecodeFlat(append(enc, 0)); err == nil {
		t.Fatal("oversized buffer accepted")
	}
}

func TestFlatCursorMatchesTypeCursor(t *testing.T) {
	v := Must(Vector(4, 1, 24, Bytes(8)))
	want := collect(NewCursor(v, 64, 5), 1<<30)
	f, err := DecodeFlat(FlatOf(v, 64, 5).Encode())
	if err != nil {
		t.Fatal(err)
	}
	got := collect(f.Cursor(), 1<<30)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded cursor walk = %v, want %v", got, want)
	}
}

func TestSegsRoundTrip(t *testing.T) {
	in := segs(0, 8, 100, 16, 4096, 1)
	out, err := DecodeSegs(EncodeSegs(in))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("segs round trip: %v -> %v", in, out)
	}
	empty, err := DecodeSegs(EncodeSegs(nil))
	if err != nil || len(empty) != 0 {
		t.Fatalf("empty segs round trip: %v, %v", empty, err)
	}
}

func TestDecodeSegsErrors(t *testing.T) {
	if _, err := DecodeSegs([]byte{1}); err == nil {
		t.Fatal("short buffer accepted")
	}
	enc := EncodeSegs(segs(0, 8))
	if _, err := DecodeSegs(enc[:len(enc)-2]); err == nil {
		t.Fatal("truncated buffer accepted")
	}
}

// malformedSegs are lists of the right byte length that no flattened access
// is: DecodeSegs used to hand them on, and the engines that planned from them
// indexed past a payload or walked a cursor backwards.
var malformedSegs = map[string][]Seg{
	"negative offset": {{-8, 16}},
	"negative length": {{8, -1}},
	"empty pair":      {{0, 8}, {16, 0}},
	"unsorted":        {{40, 8}, {0, 8}},
	"overlapping":     {{0, 8}, {4, 8}},
	"touching":        {{0, 8}, {8, 8}},
	"end overflows":   {{0, 8}, {16, 1<<63 - 1}},
}

// TestDecodeSegsRejectsMalformed: a list not in normal form is a decode
// error, with and without an arena, and the arena comes back as it went in.
func TestDecodeSegsRejectsMalformed(t *testing.T) {
	for name, bad := range malformedSegs {
		if _, err := DecodeSegs(EncodeSegs(bad)); err == nil {
			t.Errorf("%s: accepted", name)
		}
		arena := segs(0, 4, 100, 4)
		got, err := DecodeSegsAppend(EncodeSegs(bad), arena)
		if err == nil || !reflect.DeepEqual(got, segs(0, 4, 100, 4)) {
			t.Errorf("%s: arena %v, error %v", name, got, err)
		}
	}
}

// TestDecodeSegsAppendKeepsEarlierLists: every request of a call is decoded
// into one block; a list decoded earlier stays what it was when the block
// grows, and each list is validated on its own (a later one may start before
// an earlier one ends: they are different ranks' accesses).
func TestDecodeSegsAppendKeepsEarlierLists(t *testing.T) {
	first, second := segs(0, 8, 100, 16), segs(4, 2, 50, 7, 4096, 1)
	arena, err := DecodeSegsAppend(EncodeSegs(first), make([]Seg, 0, 2))
	if err != nil {
		t.Fatal(err)
	}
	a := arena[:len(first):len(first)]
	if arena, err = DecodeSegsAppend(EncodeSegs(second), arena); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, first) || !reflect.DeepEqual(arena[len(first):], second) {
		t.Fatalf("arena %v, first list %v", arena, a)
	}
}

// FuzzDecodeSegs: whatever bytes arrive as an offset/length list, decoding
// either fails or yields a list an aggregator can plan from (a cursor over
// it, intersected with a file domain in rounds, merged with another client's
// run) without a panic.
func FuzzDecodeSegs(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeSegs(nil))
	f.Add(EncodeSegs(segs(0, 8, 100, 16, 4096, 1)))
	for _, bad := range malformedSegs {
		f.Add(EncodeSegs(bad))
	}
	enc := EncodeSegs(segs(64, 64, 160, 64, 256, 64))
	f.Add(enc[:len(enc)-5]) // truncated
	enc[0] ^= 2             // the count says five pairs
	f.Add(enc)
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeSegs(data)
		if err != nil || len(req) == 0 {
			return
		}
		fl := Flat{Extent: req[len(req)-1].End(), Count: 1, Limit: -1, Segs: req}
		var ac Cursor
		if err := fl.CursorInto(&ac); err != nil {
			t.Fatalf("decoded list %v rejected by its cursor: %v", req, err)
		}
		pieces := Intersect(&ac, NewCursor(Bytes(4096), req[0].Off, 1), 512, nil)
		run := make([]Seg, len(pieces))
		for k, pc := range pieces {
			run[k] = pc.File
		}
		var m RunMerger
		_, _, total := m.Merge([][]Seg{run, {{Off: req[0].Off, Len: 1}}}, nil, nil)
		var want int64 = 1
		for _, s := range run {
			want += s.Len
		}
		if total != want {
			t.Fatalf("merged %d bytes of %v, want %d", total, run, want)
		}
	})
}

func TestPackUnpackRoundTrip(t *testing.T) {
	v := Must(Vector(3, 1, 10, Bytes(4))) // data at 0-4,10-14,20-24; extent 24
	buf := make([]byte, 2*24+16)
	for i := range buf {
		buf[i] = byte(i)
	}
	stream, err := Pack(buf, v, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(stream) != 24 {
		t.Fatalf("stream len = %d, want 24", len(stream))
	}
	// First data byte should be buf[2].
	if stream[0] != buf[2] {
		t.Fatalf("stream[0] = %d, want %d", stream[0], buf[2])
	}
	out := make([]byte, len(buf))
	if err := Unpack(stream, out, v, 2, 2); err != nil {
		t.Fatal(err)
	}
	// Unpacked bytes must match the original at data positions and be
	// zero in gaps.
	cur := NewCursor(v, 2, 2)
	dataAt := map[int64]bool{}
	for {
		s, _, ok := cur.Next(1)
		if !ok {
			break
		}
		dataAt[s.Off] = true
	}
	for i := range out {
		if dataAt[int64(i)] {
			if out[i] != buf[i] {
				t.Fatalf("data byte %d: got %d want %d", i, out[i], buf[i])
			}
		} else if out[i] != 0 {
			t.Fatalf("gap byte %d modified to %d", i, out[i])
		}
	}
}

func TestPackErrors(t *testing.T) {
	if _, err := Pack(make([]byte, 4), Bytes(8), 0, 1); err == nil {
		t.Fatal("short buffer accepted by Pack")
	}
	if _, err := Pack(make([]byte, 64), Bytes(8), 0, -1); err == nil {
		t.Fatal("unbounded count accepted by Pack")
	}
	if err := Unpack(make([]byte, 9), make([]byte, 64), Bytes(8), 0, 1); err == nil {
		t.Fatal("oversized stream accepted by Unpack")
	}
	if err := Unpack(make([]byte, 4), make([]byte, 4), Bytes(8), 0, 1); err == nil {
		t.Fatal("short dest accepted by Unpack")
	}
}

// TestPackUnpackAllocationFree: AppendPack into a sized destination and
// Unpack (a partial stream ending inside a segment included) walk the type
// without a heap cursor — the collective hot path calls both once per rank
// per op.
func TestPackUnpackAllocationFree(t *testing.T) {
	v := Must(Vector(3, 1, 10, Bytes(4)))
	buf := make([]byte, 8*24)
	for i := range buf {
		buf[i] = byte(i * 3)
	}
	dst := make([]byte, 0, 8*12)
	var stream []byte
	if n := testing.AllocsPerRun(100, func() { stream, _ = AppendPack(dst, buf, v, 0, 8) }); n != 0 {
		t.Errorf("AppendPack allocates %v times per call, want 0", n)
	}
	want, _ := Pack(buf, v, 0, 8)
	if !bytes.Equal(stream, want) {
		t.Fatal("AppendPack into a prepared destination differs from Pack")
	}
	out := make([]byte, len(buf))
	if n := testing.AllocsPerRun(100, func() { _ = Unpack(stream[:30], out, v, 0, 8) }); n != 0 {
		t.Errorf("Unpack allocates %v times per call, want 0", n)
	}
	// 30 bytes = two instances and a half: 2.5 segments of the third.
	back, _ := Pack(out, v, 0, 8)
	if !bytes.Equal(back[:30], stream[:30]) || !bytes.Equal(back[30:], make([]byte, len(back)-30)) {
		t.Fatal("a partial Unpack must scatter exactly its stream's bytes")
	}
}

func TestPackZeroCount(t *testing.T) {
	stream, err := Pack(nil, Bytes(8), 0, 0)
	if err != nil || len(stream) != 0 {
		t.Fatalf("zero-count pack: %v, %v", stream, err)
	}
}

func TestEncodeIsCompactForSuccinctTypes(t *testing.T) {
	// The paper's point: a succinct filetype encodes in O(D), the
	// flattened access in O(M).
	succinct := Must(Resized(Bytes(64), 192))
	flat := FlatOf(succinct, 0, 4096)
	access, _ := Segments(succinct, 0, 4096)
	flatBytes := len(flat.Encode())
	accessBytes := len(EncodeSegs(access))
	if flatBytes*100 > accessBytes {
		t.Fatalf("succinct encoding not compact: flat=%dB access=%dB", flatBytes, accessBytes)
	}
	if !bytes.Equal(flat.Encode(), flat.Encode()) {
		t.Fatal("encode not deterministic")
	}
}
