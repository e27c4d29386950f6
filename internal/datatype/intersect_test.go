package datatype

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// stepwiseIntersect is the intersection as the engine walked it before the
// kernel existed: one overlap at a time through the cursors' public
// stepping. It is the oracle Intersect must match piece for piece, pair for
// pair and in where it leaves both cursors.
func stepwiseIntersect(ac, rc *Cursor, cb int64, dst []Piece) []Piece {
	for !ac.Done() && !rc.Done() {
		ao, ro := ac.Offset(), rc.Offset()
		switch {
		case ao < ro:
			if !ac.SeekOffset(ro) {
				return dst
			}
		case ro < ao:
			if !rc.SeekOffset(ao) {
				return dst
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
			dst = append(dst, Piece{Round: int(rs / cb), File: Seg{Off: ao, Len: n}, AStream: ac.StreamPos(), RStream: rs})
			ac.Next(n)
			rc.Next(n)
		}
	}
	return dst
}

// cursorState is everything about a cursor that later stepping depends on.
func cursorState(c *Cursor) string {
	return fmt.Sprintf("inst=%d idx=%d intra=%d done=%v work=%d", c.inst, c.idx, c.intra, c.done, c.work)
}

// checkIntersect runs the kernel and the oracle over the same pair of
// accesses (mk builds fresh cursors) and compares everything observable.
func checkIntersect(t *testing.T, what string, cb int64, mk func() (ac, rc *Cursor)) int {
	t.Helper()
	ac, rc := mk()
	got := Intersect(ac, rc, cb, nil)
	wac, wrc := mk()
	want := stepwiseIntersect(wac, wrc, cb, nil)
	if !slices.Equal(got, want) {
		for k := 0; k < len(got) && k < len(want); k++ {
			if got[k] != want[k] {
				t.Fatalf("%s: piece %d = %+v, want %+v", what, k, got[k], want[k])
			}
		}
		t.Fatalf("%s: %d pieces, want %d", what, len(got), len(want))
	}
	if g, w := cursorState(ac), cursorState(wac); g != w {
		t.Fatalf("%s: access cursor ends at %s, want %s", what, g, w)
	}
	if g, w := cursorState(rc), cursorState(wrc); g != w {
		t.Fatalf("%s: realm cursor ends at %s, want %s", what, g, w)
	}
	return len(got)
}

// genAccess draws one of the access shapes the engine sees.
func genAccess(rng *rand.Rand, kind int) func() *Cursor {
	switch kind {
	case 0: // succinct: a small pattern tiled many times
		ty, disp, count := genType(rng), int64(rng.Intn(200)), int64(1+rng.Intn(40))
		return func() *Cursor { return NewCursor(ty, disp, count) }
	case 1: // enumerated: every pair listed, count == 1
		n := 1 + rng.Intn(200)
		raw := make([]Seg, n)
		off := int64(rng.Intn(50))
		for i := range raw {
			raw[i] = Seg{off, int64(1 + rng.Intn(24))}
			off += raw[i].Len + int64(rng.Intn(40))
		}
		ty := Must(FromSegs(raw, 0))
		return func() *Cursor { return NewCursor(ty, 0, 1) }
	case 2: // limited mid-segment
		ty, disp, count := genType(rng), int64(rng.Intn(200)), int64(1+rng.Intn(20))
		limit := rng.Int63n(count*ty.Size() + 1)
		return func() *Cursor {
			c := NewCursor(ty, disp, count)
			c.SetLimit(limit)
			return c
		}
	default: // zero-size
		disp := int64(rng.Intn(200))
		return func() *Cursor { return NewCursor(Bytes(0), disp, 0) }
	}
}

// genRealm draws one of the realm shapes the assigners produce. runLen is
// the length of one realm run, for choosing cb against it.
func genRealm(rng *rand.Rand, kind int) (mk func() *Cursor, runLen int64) {
	switch kind {
	case 0: // one contiguous segment
		disp, n := int64(rng.Intn(300)), int64(1+rng.Intn(2000))
		return func() *Cursor { return NewCursor(Bytes(n), disp, 1) }, n
	case 1: // cyclic, unbounded
		block, naggs, me := int64(1+rng.Intn(96)), int64(1+rng.Intn(6)), int64(0)
		me = rng.Int63n(naggs)
		pat := Must(Resized(Bytes(block), block*naggs))
		return func() *Cursor { return NewCursor(pat, me*block, -1) }, block
	case 2: // aligned: a bounded chunk on a power-of-two boundary
		align := int64(64 << rng.Intn(3))
		disp, n := align*int64(rng.Intn(8)), align*int64(1+rng.Intn(6))
		return func() *Cursor { return NewCursor(Bytes(n), disp, 1) }, n
	default: // empty
		return func() *Cursor { return NewCursor(Bytes(0), 0, 0) }, 1
	}
}

func TestIntersectMatchesStepwise(t *testing.T) {
	accessNames := []string{"succinct", "enumerated", "limited", "empty"}
	realmNames := []string{"contiguous", "cyclic", "aligned", "empty"}
	rng := rand.New(rand.NewSource(15))
	pieces := 0
	for ak, an := range accessNames {
		for rk, rn := range realmNames {
			for trial := 0; trial < 60; trial++ {
				mkA := genAccess(rng, ak)
				mkR, runLen := genRealm(rng, rk)
				// cb smaller than a segment, equal to a realm run, and
				// larger than the whole realm.
				for _, cb := range []int64{1 + rng.Int63n(3), runLen, 1 << 40} {
					what := fmt.Sprintf("%s access x %s realm, trial %d, cb %d", an, rn, trial, cb)
					pieces += checkIntersect(t, what, cb, func() (*Cursor, *Cursor) { return mkA(), mkR() })
				}
			}
		}
	}
	if pieces < 10000 {
		t.Fatalf("only %d pieces compared: the generators no longer overlap", pieces)
	}
}

// TestIntersectLimitedRealm: realms carry no limit in the engine, but the
// kernel takes any cursor; a realm clipped mid-run must end the walk where
// the stepwise loop ends it.
func TestIntersectLimitedRealm(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for trial := 0; trial < 200; trial++ {
		mkA := genAccess(rng, trial%3)
		block := int64(8 + rng.Intn(64))
		pat := Must(Resized(Bytes(block), 2*block))
		limit := rng.Int63n(20 * block)
		mkR := func() *Cursor {
			c := NewCursor(pat, 0, -1)
			c.SetLimit(limit)
			return c
		}
		checkIntersect(t, fmt.Sprintf("trial %d", trial), 1+rng.Int63n(2*block),
			func() (*Cursor, *Cursor) { return mkA(), mkR() })
	}
}

// TestIntersectAppends: the kernel appends to the caller's scratch and
// reuses its capacity.
func TestIntersectAppends(t *testing.T) {
	ty := Must(Vector(8, 1, 32, Bytes(8)))
	scratch := make([]Piece, 1, 64)
	scratch[0] = Piece{Round: -1}
	out := Intersect(NewCursor(ty, 0, 2), NewCursor(Bytes(1<<10), 0, 1), 1<<10, scratch)
	if len(out) != 17 || out[0].Round != -1 || &out[0] != &scratch[0] {
		t.Fatalf("got %d pieces (first %+v), want the 16 overlaps appended in place", len(out), out[0])
	}
	ac, rc := NewCursor(ty, 0, 2), NewCursor(Bytes(1<<10), 0, 1)
	if n := testing.AllocsPerRun(10, func() {
		ac.Reset()
		rc.Reset()
		out = Intersect(ac, rc, 1<<10, out[:0])
	}); n != 0 || len(out) != 16 {
		t.Fatalf("Intersect into scratch: %v allocs per run, %d pieces", n, len(out))
	}
}

// fuzzCursor decodes eight bytes into a small tiled access.
func fuzzCursor(b []byte, unbounded bool) *Cursor {
	nseg := 1 + int(b[0])%6
	raw := make([]Seg, 0, nseg)
	off := int64(b[1] % 16)
	for i := 0; i < nseg; i++ {
		n := int64(1 + (int(b[2])>>uint(i%4))%13)
		raw = append(raw, Seg{off, n})
		off += n + int64((int(b[3])>>uint(i%5))%9)
	}
	ty := Must(FromSegs(raw, off+int64(b[4]%32)))
	count := int64(b[5] % 24)
	if unbounded && b[5]&1 == 1 {
		count = -1
	}
	c := NewCursor(ty, int64(b[6]), count)
	if b[7]&3 == 0 {
		c.SetLimit(int64(b[7]) * 3)
	}
	return c
}

// FuzzIntersect builds an access and a realm from sixteen bytes and a cb
// from two more, and checks the kernel against the stepwise oracle.
func FuzzIntersect(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{3, 2, 9, 5, 7, 12, 40, 1, 0, 0, 200, 0, 0, 1, 16, 1, 64, 0})
	f.Add([]byte{5, 0, 3, 255, 31, 23, 0, 4, 2, 1, 17, 6, 3, 9, 0, 8, 7, 0})
	f.Add([]byte{1, 7, 12, 0, 0, 1, 255, 2, 0, 15, 12, 0, 31, 255, 3, 3, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 18 {
			return
		}
		cb := 1 + int64(binary.LittleEndian.Uint16(data[16:]))
		checkIntersect(t, "fuzz", cb, func() (*Cursor, *Cursor) {
			return fuzzCursor(data[:8], false), fuzzCursor(data[8:16], true)
		})
	})
}

// FuzzDecodeFlat: whatever bytes arrive as a request, decoding either
// fails or yields a Flat whose cursor can be built and intersected without
// a panic. Sizes are bounded so that a huge tiling is skipped, not walked.
func FuzzDecodeFlat(f *testing.F) {
	f.Add([]byte{})
	f.Add(FlatOf(Must(Vector(3, 2, 40, Bytes(8))), 12, 7).Encode())
	f.Add(Flat{Extent: 64, Count: 2, Limit: -1, Segs: []Seg{{0, 8}, {4, 8}}}.Encode())  // overlapping
	f.Add(Flat{Extent: 64, Count: 2, Limit: -1, Segs: []Seg{{40, 8}, {0, 8}}}.Encode()) // unsorted
	f.Add(Flat{Extent: 8, Count: 2, Limit: -1, Segs: []Seg{{0, 16}}}.Encode())          // beyond extent
	f.Add(Flat{Extent: 64, Count: 1, Limit: 5, Segs: []Seg{{-8, 16}}}.Encode())         // negative
	f.Add(Flat{Extent: 64, Count: 1, Limit: -1, Segs: []Seg{{1, 1<<63 - 1}}}.Encode())  // end overflows
	enc := FlatOf(Bytes(8), 0, 1).Encode()
	f.Add(enc[:len(enc)-3]) // truncated
	f.Fuzz(func(t *testing.T, data []byte) {
		fl, err := DecodeFlat(data)
		if err != nil {
			return
		}
		var ac Cursor
		if err := fl.CursorInto(&ac); err != nil {
			t.Fatalf("decoded Flat %+v rejected by its cursor: %v", fl, err)
		}
		const big = 1 << 20
		if fl.Disp < 0 || fl.Disp > big || fl.Extent > big || fl.Count > 64 || len(fl.Segs) > 64 {
			return
		}
		Intersect(&ac, NewCursor(Bytes(4096), 0, 1), 512, nil)
	})
}

// TestDecodeFlatRejectsMalformed: what Cursor used to panic on is a decode
// error now, and a request in other than normal form still decodes to the
// access it describes.
func TestDecodeFlatRejectsMalformed(t *testing.T) {
	bad := map[string]Flat{
		"overlapping":     {Extent: 64, Count: 2, Limit: -1, Segs: []Seg{{0, 8}, {4, 8}}},
		"negative offset": {Extent: 64, Count: 1, Limit: -1, Segs: []Seg{{-8, 16}}},
		"negative length": {Extent: 64, Count: 1, Limit: -1, Segs: []Seg{{8, -1}}},
		"beyond extent":   {Extent: 8, Count: 2, Limit: -1, Segs: []Seg{{0, 16}}},
		"end overflows":   {Extent: 64, Count: 1, Limit: -1, Segs: []Seg{{1, 1<<63 - 1}}},
	}
	for name, fl := range bad {
		if _, err := DecodeFlat(fl.Encode()); err == nil {
			t.Errorf("%s: accepted", name)
		}
		var c Cursor
		if err := fl.CursorInto(&c); err == nil {
			t.Errorf("%s: CursorInto built a cursor", name)
		}
	}
	loose := Flat{Extent: 64, Count: 2, Limit: -1, Segs: []Seg{{40, 8}, {0, 4}, {4, 4}, {20, 0}}}
	fl, err := DecodeFlat(loose.Encode())
	if err != nil {
		t.Fatalf("unsorted, uncoalesced request: %v", err)
	}
	want := collect(NewCursor(Must(FromSegs(loose.Segs, 64)), 0, 2), 1<<30)
	if got := collect(fl.Cursor(), 1<<30); !slices.Equal(got, want) {
		t.Fatalf("walk %v, want %v", got, want)
	}
}

// TestCursorIntoUsesSegsInPlace: a Flat in normal form costs its cursor no
// copy of the segments, and re-pointing a cursor reuses its prefix table.
func TestCursorIntoUsesSegsInPlace(t *testing.T) {
	ty := Must(Vector(64, 1, 32, Bytes(8)))
	fl := FlatOf(ty, 100, 3)
	var c Cursor
	if err := fl.CursorInto(&c); err != nil {
		t.Fatal(err)
	}
	if &c.segs[0] != &fl.Segs[0] {
		t.Fatal("normal-form segments were copied")
	}
	if n := testing.AllocsPerRun(20, func() {
		if err := fl.CursorInto(&c); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("re-pointing a cursor allocates %v times", n)
	}
	if got, want := collect(&c, 1<<30), collect(NewCursor(ty, 100, 3), 1<<30); !slices.Equal(got, want) {
		t.Fatalf("walk %v, want %v", got, want)
	}
}
