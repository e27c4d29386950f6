package datatype

import (
	"math/rand"
	"reflect"
	"testing"
)

// collect drains a cursor into absolute segments, with per-call max run.
func collect(c *Cursor, max int64) []Seg {
	var out []Seg
	for {
		s, _, ok := c.Next(max)
		if !ok {
			return out
		}
		if n := len(out); n > 0 && out[n-1].End() == s.Off {
			out[n-1].Len += s.Len
		} else {
			out = append(out, s)
		}
	}
}

func TestCursorBasicWalk(t *testing.T) {
	v := Must(Vector(2, 1, 16, Bytes(8))) // segs {0,8},{16,8}, extent 24
	c := NewCursor(v, 100, 2)
	got := collect(c, 1<<30)
	want := segs(100, 8, 116, 16, 140, 8)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("walk = %v, want %v", got, want)
	}
	if !c.Done() {
		t.Fatal("cursor not done after drain")
	}
	if c.Offset() != -1 {
		t.Fatalf("Offset after done = %d, want -1", c.Offset())
	}
}

func TestCursorSmallMaxChunks(t *testing.T) {
	v := Must(Vector(3, 1, 10, Bytes(6)))
	a := collect(NewCursor(v, 0, 4), 1<<30)
	b := collect(NewCursor(v, 0, 4), 1) // byte at a time, coalesced by collect
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("chunked walk differs: %v vs %v", a, b)
	}
}

func TestCursorStreamPos(t *testing.T) {
	v := Must(Vector(2, 1, 16, Bytes(8))) // 16 data bytes per instance
	c := NewCursor(v, 0, 3)
	seen := map[int64]int64{} // streamPos -> fileOff
	for {
		before := c.StreamPos()
		s, sp, ok := c.Next(5)
		if !ok {
			break
		}
		if sp != before {
			t.Fatalf("streamPos mismatch: Next says %d, StreamPos said %d", sp, before)
		}
		seen[sp] = s.Off
	}
	if c.StreamPos() != 48 {
		t.Fatalf("final StreamPos = %d, want 48", c.StreamPos())
	}
	// Spot-check the stream->file mapping: data byte 16 begins instance 1.
	if off, ok := seen[16]; !ok || off != 24 {
		t.Fatalf("stream byte 16 at file offset %d (ok=%v), want 24", off, ok)
	}
}

func TestCursorSeekOffset(t *testing.T) {
	v := Must(Vector(2, 1, 16, Bytes(8))) // extent 24, data at [0,8) and [16,24) per instance
	for _, tc := range []struct {
		seek    int64
		wantOff int64
	}{
		{0, 0},
		{3, 3},  // mid-segment
		{8, 16}, // gap -> next segment
		{15, 16},
		{23, 23},
		{24, 24}, // start of instance 1
		{30, 30}, // hmm: 24+6 inside first seg of instance 1
		{47, 47},
		{48, 48}, // instance 2
	} {
		c := NewCursor(v, 0, 100)
		if !c.SeekOffset(tc.seek) {
			t.Fatalf("seek %d: exhausted", tc.seek)
		}
		if got := c.Offset(); got != tc.wantOff {
			t.Fatalf("seek %d: offset = %d, want %d", tc.seek, got, tc.wantOff)
		}
	}
}

func TestCursorSeekIntoGapOfLastInstance(t *testing.T) {
	v := Must(Vector(2, 1, 16, Bytes(8)))
	c := NewCursor(v, 0, 1)
	if c.SeekOffset(24) {
		t.Fatalf("seek past end succeeded at offset %d", c.Offset())
	}
	if !c.Done() {
		t.Fatal("cursor should be done")
	}
}

func TestCursorSeekBackwardIsNoop(t *testing.T) {
	c := NewCursor(Bytes(8), 0, 10)
	c.SeekOffset(40)
	off := c.Offset()
	c.SeekOffset(5)
	if c.Offset() != off {
		t.Fatalf("backward seek moved cursor from %d to %d", off, c.Offset())
	}
}

func TestCursorUnboundedTiling(t *testing.T) {
	// Persistent-file-realm style: 8-byte block every 32 bytes, forever.
	r := Must(Resized(Bytes(8), 32))
	c := NewCursor(r, 4, -1)
	if !c.SeekOffset(1_000_000) {
		t.Fatal("unbounded cursor exhausted")
	}
	// Instance k at 4+32k; 1_000_000-4 = 999_996; 999_996/32 = 31249.875
	// -> instance 31249 at 4+999968=999972, data [999972,999980) ends
	// before 1_000_000, so next data is instance 31250 at 1000004.
	if got := c.Offset(); got != 1000004 {
		t.Fatalf("offset = %d, want 1000004", got)
	}
}

func TestCursorInstanceSkipIsCheap(t *testing.T) {
	// Succinct: 1 segment per instance, many instances.
	succinct := Must(Resized(Bytes(64), 192))
	c := NewCursor(succinct, 0, 100000)
	c.SeekOffset(192 * 90000)
	if w := c.Work(); w > 8 {
		t.Fatalf("succinct skip work = %d, want O(1)", w)
	}

	// Enumerated: the same access as one instance with 100000 segments.
	var raw []Seg
	for i := int64(0); i < 100000; i++ {
		raw = append(raw, Seg{i * 192, 64})
	}
	enum, err := FromSegs(raw, 0)
	if err != nil {
		t.Fatal(err)
	}
	ce := NewCursor(enum, 0, 1)
	ce.SeekOffset(192 * 90000)
	if w := ce.Work(); w < 80000 {
		t.Fatalf("enumerated scan work = %d, want ~90000 (linear)", w)
	}
}

func TestCursorCloneIndependence(t *testing.T) {
	c := NewCursor(Bytes(8), 0, 10)
	c.Next(5)
	d := c.Clone()
	d.Next(20)
	if c.Offset() == d.Offset() {
		t.Fatal("clone shares position with original")
	}
	if d.Work() == c.Work() && c.Work() != 0 {
		t.Fatal("clone did not reset work counter")
	}
}

func TestCursorEmptyType(t *testing.T) {
	c := NewCursor(Bytes(0), 0, 5)
	if !c.Done() {
		t.Fatal("empty type cursor not done")
	}
	if _, _, ok := c.Next(10); ok {
		t.Fatal("Next on empty type succeeded")
	}
	if c.SeekOffset(0) {
		t.Fatal("SeekOffset on empty type succeeded")
	}
}

// TestCursorSeekMatchesLinearScan cross-checks SeekOffset against a naive
// linear walk on randomized datatypes.
func TestCursorSeekMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		// Random sparse type.
		nseg := 1 + rng.Intn(6)
		var raw []Seg
		off := int64(rng.Intn(5))
		for i := 0; i < nseg; i++ {
			l := int64(1 + rng.Intn(9))
			raw = append(raw, Seg{off, l})
			off += l + int64(rng.Intn(7))
		}
		ext := off + int64(rng.Intn(5))
		ty, err := FromSegs(raw, ext)
		if err != nil {
			t.Fatal(err)
		}
		count := int64(1 + rng.Intn(5))
		disp := int64(rng.Intn(10))
		target := int64(rng.Intn(int(ext*count + disp + 10)))

		// Reference: linear walk.
		ref := NewCursor(ty, disp, count)
		var want int64 = -1
		for {
			s, _, ok := ref.Next(1)
			if !ok {
				break
			}
			if s.Off >= target {
				want = s.Off
				break
			}
		}

		c := NewCursor(ty, disp, count)
		ok := c.SeekOffset(target)
		if want == -1 {
			if ok {
				t.Fatalf("trial %d: seek(%d) found %d, want exhausted (type %v disp %d count %d)",
					trial, target, c.Offset(), raw, disp, count)
			}
			continue
		}
		if !ok || c.Offset() != want {
			t.Fatalf("trial %d: seek(%d) = %d (ok=%v), want %d", trial, target, c.Offset(), ok, want)
		}
	}
}
