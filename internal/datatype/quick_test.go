package datatype

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// genType draws a random valid datatype with bounded size.
func genType(rng *rand.Rand) Type {
	switch rng.Intn(5) {
	case 0:
		return Bytes(int64(1 + rng.Intn(64)))
	case 1:
		return Must(Contiguous(int64(1+rng.Intn(5)), Bytes(int64(1+rng.Intn(16)))))
	case 2:
		bl := int64(1 + rng.Intn(3))
		elem := int64(1 + rng.Intn(8))
		stride := bl*elem + int64(rng.Intn(16))
		return Must(Vector(int64(1+rng.Intn(5)), bl, stride, Bytes(elem)))
	case 3:
		n := 1 + rng.Intn(5)
		lens := make([]int64, n)
		displs := make([]int64, n)
		off := int64(rng.Intn(4))
		for i := 0; i < n; i++ {
			lens[i] = int64(1 + rng.Intn(3))
			displs[i] = off
			off += lens[i]*4 + int64(rng.Intn(12))
		}
		return Must(HIndexed(lens, displs, Bytes(4)))
	default:
		inner := Must(Vector(int64(1+rng.Intn(3)), 1, int64(8+rng.Intn(8)), Bytes(int64(1+rng.Intn(8)))))
		return Must(Resized(inner, inner.Extent()+int64(rng.Intn(32))))
	}
}

// PropFlattenInvariants: the flattened form is sorted, disjoint, coalesced,
// within the extent, and its lengths sum to Size().
func TestQuickFlattenInvariants(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ty := genType(rng)
		segs := ty.Flatten()
		var sum int64
		for i, s := range segs {
			if s.Len <= 0 || s.Off < 0 || s.End() > ty.Extent() {
				return false
			}
			if i > 0 && s.Off <= segs[i-1].End() {
				return false // unsorted, overlapping, or uncoalesced
			}
			sum += s.Len
		}
		return sum == ty.Size()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// PropCursorWalkCoversAccess: draining a cursor yields exactly count*Size
// data bytes in strictly increasing file order, matching Segments().
func TestQuickCursorWalkMatchesSegments(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ty := genType(rng)
		count := int64(1 + rng.Intn(4))
		disp := int64(rng.Intn(32))
		want, _ := Segments(ty, disp, count)

		c := NewCursor(ty, disp, count)
		var got []Seg
		for {
			s, _, ok := c.Next(int64(1 + rng.Intn(40)))
			if !ok {
				break
			}
			if n := len(got); n > 0 && got[n-1].End() == s.Off {
				got[n-1].Len += s.Len
			} else {
				got = append(got, s)
			}
		}
		return reflect.DeepEqual(got, want)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// PropSeekEquivalence: SeekOffset agrees with a byte-at-a-time linear scan.
func TestQuickSeekOffsetEquivalence(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ty := genType(rng)
		count := int64(1 + rng.Intn(4))
		disp := int64(rng.Intn(16))
		limit := disp + count*ty.Extent() + 8
		target := int64(rng.Intn(int(limit)))

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
		if want < 0 {
			return !ok
		}
		return ok && c.Offset() == want
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// PropPackUnpack: Unpack(Pack(buf)) restores exactly the data bytes.
func TestQuickPackUnpackRoundTrip(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ty := genType(rng)
		count := int64(1 + rng.Intn(4))
		buf := make([]byte, count*ty.Extent()+int64(rng.Intn(8)))
		rng.Read(buf)
		stream, err := Pack(buf, ty, 0, count)
		if err != nil {
			return false
		}
		if int64(len(stream)) != count*ty.Size() {
			return false
		}
		out := make([]byte, len(buf))
		if err := Unpack(stream, out, ty, 0, count); err != nil {
			return false
		}
		back, err := Pack(out, ty, 0, count)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(stream, back)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// PropCodecRoundTrip: DecodeFlat(Encode(f)) == f for random types and
// tilings, including unbounded counts and limits.
func TestQuickCodecRoundTrip(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ty := genType(rng)
		count := int64(rng.Intn(6)) - 1 // occasionally -1 (unbounded)
		f := FlatOf(ty, int64(rng.Intn(100)), count)
		if rng.Intn(2) == 0 {
			f.Limit = int64(rng.Intn(200))
		}
		dec, err := DecodeFlat(f.Encode())
		if err != nil {
			return false
		}
		return reflect.DeepEqual(f, dec)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// PropLimitClipping: a limited cursor exposes exactly min(limit, total)
// data bytes.
func TestQuickCursorLimit(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ty := genType(rng)
		count := int64(1 + rng.Intn(4))
		total := count * ty.Size()
		limit := int64(rng.Intn(int(total) + 10))
		c := NewCursor(ty, 0, count)
		c.SetLimit(limit)
		var seen int64
		for {
			s, _, ok := c.Next(1 << 30)
			if !ok {
				break
			}
			seen += s.Len
		}
		want := limit
		if total < want {
			want = total
		}
		return seen == want
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickTouchesMatchesEnumeration: Flat.Touches agrees with a listing of
// every data byte, segment edge and instance start of the access, for random
// types, counts (the end instance start included) and windows, wide and a
// few bytes, on either side of the access and inside it; an empty access
// touches nothing.
func TestQuickTouchesMatchesEnumeration(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ty := genType(rng)
		disp := int64(rng.Intn(50))
		count := int64(1 + rng.Intn(4))
		f := FlatOf(ty, disp, count)
		if FlatOf(ty, disp, 0).Touches(0, 1<<20) {
			return false // an empty access has nothing to touch
		}
		marked := map[int64]bool{}
		for i := int64(0); i <= count; i++ {
			base := disp + i*ty.Extent()
			marked[base] = true
			if i == count {
				break
			}
			for _, s := range ty.Flatten() {
				for x := base + s.Off; x <= base+s.End(); x++ {
					marked[x] = true
				}
			}
		}
		end := disp + (count+1)*ty.Extent() + 10
		for k := 0; k < 40; k++ {
			a := int64(rng.Intn(int(end))) - 5
			b := a + int64(rng.Intn(3))
			if rng.Intn(4) == 0 {
				b = a + int64(rng.Intn(int(end)))
			}
			want := false
			for x := a; x <= b; x++ {
				want = want || marked[x]
			}
			if f.Touches(a, b) != want {
				t.Logf("%s disp %d count %d: Touches(%d, %d) = %v", ty, disp, count, a, b, !want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
