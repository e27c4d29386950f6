package integrity

import "testing"

// FuzzExtentAdd checks the interval set against a byte bitmap: after every
// add the intervals must be sorted, disjoint and non-abutting, cover
// exactly the bitmap's set bytes, and covers/coversAll must answer what the
// bitmap answers. The input is read as (off, len) byte pairs; the first
// two thirds build the set under test, the rest a second set for coversAll.
func FuzzExtentAdd(f *testing.F) {
	f.Add([]byte{0, 10, 20, 10, 10, 10})
	f.Add([]byte{5, 0, 5, 1, 4, 1, 6, 1, 0, 64})
	f.Add([]byte{30, 4, 10, 4, 20, 4, 0, 40, 12, 1, 31, 2})
	f.Fuzz(func(t *testing.T, in []byte) {
		const width = 64
		var a, b extent
		var bitsA, bitsB [width]bool
		pairs := len(in) / 2
		for p := 0; p < pairs; p++ {
			off := int64(in[2*p] % width)
			end := min(off+int64(in[2*p+1]%width), width)
			e, bits := &a, &bitsA
			if p >= pairs*2/3 {
				e, bits = &b, &bitsB
			}
			e.add(off, end)
			for i := off; i < end; i++ {
				bits[i] = true
			}
			checkExtent(t, e, bits[:])
		}
		for off := int64(0); off < width; off++ {
			for end := off + 1; end <= width; end++ {
				want := true
				for i := off; i < end; i++ {
					want = want && bitsA[i]
				}
				if got := a.covers(off, end); got != want {
					t.Fatalf("covers(%d,%d) = %v, bitmap says %v; set %v", off, end, got, want, a.cover)
				}
			}
		}
		want := true
		for i := range bitsB {
			want = want && (!bitsB[i] || bitsA[i])
		}
		if got := a.coversAll(&b); got != want {
			t.Fatalf("coversAll = %v, bitmaps say %v; a %v b %v", got, want, a.cover, b.cover)
		}
	})
}

// checkExtent compares the set's intervals with the bitmap's runs.
func checkExtent(t *testing.T, e *extent, bits []bool) {
	t.Helper()
	var runs []qspan
	for i := 0; i < len(bits); i++ {
		if !bits[i] {
			continue
		}
		start := i
		for i < len(bits) && bits[i] {
			i++
		}
		runs = append(runs, qspan{int64(start), int64(i)})
	}
	if len(runs) != len(e.cover) {
		t.Fatalf("set %v, bitmap runs %v", e.cover, runs)
	}
	for i := range runs {
		if runs[i] != e.cover[i] {
			t.Fatalf("set %v, bitmap runs %v", e.cover, runs)
		}
	}
}
