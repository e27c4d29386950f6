package mpiio

import (
	"bytes"
	"math/rand"
	"testing"
	"unsafe"

	"flexio/internal/bufpool"
	"flexio/internal/datatype"
	"flexio/internal/metrics"
	"flexio/internal/pfs"
)

// Stream forms, as the tests name them.
const (
	inPlace = "in place"
	packed  = "packed"
	lent    = "lent"
)

// formOf names the form st is in.
func formOf(st Stream) string {
	switch {
	case st.lent.mt != nil:
		return lent
	case st.Pooled:
		return packed
	}
	return inPlace
}

// within reports whether v lies inside buf[lo:hi].
func within(v, buf []byte, lo, hi int64) bool {
	if len(v) == 0 {
		return true
	}
	base := uintptr(unsafe.Pointer(unsafe.SliceData(buf)))
	p := uintptr(unsafe.Pointer(unsafe.SliceData(v)))
	return p >= base+uintptr(lo) && p+uintptr(len(v)) <= base+uintptr(hi)
}

// concat joins views into one buffer.
func concat(views [][]byte) []byte {
	var out []byte
	for _, v := range views {
		out = append(out, v...)
	}
	return out
}

// checkViews requires the views of st's [at, at+n) to be the packed bytes
// want[at:at+n], none exposing a byte past its own end, and, for a stream on
// the caller's memory, to alias buf inside the access (its first access
// bytes).
func checkViews(t *testing.T, name string, st *Stream, buf, want []byte, access, at, n int64) {
	t.Helper()
	views := st.Views(nil, at, n)
	if got := concat(views); !bytes.Equal(got, want[at:at+n]) {
		t.Errorf("%s: views of [%d,%d) differ from Pack", name, at, at+n)
		return
	}
	for _, v := range views {
		if cap(v) != len(v) {
			t.Errorf("%s: a view of [%d,%d) exposes the buffer past its end (cap %d, len %d)", name, at, at+n, cap(v), len(v))
			return
		}
		if formOf(*st) != packed && !within(v, buf, 0, access) {
			t.Errorf("%s: a view of [%d,%d) lies outside the access's %d bytes of the user buffer", name, at, at+n, access)
			return
		}
	}
}

// TestWriteStreamForms: a write's stream is in one of three forms. A dense
// memory type (one segment at offset 0 filling its extent) makes it a view of
// the user buffer, for every write. A collective write whose gapped memory
// type has segments of minLentSeg bytes or more on average lends the user
// buffer, read through one view per segment. Everything else — an
// independent write's gapped type, short segments, an empty type — is packed
// into a pooled buffer. Every form's views hold the bytes datatype.Pack
// produces, the modelled pack is charged exactly when asked, and Owned hands
// over a pooled buffer, never the caller's memory.
func TestWriteStreamForms(t *testing.T) {
	must := datatype.Must
	cases := []struct {
		name  string
		mt    datatype.Type
		count int64
		// indep is Linearize's form, coll CollectiveStream's.
		indep, coll string
	}{
		{"bytes", datatype.Bytes(48), 10, inPlace, inPlace},
		{"contig-of-bytes", must(datatype.Contiguous(4, datatype.Bytes(12))), 10, inPlace, inPlace},
		{"one-instance", datatype.Bytes(480), 1, inPlace, inPlace},
		{"zero-count", datatype.Bytes(48), 0, inPlace, inPlace},
		{"resized-gap", must(datatype.Resized(datatype.Bytes(40), 48)), 10, packed, packed},
		{"offset-segment", must(datatype.HIndexed([]int64{1}, []int64{8}, datatype.Bytes(40))), 10, packed, packed},
		{"two-segments", must(datatype.Vector(2, 1, 24, datatype.Bytes(16))), 10, packed, packed},
		{"empty-type", datatype.Bytes(0), 3, packed, packed},
		{"just-short", must(datatype.Resized(datatype.Bytes(minLentSeg-1), minLentSeg+16)), 7, packed, packed},
		{"long-resized-gap", must(datatype.Resized(datatype.Bytes(minLentSeg), minLentSeg+16)), 1, packed, lent},
		{"long-resized-gap-many", must(datatype.Resized(datatype.Bytes(200), 264)), 15, packed, lent},
		{"long-two-segments", must(datatype.Vector(2, 1, 200, datatype.Bytes(160))), 1, packed, lent},
		{"long-two-segments-many", must(datatype.Vector(2, 1, 200, datatype.Bytes(160))), 6, packed, lent},
		{"long-offset-segment", must(datatype.HIndexed([]int64{1}, []int64{24}, datatype.Bytes(300))), 9, packed, lent},
	}
	single(t, func(f *File, _ *pfs.FileSystem) {
		p := f.Proc()
		for _, tc := range cases {
			buf := make([]byte, 4096)
			for i := range buf {
				buf[i] = byte(i*13 + 5)
			}
			keep := bytes.Clone(buf)
			want, err := datatype.Pack(buf, tc.mt, 0, tc.count)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			access := tc.count * tc.mt.Extent()
			for _, coll := range []bool{false, true} {
				for _, charged := range []bool{false, true} {
					before, copyTime := p.Clock(), p.Metrics.Phase(metrics.PCopy)
					var st Stream
					form := tc.indep
					if coll {
						st, err = f.CollectiveStream(buf, tc.mt, tc.count, true, charged)
						form = tc.coll
					} else {
						st, err = f.Linearize(buf, tc.mt, tc.count, charged)
					}
					if err != nil {
						t.Fatalf("%s: %v", tc.name, err)
					}
					if got := formOf(st); got != form {
						t.Errorf("%s (collective %v): stream %s, want %s", tc.name, coll, got, form)
					}
					switch form {
					case inPlace:
						if len(st.B) > 0 && (&st.B[0] != &buf[0] || cap(st.B) != len(st.B)) {
							t.Errorf("%s: an in-place stream must be the access's bytes of the buffer (cap %d, len %d)",
								tc.name, cap(st.B), len(st.B))
						}
					case lent:
						if st.B != nil {
							t.Errorf("%s: a lent stream has a B", tc.name)
						}
					}
					if form != lent && !bytes.Equal(st.B, want) {
						t.Errorf("%s: stream differs from Pack", tc.name)
					}
					n := int64(len(want))
					checkViews(t, tc.name, &st, buf, want, access, 0, n)
					if n > 2 {
						checkViews(t, tc.name, &st, buf, want, access, 1, n-2)
					}
					wantCharge := p.Config().MemcpyTime(n)
					if !charged {
						wantCharge = 0
					}
					if p.Clock() != before+wantCharge {
						t.Errorf("%s charged=%v: clock moved %v, want %v", tc.name, charged, p.Clock()-before, wantCharge)
					}
					if got := p.Metrics.Phase(metrics.PCopy); got != copyTime+wantCharge {
						t.Errorf("%s charged=%v: copy time moved %v, want %v", tc.name, charged, got-copyTime, wantCharge)
					}
					// Owned hands on B itself when packed, a pooled copy otherwise.
					own := st.Owned()
					switch {
					case !bytes.Equal(own, want):
						t.Errorf("%s: Owned returned other bytes", tc.name)
					case len(own) > 0 && within(own, buf, 0, int64(len(buf))):
						t.Errorf("%s: Owned returned the caller's memory", tc.name)
					case form == packed && len(own) > 0 && &own[0] != &st.B[0]:
						t.Errorf("%s: Owned copied a packed stream", tc.name)
					}
					if form != packed {
						bufpool.Put(own)
					}
					st.Release()
				}
			}
			if !bytes.Equal(buf, keep) {
				t.Errorf("%s: linearizing modified the user buffer", tc.name)
			}
		}
		// A buffer too small for the access is an error, not a panic, in
		// every form.
		for _, tc := range []struct {
			name  string
			mt    datatype.Type
			count int64
		}{
			{inPlace, datatype.Bytes(48), 10},
			{packed, cases[4].mt, 10},
			{lent, cases[10].mt, 15},
		} {
			short := make([]byte, tc.count*tc.mt.Extent()-1)
			if _, err := f.CollectiveStream(short, tc.mt, tc.count, true, false); err == nil {
				t.Errorf("short buffer accepted for a %s stream", tc.name)
			}
		}
		if _, err := f.Linearize(make([]byte, 100), cases[4].mt, 10, false); err == nil {
			t.Error("short buffer accepted for an independent packed stream")
		}
	})
}

// TestLentViewsMatchPack is the lent form's property: for random gapped
// memory types — zero-length segments, a leading gap, short and long
// segments — and random ranges [at, at+n), the views concatenate to
// datatype.Pack's bytes, alias the user buffer inside the access and reach
// no further, and the modelled pack is charged as for a packed stream. A
// type whose segments average minLentSeg bytes or more is lent, any other
// gapped one packed.
func TestLentViewsMatchPack(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	single(t, func(f *File, _ *pfs.FileSystem) {
		p := f.Proc()
		lends := 0
		for trial := 0; trial < 400; trial++ {
			var raw []datatype.Seg
			off := rng.Int63n(3) * rng.Int63n(64) // a leading gap two times in three
			for k := rng.Intn(6) + 1; k > 0; k-- {
				n := rng.Int63n(600)
				if rng.Intn(4) == 0 {
					n = 0
				}
				raw = append(raw, datatype.Seg{Off: off, Len: n})
				off += n + rng.Int63n(3)*rng.Int63n(48)
			}
			mt, err := datatype.FromSegs(raw, off+rng.Int63n(40))
			if err != nil {
				t.Fatal(err)
			}
			count := rng.Int63n(5) + 1
			access := count * mt.Extent()
			buf := make([]byte, access+rng.Int63n(64))
			rng.Read(buf)
			keep := bytes.Clone(buf)
			want, err := datatype.Pack(buf, mt, 0, count)
			if err != nil {
				t.Fatal(err)
			}
			segs := mt.Flatten()
			dense := len(segs) == 1 && segs[0].Off == 0 && segs[0].Len == mt.Extent()
			before := p.Clock()
			st, err := f.CollectiveStream(buf, mt, count, true, true)
			if err != nil {
				t.Fatal(err)
			}
			wantLent := !dense && len(want) > 0 && mt.Size() >= minLentSeg*int64(len(segs))
			if (formOf(st) == lent) != wantLent {
				t.Fatalf("trial %d: %v x %d: stream %s, lent expected %v", trial, segs, count, formOf(st), wantLent)
			}
			if wantLent {
				lends++
			}
			if wantCharge := p.Config().MemcpyTime(int64(len(want))); p.Clock() != before+wantCharge {
				t.Fatalf("trial %d: the pack charged %v, want %v", trial, p.Clock()-before, wantCharge)
			}
			name := "random " + formOf(st)
			for k := 0; k < 8; k++ {
				at := rng.Int63n(int64(len(want)) + 1)
				n := rng.Int63n(int64(len(want)) - at + 1)
				checkViews(t, name, &st, buf, want, access, at, n)
			}
			checkViews(t, name, &st, buf, want, access, 0, int64(len(want)))
			st.Release()
			if !bytes.Equal(buf, keep) {
				t.Fatalf("trial %d: the stream modified the user buffer", trial)
			}
		}
		if lends < 100 {
			t.Errorf("only %d of 400 random types were lent", lends)
		}
	})
}

// TestWriteIndependentInPlace: the independent write of a dense buffer goes
// to storage straight from the user buffer — no pooled stream at all.
func TestWriteIndependentInPlace(t *testing.T) {
	single(t, func(f *File, fs *pfs.FileSystem) {
		buf := bytes.Repeat([]byte("flexio!!"), 64)
		gets := bufpool.Snapshot().Gets
		if err := f.WriteIndependent(buf, datatype.Bytes(8), 64); err != nil {
			t.Fatal(err)
		}
		if n := bufpool.Snapshot().Gets - gets; n != 0 {
			t.Errorf("a dense independent write took %d pooled buffer(s), want none", n)
		}
		if !bytes.Equal(fs.Snapshot("test.dat", int64(len(buf))), buf) {
			t.Error("file image differs from the user buffer")
		}
	})
}
