package mpiio

import (
	"bytes"
	"testing"

	"flexio/internal/bufpool"
	"flexio/internal/datatype"
	"flexio/internal/metrics"
	"flexio/internal/pfs"
)

// TestLinearizeAliasesOnlyDenseTypes: a dense memory type (one segment at
// offset 0 filling its extent) makes the stream a view of the user buffer;
// a segment at a nonzero offset, a size smaller than the extent and more
// than one segment all still pack into a pooled buffer. Either way the
// stream holds the same bytes datatype.Pack produces, and the modelled pack
// is charged exactly when asked.
func TestLinearizeAliasesOnlyDenseTypes(t *testing.T) {
	must := datatype.Must
	cases := []struct {
		name  string
		mt    datatype.Type
		count int64
		dense bool
	}{
		{"bytes", datatype.Bytes(48), 10, true},
		{"contig-of-bytes", must(datatype.Contiguous(4, datatype.Bytes(12))), 10, true},
		{"one-instance", datatype.Bytes(480), 1, true},
		{"zero-count", datatype.Bytes(48), 0, true},
		{"resized-gap", must(datatype.Resized(datatype.Bytes(40), 48)), 10, false},
		{"offset-segment", must(datatype.HIndexed([]int64{1}, []int64{8}, datatype.Bytes(40))), 10, false},
		{"two-segments", must(datatype.Vector(2, 1, 24, datatype.Bytes(16))), 10, false},
		{"empty-type", datatype.Bytes(0), 3, false},
	}
	single(t, func(f *File, _ *pfs.FileSystem) {
		p := f.Proc()
		for _, tc := range cases {
			buf := make([]byte, 480)
			for i := range buf {
				buf[i] = byte(i*13 + 5)
			}
			keep := bytes.Clone(buf)
			want, err := datatype.Pack(buf, tc.mt, 0, tc.count)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			for _, charged := range []bool{false, true} {
				before, copyTime := p.Clock(), p.Metrics.Phase(metrics.PCopy)
				st, err := f.Linearize(buf, tc.mt, tc.count, charged)
				if err != nil {
					t.Fatalf("%s: %v", tc.name, err)
				}
				stream, pooled := st.B, st.Pooled
				if !bytes.Equal(stream, want) {
					t.Errorf("%s: stream differs from Pack", tc.name)
				}
				if pooled == tc.dense {
					t.Errorf("%s: pooled = %v, want %v", tc.name, pooled, !tc.dense)
				}
				aliases := len(stream) > 0 && &stream[0] == &buf[0]
				if len(stream) > 0 && aliases != tc.dense {
					t.Errorf("%s: stream aliases the user buffer = %v, want %v", tc.name, aliases, tc.dense)
				}
				if tc.dense && cap(stream) != len(stream) {
					t.Errorf("%s: an in-place stream must not expose the buffer beyond the access (cap %d, len %d)",
						tc.name, cap(stream), len(stream))
				}
				wantCharge := p.Config().MemcpyTime(int64(len(want)))
				if !charged {
					wantCharge = 0
				}
				if p.Clock() != before+wantCharge {
					t.Errorf("%s charged=%v: clock moved %v, want %v", tc.name, charged, p.Clock()-before, wantCharge)
				}
				if got := p.Metrics.Phase(metrics.PCopy); got != copyTime+wantCharge {
					t.Errorf("%s charged=%v: copy time moved %v, want %v", tc.name, charged, got-copyTime, wantCharge)
				}
				// Owned hands on B itself when pooled, a copy otherwise.
				if own := st.Owned(); !bytes.Equal(own, want) || (len(own) > 0 && (&own[0] == &stream[0]) != pooled) {
					t.Errorf("%s: Owned returned the wrong buffer", tc.name)
				} else if !pooled {
					bufpool.Put(own)
				}
				st.Release()
			}
			if !bytes.Equal(buf, keep) {
				t.Errorf("%s: Linearize modified the user buffer", tc.name)
			}
		}
		// A buffer too small for a dense access is an error, not a panic.
		if _, err := f.Linearize(make([]byte, 100), datatype.Bytes(48), 10, false); err == nil {
			t.Error("short buffer accepted for a dense type")
		}
		if _, err := f.Linearize(make([]byte, 100), cases[4].mt, 10, false); err == nil {
			t.Error("short buffer accepted for a packed type")
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
