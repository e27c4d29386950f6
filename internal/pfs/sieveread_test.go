package pfs

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"flexio/internal/bufpool"
	"flexio/internal/datatype"
	"flexio/internal/metrics"
	"flexio/internal/sim"
	"flexio/internal/stats"
)

// stagedSieveRead is the reference SieveRead: the whole span is read into a
// staging buffer through the same access call, and the useful bytes are
// gathered out of it (all of them on success, those below the cut on a
// partial read). It is what SieveRead did before it stopped staging, kept
// here as the oracle.
func stagedSieveRead(h *Handle, span datatype.Seg, segs []datatype.Seg, buf []byte, now sim.Time) (sim.Time, error) {
	var useful int64
	for _, s := range segs {
		useful += s.Len
	}
	h.c.reg.Add(metrics.CSieveSpanBytes, span.Len)
	h.c.reg.Add(metrics.CSieveUsefulBytes, useful)
	tmp := make([]byte, span.Len)
	whole := []datatype.Seg{span}
	done, err := h.c.access("read", h.f, whole, whole, Bytes(tmp), true, now)
	cut := span.End()
	var pe *PartialError
	if errors.As(err, &pe) {
		cut = span.Off + pe.Written
	} else if err != nil {
		return done, err
	}
	var got int64
	for _, s := range segs {
		if s.Len == 0 {
			continue
		}
		n := min(s.End(), cut) - s.Off
		if n <= 0 {
			break
		}
		got += int64(copy(buf[got:got+n], tmp[s.Off-span.Off:]))
	}
	if pe != nil {
		return done, fmt.Errorf("pfs: read %q: %w", h.f.name, &PartialError{Written: got})
	}
	return done, nil
}

// sieveReadWorld is one file system prepared for the comparison: a file
// with written runs, holes inside written pages and pages never written.
type sieveReadWorld struct {
	fs  *FileSystem
	h   *Handle
	met *metrics.Set
}

func newSieveReadWorld(t *testing.T, integrity bool, prep func(w *sieveReadWorld)) *sieveReadWorld {
	t.Helper()
	cfg := sim.DefaultConfig()
	w := &sieveReadWorld{fs: NewFileSystem(cfg), met: metrics.NewSet(1)}
	if integrity {
		w.fs.EnableIntegrity(42, 1)
	}
	c := w.fs.NewClient(w.met.Registry(0))
	w.h = c.Open("f")
	ps := cfg.PageSize
	fill := func(off, n int64, seed byte) {
		b := make([]byte, n)
		for i := range b {
			b[i] = seed + byte(i*7)
		}
		if _, err := w.h.WriteAt(off, b, 0); err != nil {
			t.Fatal(err)
		}
	}
	fill(100, 700, 1)         // page 0: written run with a hole before and after
	fill(ps-50, 100, 2)       // straddles pages 0 and 1
	fill(3*ps+10, 2*ps, 3)    // page 2 is never written; 3..5 are
	fill(9*ps, ps/2, 4)       // pages 6..8 never written
	fill(9*ps+ps/2+64, 64, 5) // a hole inside page 9
	if prep != nil {
		prep(w)
	}
	return w
}

// TestSieveReadMatchesStagedReference drives SieveRead and the staging
// reference over two identically prepared file systems and requires the
// same bytes, error, completion time, stats and metrics: over holes and
// never-written pages, a span cut by a partial fault (at several
// fractions, including inside a segment and inside a gap), a hard fault,
// and — with the checksummed datapath on — a page no ring image can repair.
func TestSieveReadMatchesStagedReference(t *testing.T) {
	ps := sim.DefaultConfig().PageSize
	span := datatype.Seg{Off: 40, Len: 10 * ps}
	segs := []datatype.Seg{
		{Off: 40, Len: 30},           // hole before the first written run
		{Off: 90, Len: 200},          // hole into data
		{Off: 500, Len: 0},           // empty: delivers nothing, ends nothing
		{Off: 790, Len: 40},          // data into hole
		{Off: ps - 60, Len: 120},     // across a page boundary
		{Off: 2*ps + 5, Len: 300},    // a page never written
		{Off: 3 * ps, Len: ps + 500}, // hole, then more than a page of data
		{Off: 7 * ps, Len: 64},       // never-written page in the middle
		{Off: 9*ps + 100, Len: ps/2 + 100},
	}
	var useful int64
	for _, s := range segs {
		useful += s.Len
	}
	partial := func(frac float64) func(w *sieveReadWorld) {
		return func(w *sieveReadWorld) {
			w.fs.SetFaultSchedule(NewFaultSchedule(3).Add(Rule{
				Kind: "read", Class: ClassPartial, Frac: frac, Count: 1}))
		}
	}
	cases := []struct {
		name      string
		integrity bool
		prep      func(w *sieveReadWorld)
		wantErr   error
	}{
		{name: "clean"},
		{name: "clean-integrity", integrity: true},
		{name: "partial-0", prep: partial(0), wantErr: ErrPartial},
		{name: "partial-0.002", prep: partial(0.002), wantErr: ErrPartial}, // inside the second segment
		{name: "partial-0.05", prep: partial(0.05), wantErr: ErrPartial},   // inside a gap
		{name: "partial-0.33", prep: partial(0.33), wantErr: ErrPartial},
		{name: "partial-0.97", prep: partial(0.97), wantErr: ErrPartial},
		{name: "hard-fault", wantErr: ErrIO, prep: func(w *sieveReadWorld) {
			w.fs.SetFaultSchedule(NewFaultSchedule(3).Add(Rule{Kind: "read", Class: ClassIO, Count: 1}))
		}},
		{name: "unrepairable-page", integrity: true, wantErr: ErrDataIntegrity, prep: func(w *sieveReadWorld) {
			// The one-slot ring holds the last page written, not page 4.
			flipStored(w.fs, "f", 4*ps+77)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := newSieveReadWorld(t, tc.integrity, tc.prep)
			b := newSieveReadWorld(t, tc.integrity, tc.prep)
			got := bytes.Repeat([]byte{0xEE}, int(useful))
			want := bytes.Repeat([]byte{0xEE}, int(useful))
			gets := bufpool.Snapshot().Gets
			doneA, errA := a.h.SieveRead(span, segs, got, 1e-3)
			if n := bufpool.Snapshot().Gets - gets; n != 0 {
				t.Errorf("SieveRead took %d buffer(s) from the pool, want none", n)
			}
			doneB, errB := stagedSieveRead(b.h, span, segs, want, 1e-3)
			if !errors.Is(errA, tc.wantErr) {
				t.Fatalf("SieveRead error = %v, want %v", errA, tc.wantErr)
			}
			if fmt.Sprint(errA) != fmt.Sprint(errB) {
				t.Errorf("errors differ:\n  SieveRead %v\n  reference %v", errA, errB)
			}
			var peA, peB *PartialError
			if errors.As(errA, &peA) != errors.As(errB, &peB) || (peA != nil && peA.Written != peB.Written) {
				t.Errorf("partial progress differs: %+v vs %+v", peA, peB)
			}
			if doneA != doneB {
				t.Errorf("completion time %v, reference %v", doneA, doneB)
			}
			if !bytes.Equal(got, want) {
				t.Error("delivered bytes differ from the reference (bytes past a cut must stay untouched)")
			}
			if tc.wantErr == nil && !bytes.Equal(got, gatherImage(a.fs.Snapshot("f", span.End()), segs)) {
				t.Error("delivered bytes differ from the file image")
			}
			ra, rb := a.met.Registry(0), b.met.Registry(0)
			if sa, sb := stats.Of(ra), stats.Of(rb); sa.String() != sb.String() {
				t.Errorf("stats differ:\n  SieveRead %v\n  reference %v", sa, sb)
			}
			for ph := metrics.Phase(0); int(ph) < metrics.PhaseCount(); ph++ {
				if x, y := ra.Phase(ph), rb.Phase(ph); x != y {
					t.Errorf("phase %s = %v, reference %v", ph, x, y)
				}
			}
			for c := metrics.Counter(0); int(c) < metrics.CounterCount(); c++ {
				if x, y := ra.Counter(c), rb.Counter(c); x != y {
					t.Errorf("counter %d = %d, reference %d", c, x, y)
				}
			}
			if tc.integrity && a.fs.IntegrityStats() != b.fs.IntegrityStats() {
				t.Errorf("integrity stats %+v, reference %+v", a.fs.IntegrityStats(), b.fs.IntegrityStats())
			}
		})
	}
}

func gatherImage(img []byte, segs []datatype.Seg) []byte {
	var out []byte
	for _, s := range segs {
		out = append(out, img[s.Off:s.End()]...)
	}
	return out
}
