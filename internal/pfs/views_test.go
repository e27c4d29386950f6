package pfs

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"flexio/internal/datatype"
	"flexio/internal/sim"
	"flexio/internal/trace"
)

// inPage reports whether v's bytes lie inside page.
func inPage(v, page []byte) bool {
	if len(v) == 0 || len(page) == 0 {
		return false
	}
	p, lo := uintptr(unsafe.Pointer(&v[0])), uintptr(unsafe.Pointer(&page[0]))
	return p >= lo && p+uintptr(len(v)) <= lo+uintptr(len(page))
}

// TestPageViewsMatchReadList: Views lends, and ReadList copies, the file's
// bytes. Over a file of written, partly written and never written pages that
// ends inside a page, random offset-sorted lists (overlapping, zero-length
// and past-EOF segments among them) get views whose bytes, back to back, and
// ReadList's bytes are both the file image's (fs.Snapshot) cut per segment;
// every view is capped, one per page fragment; a fragment of a hole or past
// the end of the file is a view of the zero page and any other one a view of
// its own page.
func TestPageViewsMatchReadList(t *testing.T) {
	fs, cfg := newFS()
	ps := cfg.PageSize
	h := fs.NewClient(nil).Open("f")
	rng := rand.New(rand.NewSource(1))
	fill := func(n int64) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(1 + rng.Intn(255))
		}
		return b
	}
	// Pages 0-1 written in part, 3 whole, 5 from its middle to the end of
	// the file at 5.5 pages; 2, 4 and everything from 6 on never written.
	for _, s := range []datatype.Seg{{Off: 100, Len: 900}, {Off: ps + 7, Len: 13}, {Off: 3 * ps, Len: ps}, {Off: 5*ps + ps/4, Len: ps / 4}} {
		if _, err := h.WriteAt(s.Off, fill(s.Len), 0); err != nil {
			t.Fatal(err)
		}
	}
	size := fs.Size("f")
	if size != 5*ps+ps/2 {
		t.Fatalf("file size %d", size)
	}
	img := fs.Snapshot("f", 32*ps) // past every segment a trial draws
	for trial := 0; trial < 300; trial++ {
		segs := make([]datatype.Seg, 1+rng.Intn(8))
		off := rng.Int63n(2 * ps)
		for k := range segs {
			n := rng.Int63n(2 * ps)
			if rng.Intn(5) == 0 {
				n = 0
			}
			segs[k] = datatype.Seg{Off: off, Len: n}
			// The next segment may start inside this one.
			off += rng.Int63n(n + ps/2)
		}
		var want []byte
		for _, s := range segs {
			want = append(want, img[s.Off:s.End()]...)
		}
		read := make([]byte, len(want))
		if _, err := h.ReadList(segs, read, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(read, want) {
			t.Fatalf("trial %d %v: ReadList's bytes differ from the file image", trial, segs)
		}
		views := h.Views(segs, nil)
		if got := bytes.Join(views, nil); !bytes.Equal(got, want) {
			t.Fatalf("trial %d %v: views differ from the file image", trial, segs)
		}
		k := 0
		for _, s := range segs {
			for abs := s.Off; abs < s.End(); k++ {
				in := abs % ps
				n := min(ps-in, s.End()-abs)
				v := views[k]
				if int64(len(v)) != n || cap(v) != len(v) {
					t.Fatalf("trial %d: view %d has len %d cap %d, want a capped view of %d bytes", trial, k, len(v), cap(v), n)
				}
				page := fs.files["f"].page(abs / ps)
				hole := page == nil || abs >= size
				if hole != inPage(v, fs.zero) || !hole && !inPage(v, page[in:]) {
					t.Fatalf("trial %d: view %d of [%d,+%d) (hole %v) is not where it lies", trial, k, abs, n, hole)
				}
				abs += n
			}
		}
		if k != len(views) {
			t.Fatalf("trial %d: %d views for %d page fragments", trial, len(views), k)
		}
	}

	var n int64
	for _, v := range fs.ZeroViews(nil, 3*ps+5) {
		if !inPage(v, fs.zero) || cap(v) != len(v) {
			t.Fatal("a zero view is not a capped view of the zero page")
		}
		n += int64(len(v))
	}
	if n != 3*ps+5 || !bytes.Equal(fs.zero, make([]byte, ps)) {
		t.Fatalf("zero views cover %d bytes; zero page intact: %v", n, bytes.Equal(fs.zero, make([]byte, ps)))
	}
}

// TestTimingOnlySieveReadCostsTheSame: a sieve read with no buffer delivers
// nothing but takes the time of one with a buffer. Neither it nor a
// timing-only ReadList allocates, and a buffered ReadList on a warm client
// allocates nothing either: its page-view table is the client's scratch. Nor
// do a sieve window's write and a list write over pages already present: the
// one request path keeps no per-call scratch of its own.
func TestTimingOnlySieveReadCostsTheSame(t *testing.T) {
	span := datatype.Seg{Off: 10, Len: 7990}
	segs := []datatype.Seg{{Off: 10, Len: 100}, {Off: 5000, Len: 3000}}
	open := func() *Handle {
		fs, cfg := newFS()
		h := fs.NewClient(nil).Open("f")
		if _, err := h.WriteAt(0, bytes.Repeat([]byte{7}, int(3*cfg.PageSize)), 0); err != nil {
			t.Fatal(err)
		}
		fs.ResetTiming()
		return fs.NewClient(nil).Open("f")
	}
	run := func(buf []byte) sim.Time {
		done, err := open().SieveRead(span, segs, buf, 1)
		if err != nil {
			t.Fatal(err)
		}
		return done
	}
	withBuf, timingOnly := run(make([]byte, 3100)), run(nil)
	if withBuf != timingOnly {
		t.Fatalf("timing-only sieve read completes at %v, a buffered one at %v", timingOnly, withBuf)
	}

	h := open()
	buf := make([]byte, 3100)
	for _, tc := range []struct {
		name string
		read func() (sim.Time, error)
	}{
		{"timing-only ReadList", func() (sim.Time, error) { return h.ReadList(segs, nil, 1) }},
		{"timing-only SieveRead", func() (sim.Time, error) { return h.SieveRead(span, segs, nil, 1) }},
		{"buffered ReadList", func() (sim.Time, error) { return h.ReadList(segs, buf, 1) }},
		{"warm SieveWrite", func() (sim.Time, error) { return h.SieveWrite(span, segs, buf, 1) }},
		{"warm WriteList", func() (sim.Time, error) { return h.WriteList(segs, buf, 1) }},
	} {
		var err error
		if n := testing.AllocsPerRun(20, func() { _, err = tc.read() }); n != 0 || err != nil {
			t.Errorf("%s: %.1f allocations per call (err %v), want 0", tc.name, n, err)
		}
	}
}

// TestIOCallCountsTheSegmentsItMoves pins the io_call instant's segs tag in
// both directions: a list request counts its segments, a sieve window the
// segments it gathers or lands, buffered or timing-only, and a sieve write's
// prefetch its one span.
func TestIOCallCountsTheSegmentsItMoves(t *testing.T) {
	span := datatype.Seg{Off: 10, Len: 7990}
	segs := []datatype.Seg{{Off: 10, Len: 100}, {Off: 900, Len: 50}, {Off: 5000, Len: 3000}}
	buf := make([]byte, 3150)
	type call struct {
		kind string
		segs int64
	}
	for _, tc := range []struct {
		name string
		do   func(h *Handle) (sim.Time, error)
		want []call
	}{
		{"ReadList", func(h *Handle) (sim.Time, error) { return h.ReadList(segs, buf, 1) },
			[]call{{"read", 3}}},
		{"SieveRead", func(h *Handle) (sim.Time, error) { return h.SieveRead(span, segs, buf, 1) },
			[]call{{"read", 3}}},
		{"timing-only SieveRead", func(h *Handle) (sim.Time, error) { return h.SieveRead(span, segs, nil, 1) },
			[]call{{"read", 3}}},
		{"WriteList", func(h *Handle) (sim.Time, error) { return h.WriteList(segs, buf, 1) },
			[]call{{"write", 3}}},
		{"SieveWrite", func(h *Handle) (sim.Time, error) { return h.SieveWrite(span, segs, buf, 1) },
			[]call{{"read", 1}, {"sieve_write", 3}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs, _ := newFS()
			c := fs.NewClient(nil)
			tr := trace.NewTracer(0, 0)
			c.SetTracer(tr)
			if _, err := tc.do(c.Open("f")); err != nil {
				t.Fatal(err)
			}
			var got []call
			for _, e := range tr.Events() {
				if e.Name != "io_call" {
					continue
				}
				var k call
				for _, tag := range e.Tags {
					switch tag.Key {
					case "kind":
						k.kind = tag.Str
					case "segs":
						k.segs = tag.Int
					}
				}
				got = append(got, k)
			}
			if !slices.Equal(got, tc.want) {
				t.Errorf("io_call (kind, segs) = %v, want %v", got, tc.want)
			}
		})
	}
}
