package pfs

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"testing"

	"flexio/internal/datatype"
	"flexio/internal/metrics"
	"flexio/internal/sim"
	"flexio/internal/stats"
)

const (
	goldenFile     = "golden.dat"
	goldenImageLen = 12 << 20
)

// goldenRun drives a fixed sequence of calls from two clients against a
// fresh file system and collects one line per observable: the completion
// time of every call (as float64 bits, so "equal" means bit-identical), and
// at the end every stats bucket and metrics counter the calls fed. Each call
// starts at the previous call's completion time, so one changed charge
// shifts every later line. Every byte read is checked against a flat
// in-memory image of the file. The clients take turns on one goroutine, so
// the listing does not depend on scheduling.
type goldenRun struct {
	t     *testing.T
	cfg   *sim.Config
	fs    *FileSystem
	image []byte
	mets  *metrics.Set
	hs    [2]*Handle
	out   []string
	now   sim.Time
	seq   int
}

// newGoldenRun builds the file system; cachePages sizes each client's page
// cache (a small one makes the LRU evict inside a single window).
func newGoldenRun(t *testing.T, integ bool, cachePages int) *goldenRun {
	g := &goldenRun{t: t, cfg: sim.DefaultConfig(), image: make([]byte, goldenImageLen), mets: metrics.NewSet(2)}
	g.cfg.ClientCachePages = cachePages
	g.fs = NewFileSystem(g.cfg)
	if integ {
		g.fs.EnableIntegrity(1234, 0)
	}
	for i := range g.hs {
		c := g.fs.NewClient(g.mets.Registry(i))
		g.hs[i] = c.Open(goldenFile)
	}
	return g
}

func (g *goldenRun) payload(n int64) []byte {
	b := make([]byte, n)
	for i := range b {
		g.seq++
		b[i] = byte(g.seq*131 + g.seq>>8)
	}
	return b
}

func (g *goldenRun) note(op string, done sim.Time, err error) {
	g.t.Helper()
	if err != nil {
		g.t.Fatalf("%s: %v", op, err)
	}
	g.out = append(g.out, fmt.Sprintf("%s done=%016x", op, math.Float64bits(float64(done))))
	g.now = done
}

// window is a sieve window: pieces and the span covering them.
type window struct {
	span datatype.Seg
	segs []datatype.Seg
}

// strided returns n pieces of length bytes, stride apart from off.
func strided(off, stride, length int64, n int) window {
	segs := make([]datatype.Seg, n)
	for i := range segs {
		segs[i] = datatype.Seg{Off: off + int64(i)*stride, Len: length}
	}
	return window{datatype.Seg{Off: off, Len: segs[n-1].End() - off}, segs}
}

func segBytes(segs []datatype.Seg) (n int64) {
	for _, s := range segs {
		n += s.Len
	}
	return n
}

func (g *goldenRun) scatter(segs []datatype.Seg, data []byte) {
	pos := int64(0)
	for _, s := range segs {
		copy(g.image[s.Off:s.End()], data[pos:pos+s.Len])
		pos += s.Len
	}
}

func (g *goldenRun) gather(segs []datatype.Seg) []byte {
	var b []byte
	for _, s := range segs {
		b = append(b, g.image[s.Off:s.End()]...)
	}
	return b
}

func (g *goldenRun) writeAt(c int, off, n int64) {
	g.t.Helper()
	data := g.payload(n)
	done, err := g.hs[c].WriteAt(off, data, g.now)
	copy(g.image[off:], data)
	g.note(fmt.Sprintf("c%d WriteAt(%d,%d)", c, off, n), done, err)
}

func (g *goldenRun) readAt(c int, off, n int64) {
	g.t.Helper()
	buf := bytes.Repeat([]byte{0xEE}, int(n))
	done, err := g.hs[c].ReadAt(off, buf, g.now)
	if !bytes.Equal(buf, g.image[off:off+n]) {
		g.t.Fatalf("c%d ReadAt(%d,%d) returned wrong bytes", c, off, n)
	}
	g.note(fmt.Sprintf("c%d ReadAt(%d,%d)", c, off, n), done, err)
}

func (g *goldenRun) sieveWrite(c int, w window) {
	g.t.Helper()
	span, segs := w.span, w.segs
	data := g.payload(segBytes(segs))
	done, err := g.hs[c].SieveWrite(span, segs, data, g.now)
	g.scatter(segs, data)
	g.note(fmt.Sprintf("c%d SieveWrite(%d,%d,%d segs)", c, span.Off, span.Len, len(segs)), done, err)
}

func (g *goldenRun) sieveRead(c int, w window) {
	g.t.Helper()
	span, segs := w.span, w.segs
	buf := bytes.Repeat([]byte{0xEE}, int(segBytes(segs)))
	done, err := g.hs[c].SieveRead(span, segs, buf, g.now)
	if !bytes.Equal(buf, g.gather(segs)) {
		g.t.Fatalf("c%d SieveRead(%d,%d) returned wrong bytes", c, span.Off, span.Len)
	}
	g.note(fmt.Sprintf("c%d SieveRead(%d,%d,%d segs)", c, span.Off, span.Len, len(segs)), done, err)
}

func (g *goldenRun) writeList(c int, segs []datatype.Seg) {
	g.t.Helper()
	data := g.payload(segBytes(segs))
	done, err := g.hs[c].WriteList(segs, data, g.now)
	g.scatter(segs, data)
	g.note(fmt.Sprintf("c%d WriteList(%d segs)", c, len(segs)), done, err)
}

func (g *goldenRun) readList(c int, segs []datatype.Seg) {
	g.t.Helper()
	buf := make([]byte, segBytes(segs))
	done, err := g.hs[c].ReadList(segs, buf, g.now)
	if !bytes.Equal(buf, g.gather(segs)) {
		g.t.Fatalf("c%d ReadList returned wrong bytes", c)
	}
	g.note(fmt.Sprintf("c%d ReadList(%d segs)", c, len(segs)), done, err)
}

// checkImage compares the whole file with the flat reference.
func (g *goldenRun) checkImage() {
	g.t.Helper()
	if got := g.fs.Snapshot(goldenFile, goldenImageLen); !bytes.Equal(got, g.image) {
		g.t.Fatal("file image differs from the flat reference")
	}
}

// listing finishes the run: the per-call lines, then file size, every stats
// bucket, every non-zero metrics counter, the OST service histogram and the
// OST busy-until times.
func (g *goldenRun) listing() []string {
	g.t.Helper()
	g.checkImage()
	out := append(g.out, fmt.Sprintf("size=%d", g.fs.Size(goldenFile)))
	for i := range g.hs {
		reg := g.mets.Registry(i)
		r := stats.Of(reg)
		var keys []string
		for _, k := range r.Phases() {
			keys = append(keys, fmt.Sprintf("c%d time[%s]=%016x", i, k, math.Float64bits(float64(r.Time(k)))))
		}
		for _, k := range r.Counters() {
			keys = append(keys, fmt.Sprintf("c%d n[%s]=%d", i, k, r.Counter(k)))
		}
		sort.Strings(keys)
		out = append(out, keys...)
		for c := metrics.Counter(0); int(c) < metrics.CounterCount(); c++ {
			if v := reg.Counter(c); v != 0 && metrics.CounterName(c) != "" {
				out = append(out, fmt.Sprintf("c%d %s=%d", i, metrics.CounterName(c), v))
			}
		}
		h := reg.Hist(metrics.PServe.Hist())
		out = append(out, fmt.Sprintf("c%d serve count=%d sum=%016x", i, h.Count(), math.Float64bits(h.Sum())))
	}
	for i, b := range g.fs.OSTBusy() {
		out = append(out, fmt.Sprintf("ost%d busy=%016x", i, math.Float64bits(float64(b))))
	}
	if g.fs.IntegrityEnabled() {
		// The outcome counters, as recorded; Stats.Hashed counts host work,
		// which is free to move, not a virtual charge.
		st := g.fs.IntegrityStats()
		out = append(out, fmt.Sprintf("integrity={Mismatches:%d Quarantined:%d Repairs:%d Unrepaired:%d Backlog:%d}",
			st.Mismatches, st.Quarantined, st.Repairs, st.Unrepaired, st.Backlog))
	}
	return out
}

// goldenDatapath is the datapath script. Client 0 runs the single-client
// part (plain and list writes, sieve windows with and without holes, reads
// over holes); client 1 then contends for the same pages and stripes
// (revokes, stripe conflicts, cache invalidation).
func goldenDatapath(g *goldenRun) {
	g.t.Helper()
	ss := g.cfg.StripeSize
	// Plain writes: unaligned inside a page, then across a stripe boundary.
	g.writeAt(0, 100, 10000)
	g.writeAt(0, ss-3000, 8000)
	// A sieve window without holes: four abutting pieces.
	g.sieveWrite(0, strided(65536, 10240, 10240, 4))
	// Sieve windows with holes: several sub-page runs per page on cold
	// pages, the same window again (warm cache, recorded pages), and one far
	// away whose pieces repave some pages whole and others in part.
	g.sieveWrite(0, strided(200000, 1000, 300, 50))
	g.sieveWrite(0, strided(200000, 1000, 300, 50))
	g.sieveWrite(0, strided(10<<20+123, 12000, 9000, 6))
	// A sieve window with holes across a stripe boundary and over pages the
	// plain write above left half filled.
	g.sieveWrite(0, strided(ss-20000, 3000, 1700, 12))
	// Sieve reads: over written pieces and their gaps, then over nothing.
	g.sieveRead(0, strided(190000, 7000, 2500, 10))
	g.sieveRead(0, strided(5<<20, 3000, 1000, 10))
	// Plain reads over holes: never written, cached, and half and half.
	g.readAt(0, 3<<20-100, 20000)
	g.readAt(0, 0, 20000)
	g.readAt(0, ss+4000, 10000)
	// List I/O.
	segs := strided(4<<20+77, 9000, 4500, 8).segs
	g.writeList(0, segs)
	g.readList(0, segs)

	// A second client takes pages and stripes away from the first.
	g.writeAt(1, 4096, 6000)
	g.sieveWrite(1, strided(201000, 1000, 300, 30))
	g.readAt(1, ss-8192, 16384)
	g.sieveRead(1, strided(4<<20, 6000, 2000, 12))
	// ... and the first takes some back.
	g.writeAt(0, 6000, 300)
	g.sieveWrite(0, strided(199000, 2500, 1200, 20))
	g.readAt(0, 190000, 70000)
}

// goldenLifecycle is the script for the calls that reset or drop per-file
// state between accesses: both timing resets, a snapshot, and removing the
// file under clients that keep their caches and open it again.
func goldenLifecycle(g *goldenRun) {
	g.t.Helper()
	ss := g.cfg.StripeSize
	g.writeAt(0, 100, 20000)
	g.sieveWrite(0, strided(ss-30000, 5000, 2100, 14))
	g.writeAt(1, 8192, 5000)
	// Queues and seek positions go, locks and caches stay: client 0 still
	// has to revoke, and still finds its own pages cached.
	g.fs.ResetTimingKeepLocks()
	g.writeAt(0, 8000, 9000)
	g.readAt(0, 0, 30000)
	g.sieveWrite(1, strided(ss-29000, 5000, 2100, 14))
	// Everything but the contents goes: no revokes, cold caches.
	g.fs.ResetTiming()
	g.checkImage()
	g.writeAt(1, 300, 500)
	g.readAt(0, 0, 30000)
	g.sieveWrite(0, strided(ss-30000, 5000, 2100, 14))
	g.sieveRead(1, strided(ss-31000, 4000, 1500, 16))
	// The file goes, the clients stay and open the name again.
	g.fs.Remove(goldenFile)
	clear(g.image)
	g.checkImage()
	for i := range g.hs {
		g.hs[i] = g.hs[i].c.Open(goldenFile)
	}
	g.writeAt(0, 200, 300)
	g.readAt(1, 0, 30000)
	g.sieveWrite(1, strided(ss-30000, 5000, 2100, 14))
	g.writeAt(0, ss-100, 200)
	g.readAt(0, ss-32768, 65536)
}

// TestGoldenVirtualTimes pins every virtual charge of the pfs datapath. The
// listings under testdata were recorded at the commit before the page-indexed
// tables and the timing-only sieve prefetch went in: how the host stores
// pages, locks and checksums must never move a completion time or a counter.
func TestGoldenVirtualTimes(t *testing.T) {
	for _, tc := range []struct {
		name       string
		script     func(*goldenRun)
		integ      bool
		cachePages int
	}{
		{"plain", goldenDatapath, false, 4096},
		{"integrity", goldenDatapath, true, 4096},
		{"small-cache", goldenDatapath, false, 6},
		{"lifecycle", goldenLifecycle, false, 4096},
		{"lifecycle-integrity", goldenLifecycle, true, 4096},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := newGoldenRun(t, tc.integ, tc.cachePages)
			tc.script(g)
			got := g.listing()
			raw, err := os.ReadFile("testdata/golden_" + tc.name + ".txt")
			if err != nil {
				t.Fatal(err)
			}
			want := strings.Split(strings.TrimSpace(string(raw)), "\n")
			if len(got) != len(want) {
				t.Fatalf("%d lines, want %d; got:\n%s", len(got), len(want), strings.Join(got, "\n"))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Errorf("line %d: got %q, want %q", i, got[i], want[i])
				}
			}
		})
	}
}
