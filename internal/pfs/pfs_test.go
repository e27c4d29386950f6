package pfs

import (
	"bytes"
	"errors"
	"runtime"
	"testing"

	"flexio/internal/datatype"
	"flexio/internal/metrics"
	"flexio/internal/sim"
)

func newFS() (*FileSystem, *sim.Config) {
	cfg := sim.DefaultConfig()
	return NewFileSystem(cfg), cfg
}

func TestWriteReadRoundTrip(t *testing.T) {
	fs, _ := newFS()
	c := fs.NewClient(nil)
	h := c.Open("f")
	data := []byte("hello, parallel world")
	if _, err := h.WriteAt(100, data, 0); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(data))
	if _, err := h.ReadAt(100, buf, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, data) {
		t.Fatalf("read back %q", buf)
	}
	if fs.Size("f") != 100+int64(len(data)) {
		t.Fatalf("size = %d", fs.Size("f"))
	}
}

func TestReadUnwrittenIsZeros(t *testing.T) {
	fs, _ := newFS()
	h := fs.NewClient(nil).Open("f")
	buf := []byte{1, 2, 3, 4}
	if _, err := h.ReadAt(0, buf, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, make([]byte, 4)) {
		t.Fatalf("unwritten read = %v", buf)
	}
}

func TestWriteAcrossPageAndStripeBoundaries(t *testing.T) {
	fs, cfg := newFS()
	h := fs.NewClient(nil).Open("f")
	// Span two stripes.
	off := cfg.StripeSize - 3000
	data := make([]byte, 6000)
	for i := range data {
		data[i] = byte(i % 251)
	}
	if _, err := h.WriteAt(off, data, 0); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(data))
	h.ReadAt(off, buf, 0)
	if !bytes.Equal(buf, data) {
		t.Fatal("cross-stripe data corrupted")
	}
}

func TestWriteListScatter(t *testing.T) {
	fs, _ := newFS()
	h := fs.NewClient(nil).Open("f")
	segs := []datatype.Seg{{Off: 0, Len: 4}, {Off: 100, Len: 4}, {Off: 5000, Len: 4}}
	if _, err := h.WriteList(segs, []byte("aaaabbbbcccc"), 0); err != nil {
		t.Fatal(err)
	}
	img := fs.Snapshot("f", 5004)
	if string(img[0:4]) != "aaaa" || string(img[100:104]) != "bbbb" || string(img[5000:5004]) != "cccc" {
		t.Fatal("list write misplaced data")
	}
	// ReadList gathers the same bytes; an empty segment among them reads
	// nothing.
	buf := make([]byte, 12)
	if _, err := h.ReadList([]datatype.Seg{segs[0], segs[1], {Off: 300, Len: 0}, segs[2]}, buf, 0); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "aaaabbbbcccc" {
		t.Fatalf("list read = %q", buf)
	}
}

func TestWriteListLengthMismatch(t *testing.T) {
	fs, _ := newFS()
	h := fs.NewClient(nil).Open("f")
	if _, err := h.WriteList([]datatype.Seg{{Off: 0, Len: 8}}, []byte("xx"), 0); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := h.ReadList([]datatype.Seg{{Off: 0, Len: 8}}, make([]byte, 2), 0); err == nil {
		t.Fatal("read length mismatch accepted")
	}
	if _, err := h.WriteAt(-1, []byte("x"), 0); err == nil {
		t.Fatal("negative offset accepted")
	}
}

func TestListIOChargesOneCallOverhead(t *testing.T) {
	fs, cfg := newFS()
	rec := metrics.NewRegistry(0)
	h := fs.NewClient(rec).Open("f")
	segs := make([]datatype.Seg, 64)
	data := make([]byte, 64*8)
	for i := range segs {
		segs[i] = datatype.Seg{Off: int64(i) * 128, Len: 8}
	}
	listDone, err := h.WriteList(segs, data, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := rec.Counter(metrics.CIOCalls); got != 1 {
		t.Fatalf("list write counted as %d calls", got)
	}

	fs2 := NewFileSystem(cfg)
	h2 := fs2.NewClient(nil).Open("f")
	var now sim.Time
	for i := range segs {
		now, err = h2.WriteAt(segs[i].Off, data[:8], now)
		if err != nil {
			t.Fatal(err)
		}
	}
	if !(listDone < now) {
		t.Fatalf("list I/O (%v) not faster than %d separate calls (%v)", listDone, len(segs), now)
	}
}

func TestContiguousFasterThanStrided(t *testing.T) {
	fs, _ := newFS()
	h := fs.NewClient(nil).Open("f")
	data := make([]byte, 1<<20)
	contigDone, _ := h.WriteAt(0, data, 0)

	fs2, _ := newFS()
	h2 := fs2.NewClient(nil).Open("f")
	segs := make([]datatype.Seg, 256)
	for i := range segs {
		segs[i] = datatype.Seg{Off: int64(i) * 8192, Len: 4096}
	}
	stridedDone, _ := h2.WriteList(segs, data[:256*4096], 0)
	if !(contigDone < stridedDone) {
		t.Fatalf("contiguous (%v) not faster than strided (%v)", contigDone, stridedDone)
	}
}

func TestUnalignedWritePaysRMW(t *testing.T) {
	fs, _ := newFS()
	rec := metrics.NewRegistry(0)
	h := fs.NewClient(rec).Open("f")
	// Page-aligned full-page write: no RMW.
	if _, err := h.WriteAt(4096, make([]byte, 4096), 0); err != nil {
		t.Fatal(err)
	}
	if got := rec.Counter(metrics.CRMWPages); got != 0 {
		t.Fatalf("aligned write RMW pages = %d", got)
	}
	// Unaligned sub-page write to a cold page: RMW.
	if _, err := h.WriteAt(100_000, make([]byte, 64), 0); err != nil {
		t.Fatal(err)
	}
	if got := rec.Counter(metrics.CRMWPages); got != 1 {
		t.Fatalf("unaligned write RMW pages = %d", got)
	}
	// A second write to the same (now cached) page: no new RMW.
	if _, err := h.WriteAt(100_200, make([]byte, 64), 0); err != nil {
		t.Fatal(err)
	}
	if got := rec.Counter(metrics.CRMWPages); got != 1 {
		t.Fatalf("cached page write RMW pages = %d", got)
	}
}

func TestLockCachingAndRevocation(t *testing.T) {
	fs, _ := newFS()
	recA, recB := metrics.NewRegistry(0), metrics.NewRegistry(1)
	a := fs.NewClient(recA)
	b := fs.NewClient(recB)
	ha, hb := a.Open("f"), b.Open("f")

	ha.WriteAt(0, make([]byte, 8192), 0)
	if recA.Counter(metrics.CLockGrants) == 0 {
		t.Fatal("first write acquired no locks")
	}
	grants := recA.Counter(metrics.CLockGrants)

	// Same client, same pages: lock cache hits, no new grants.
	ha.WriteAt(0, make([]byte, 8192), 0)
	if recA.Counter(metrics.CLockGrants) != grants {
		t.Fatal("re-write re-acquired locks")
	}
	if recA.Counter(metrics.CCacheHits) == 0 {
		t.Fatal("no lock cache hits recorded")
	}

	// Other client touching the same pages must revoke.
	hb.WriteAt(0, make([]byte, 4096), 0)
	if recB.Counter(metrics.CLockRevokes) == 0 {
		t.Fatal("conflicting write caused no revocation")
	}

	// And client A's cached page is gone: writing part of it pays RMW.
	before := recA.Counter(metrics.CRMWPages)
	ha.WriteAt(64, make([]byte, 8), 0)
	if recA.Counter(metrics.CRMWPages) != before+1 {
		t.Fatal("revoked page still served from cache")
	}
}

func TestRevocationCostsTime(t *testing.T) {
	fs, cfg := newFS()
	a := fs.NewClient(nil).Open("f")
	b := fs.NewClient(nil).Open("f")
	a.WriteAt(0, make([]byte, 4096), 0)
	fs.ResetTimingKeepLocks()
	done, _ := b.WriteAt(0, make([]byte, 4096), 0)

	fs2 := NewFileSystem(cfg)
	b2 := fs2.NewClient(nil).Open("f")
	done2, _ := b2.WriteAt(0, make([]byte, 4096), 0)
	if !(done > done2) {
		t.Fatalf("revocation (%v) not slower than clean acquire (%v)", done, done2)
	}
}

func TestOSTContentionSerializes(t *testing.T) {
	fs, cfg := newFS()
	a := fs.NewClient(nil).Open("f")
	b := fs.NewClient(nil).Open("f")
	// Both write to the same stripe (same OST) at the same virtual time.
	n := int64(1 << 20)
	t1, _ := a.WriteAt(0, make([]byte, n), 0)
	t2, _ := b.WriteAt(n, make([]byte, n), 0) // still stripe 0 (2MB stripes)
	if !(t2 > t1) {
		t.Fatalf("same-OST requests not serialized: %v then %v", t1, t2)
	}
	// Different stripes on different OSTs proceed in parallel.
	fs2 := NewFileSystem(cfg)
	c := fs2.NewClient(nil).Open("f")
	d := fs2.NewClient(nil).Open("f")
	u1, _ := c.WriteAt(0, make([]byte, n), 0)
	u2, _ := d.WriteAt(cfg.StripeSize, make([]byte, n), 0)
	if u2 > u1+cfg.IOCallOverhead+1e-3 {
		t.Fatalf("different-OST requests serialized: %v then %v", u1, u2)
	}
}

func TestReadFromCacheIsFast(t *testing.T) {
	fs, _ := newFS()
	rec := metrics.NewRegistry(0)
	h := fs.NewClient(rec).Open("f")
	h.WriteAt(0, make([]byte, 65536), 0)
	t1, _ := h.ReadAt(0, make([]byte, 65536), 0) // all pages cached by the write
	fs.ResetTiming()
	t2, _ := h.ReadAt(0, make([]byte, 65536), 0) // cold
	if !(t1 < t2) {
		t.Fatalf("cached read (%v) not faster than cold read (%v)", t1, t2)
	}
}

func TestFaultInjection(t *testing.T) {
	fs, _ := newFS()
	h := fs.NewClient(nil).Open("f")
	boom := errors.New("injected EIO")
	fs.SetFaultSchedule(NewFaultSchedule(0).WithHook(func(op Op) error {
		if op.Kind == "write" && op.Off == 4096 {
			return boom
		}
		return nil
	}))
	if _, err := h.WriteAt(0, []byte("ok"), 0); err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
	if _, err := h.WriteAt(4096, []byte("no"), 0); !errors.Is(err, boom) {
		t.Fatalf("fault not injected: %v", err)
	}
	// The failed write left no data behind.
	if img := fs.Snapshot("f", 4099); img[4096] != 0 {
		t.Fatal("failed write modified the file")
	}
	fs.SetFaultSchedule(nil)
	if _, err := h.WriteAt(4096, []byte("yes"), 0); err != nil {
		t.Fatalf("hook not cleared: %v", err)
	}
}

func TestRemoveAndSnapshot(t *testing.T) {
	fs, _ := newFS()
	h := fs.NewClient(nil).Open("f")
	h.WriteAt(0, []byte("data"), 0)
	fs.Remove("f")
	if fs.Size("f") != 0 {
		t.Fatal("file not removed")
	}
	if img := fs.Snapshot("f", 4); !bytes.Equal(img, make([]byte, 4)) {
		t.Fatal("snapshot of removed file not zeroed")
	}
}

func TestZeroLengthAccess(t *testing.T) {
	fs, _ := newFS()
	rec := metrics.NewRegistry(0)
	h := fs.NewClient(rec).Open("f")
	done, err := h.WriteAt(0, nil, 5)
	if err != nil || done != 5 {
		t.Fatalf("zero write: done=%v err=%v", done, err)
	}
	if rec.Counter(metrics.CIOCalls) != 0 {
		t.Fatal("zero-length access counted as an I/O call")
	}
}

func TestPageCacheLRU(t *testing.T) {
	pc := newPageCache(2)
	pc.put(0, 1)
	pc.put(0, 2)
	pc.has(0, 1) // refresh 1
	pc.put(0, 3) // evicts 2
	if pc.has(0, 2) {
		t.Fatal("LRU did not evict page 2")
	}
	if !pc.has(0, 1) || !pc.has(0, 3) {
		t.Fatal("LRU evicted the wrong page")
	}
	pc.drop(0, 1)
	if pc.has(0, 1) {
		t.Fatal("drop did not remove page")
	}
	if pc.size() != 1 {
		t.Fatalf("size = %d", pc.size())
	}
	pc.reset()
	if pc.size() != 0 {
		t.Fatal("reset did not clear")
	}
}

func TestPageCacheZeroCapacity(t *testing.T) {
	pc := newPageCache(0)
	pc.put(0, 1)
	if pc.has(0, 1) {
		t.Fatal("zero-capacity cache stored a page")
	}
}

// TestTablesFollowPagesTouched: one page written a tebibyte into the file
// costs one chunk per table — the page store, the stripe-writer table, the
// client's cache index, the checksum store — not memory proportional to
// the offset.
func TestTablesFollowPagesTouched(t *testing.T) {
	fs, cfg := newFS()
	fs.EnableIntegrity(1, 0)
	c := fs.NewClient(metrics.NewRegistry(0))
	h := c.Open("sparse.dat")
	data := bytes.Repeat([]byte{0xC3}, int(cfg.PageSize))
	buf := make([]byte, cfg.PageSize)
	const off = int64(1) << 40

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := h.WriteAt(off, data, 0); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	// Everything the write allocated: the page, its ring image, one chunk
	// of every table, the maps that hold them.
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
		t.Fatalf("one page at offset 1<<40 allocated %d bytes, want under 64 KiB", grew)
	}
	f := fs.files["sparse.dat"]
	if f.pages.Chunks() != 1 || f.stripeWriter.Chunks() != 1 || c.cache.index[f.id].Chunks() != 1 {
		t.Fatalf("chunks: pages %d, stripe writers %d, cache index %d, want 1 each",
			f.pages.Chunks(), f.stripeWriter.Chunks(), c.cache.index[f.id].Chunks())
	}
	if _, err := h.ReadAt(off, buf, 0); err != nil || !bytes.Equal(buf, data) {
		t.Fatalf("read back at 1<<40: %v", err)
	}
	// Reads over the hole before it find nothing and allocate nothing.
	if _, err := h.ReadAt(off/2, buf, 0); err != nil || !bytes.Equal(buf, make([]byte, len(buf))) {
		t.Fatalf("read of the hole: %v", err)
	}
	if f.pages.Chunks() != 1 {
		t.Fatalf("reading a hole grew the page table to %d chunks", f.pages.Chunks())
	}
	if fs.Size("sparse.dat") != off+cfg.PageSize {
		t.Fatalf("size = %d", fs.Size("sparse.dat"))
	}
	// Snapshot sees a prefix only; a read repair finds the page through the
	// same table; Remove forgets the page and its backlog.
	if img := fs.Snapshot("sparse.dat", 8192); !bytes.Equal(img, make([]byte, 8192)) {
		t.Fatal("snapshot of the empty prefix is not zeros")
	}
	flipStored(fs, "sparse.dat", off+18)
	if _, err := h.ReadAt(off, buf, 0); err != nil {
		t.Fatalf("ring repair on read: %v", err)
	}
	fs.Remove("sparse.dat")
	if fs.Size("sparse.dat") != 0 || fs.IntegrityStats().Backlog != 0 {
		t.Fatal("Remove left size or quarantine backlog behind")
	}
}
