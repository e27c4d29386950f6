package pfs

import (
	"bytes"
	"testing"
	"unsafe"

	"flexio/internal/datatype"
	"flexio/internal/metrics"
)

// TestPageSlotSize: a page's bookkeeping is its bytes and its lock owner,
// 32 bytes for every page of every file.
func TestPageSlotSize(t *testing.T) {
	if n := unsafe.Sizeof(pageSlot{}); n != 32 {
		t.Fatalf("pageSlot is %d bytes, want 32", n)
	}
}

// TestSievePreMergeRehashesChangedPages: between a sieve window's RMW
// prefetch and its write-back (the write-back's fault hook runs there,
// without fs.mu), a second client writes into a gap of each of the window's
// two pages, and a flip rule corrupts the first of those writes. The
// prefetch's verdicts no longer describe either page, so the pre-merge gate
// hashes both again: it catches the corruption, counts it and repairs it
// from the ring, and the second page's hash shows the gate did not trust a
// page only writeBytes had changed.
func TestSievePreMergeRehashesChangedPages(t *testing.T) {
	fs, cfg := newIntegFS(64)
	ps := cfg.PageSize
	mets := metrics.NewSet(1)
	c1 := fs.NewClient(mets.Registry(0))
	h1 := c1.Open("f")
	h2 := fs.NewClient(nil).Open("f")
	base := bytes.Repeat([]byte{0xAB}, int(2*ps))
	if _, err := h1.WriteAt(0, base, 0); err != nil {
		t.Fatal(err)
	}
	gap0 := bytes.Repeat([]byte{0x33}, 100)
	gap1 := bytes.Repeat([]byte{0x44}, 100)
	var hookHashed int64
	fired := false
	sched := NewFaultSchedule(5).WithHook(func(op Op) error {
		if op.Kind != "write" || !op.Sieve || op.Client != c1.ID() || fired {
			return nil
		}
		fired = true
		before := fs.IntegrityStats().Hashed
		if _, err := h2.WriteAt(1000, gap0, 0); err != nil {
			t.Error(err)
		}
		if _, err := h2.WriteAt(ps+1000, gap1, 0); err != nil {
			t.Error(err)
		}
		hookHashed = fs.IntegrityStats().Hashed - before
		return nil
	})
	sched.Add(Rule{Match: func(op Op) bool { return op.Off == 1000 }, Class: ClassBitflip, Count: 1})
	fs.SetFaultSchedule(sched)

	span := datatype.Seg{Off: 0, Len: 2 * ps}
	segs := []datatype.Seg{{Off: 0, Len: 256}, {Off: 512, Len: 256}, {Off: ps + 100, Len: 50}}
	patch := bytes.Repeat([]byte{0x5A}, int(segBytes(segs)))
	before := fs.IntegrityStats().Hashed
	if _, err := h1.SieveWrite(span, segs, patch, 0); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("the hook never saw the write-back")
	}
	st := fs.IntegrityStats()
	if st.Mismatches != 1 || st.Repairs != 1 || st.Backlog != 0 {
		t.Fatalf("stats = %+v, want the corrupted gap write caught and ring-repaired", st)
	}
	reg := mets.Registry(0)
	if reg.Counter(metrics.CIntegAtRestMismatch) != 1 || reg.Counter(metrics.CIntegRepaired) != 1 {
		t.Errorf("window's rank: mismatches %d, repaired %d, want 1 and 1",
			reg.Counter(metrics.CIntegAtRestMismatch), reg.Counter(metrics.CIntegRepaired))
	}
	// Prefetch, pre-merge and record, each over both pages.
	if got := st.Hashed - before - hookHashed; got != 6 {
		t.Errorf("the window hashed %d pages, want 6: both changed pages take the full gate", got)
	}
	want := append([]byte{}, base...)
	copy(want[1000:], gap0)
	copy(want[ps+1000:], gap1)
	pos := 0
	for _, s := range segs {
		pos += copy(want[s.Off:s.End()], patch[pos:])
	}
	if got := fs.Snapshot("f", 2*ps); !bytes.Equal(got, want) {
		t.Fatal("stored image is not the window over both gap writes")
	}
	buf := make([]byte, 2*ps)
	if _, err := h1.ReadAt(0, buf, 0); err != nil || !bytes.Equal(buf, want) {
		t.Fatalf("read back after the window: err %v", err)
	}
}

// TestSieveWindowHashesPagesThrice pins the host's checksum passes of a
// sieve window with integrity armed: each partly covered page is hashed
// three times, by the prefetch's verify, by the pre-merge gate and by the
// record. A page the prefetch left quarantined takes the gate's repair
// branch, which does not hash.
func TestSieveWindowHashesPagesThrice(t *testing.T) {
	const pages = 8
	fs, cfg := newIntegFS(64)
	ps := cfg.PageSize
	h := fs.NewClient(nil).Open("f")
	if _, err := h.WriteAt(0, bytes.Repeat([]byte{0x11}, int(pages*ps)), 0); err != nil {
		t.Fatal(err)
	}
	// Three pieces in every page, none repaving one whole.
	w := strided(100, ps/3, 700, 3*pages)
	w.span = datatype.Seg{Off: 0, Len: pages * ps}
	data := bytes.Repeat([]byte{0x22}, int(segBytes(w.segs)))
	window := func(fs *FileSystem, h *Handle) int64 {
		t.Helper()
		before := fs.IntegrityStats().Hashed
		if _, err := h.SieveWrite(w.span, w.segs, data, 0); err != nil {
			t.Fatal(err)
		}
		return fs.IntegrityStats().Hashed - before
	}
	window(fs, h) // warm: caches, locks
	if got := window(fs, h); got != 3*pages {
		t.Errorf("steady-state window hashed %d pages, want %d (3 per partly covered page)", got, 3*pages)
	}

	// A one-slot ring cannot repair page 3: the prefetch verifies pages 0-2
	// clean and stops at 3. The gate hashes 0-2 and 4-7 and takes 3's
	// repair branch (no hash); records hash every page but the still
	// poisoned 3.
	fs, _ = newIntegFS(1)
	h = fs.NewClient(nil).Open("f")
	if _, err := h.WriteAt(0, bytes.Repeat([]byte{0x11}, int(pages*ps)), 0); err != nil {
		t.Fatal(err)
	}
	flipStored(fs, "f", 3*ps+50)
	if got, want := window(fs, h), int64(4+(pages-1)+(pages-1)); got != want {
		t.Errorf("window over an unrepairable page hashed %d pages, want %d", got, want)
	}
	if st := fs.IntegrityStats(); st.Mismatches != 1 || st.Backlog != 1 {
		t.Errorf("stats = %+v, want page 3 alone caught and still quarantined", st)
	}
}

// TestFirstTouchPagesShareOneAllocation: a write that creates 64 pages
// allocates them as one slab, not one page at a time (the page table's
// chunk for them is the other allocation), and a write over pages that all
// exist allocates nothing. The bytes land as a page-at-a-time store put
// them: the data where the segments say, zeros in the gaps.
func TestFirstTouchPagesShareOneAllocation(t *testing.T) {
	const ps, pages = 4096, 64
	var f fileData
	src := make([]byte, pages*ps)
	for i := range src {
		src[i] = byte(i*7 + i>>12)
	}
	// Every call writes a fresh, chunk-aligned run of pages; the segments
	// leave a gap in the first two pages, and two of them share a page.
	call := int64(0)
	write := func() {
		base := call * 2 * pages * ps
		call++
		segs := []datatype.Seg{{Off: base + 100, Len: ps}, {Off: base + ps + 200, Len: 1000}, {Off: base + ps + 1300, Len: (pages-1)*ps - 1300}}
		f.writeBytes(segs, Bytes(src), ps)
	}
	write()
	got := bytes.Join(f.views([]datatype.Seg{{Off: 0, Len: 2 * ps}}, make([]byte, ps), nil), nil)
	want := make([]byte, 2*ps)
	copy(want[100:], src[:ps])
	copy(want[ps+200:], src[ps:ps+1000])
	copy(want[ps+1300:], src[ps+1000:2*ps-300])
	if !bytes.Equal(got, want) {
		t.Fatal("the first two pages do not hold what was written")
	}
	if n := testing.AllocsPerRun(20, write); n > 2 {
		t.Fatalf("%.1f allocations per write that creates %d pages, want at most 2", n, pages)
	}
	again := func() {
		f.writeBytes([]datatype.Seg{{Off: 100, Len: (pages - 1) * ps}}, Bytes(src), ps)
	}
	if n := testing.AllocsPerRun(20, again); n != 0 {
		t.Fatalf("%.1f allocations per write over existing pages, want 0", n)
	}
}
