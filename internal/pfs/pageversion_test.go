package pfs

import (
	"bytes"
	"testing"
	"unsafe"

	"flexio/internal/datatype"
	"flexio/internal/metrics"
)

// TestPageSlotSize: the content version fits in the padding the lock owner
// left, so every page of every file costs what it did before the version.
func TestPageSlotSize(t *testing.T) {
	if n := unsafe.Sizeof(pageSlot{}); n != 32 {
		t.Fatalf("pageSlot is %d bytes, want 32", n)
	}
}

// pageVersion reads page pi's content version.
func pageVersion(fs *FileSystem, name string, pi int64) uint32 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if s := fs.files[name].pages.Peek(pi); s != nil {
		return s.ver
	}
	return 0
}

// TestPageVersionAdvances: each path that changes a page's bytes advances
// the page's version — a write, a torn and a bit-flipped landing, and a
// ring repair through a read and through the pre-merge gate — and a read
// that only verifies does not.
func TestPageVersionAdvances(t *testing.T) {
	fs, cfg := newIntegFS(64)
	ps := cfg.PageSize
	c := fs.NewClient(nil)
	h := c.Open("f")
	f := h.f
	step := func(what string, want uint32, change func()) {
		t.Helper()
		before := pageVersion(fs, "f", 0)
		change()
		if got := pageVersion(fs, "f", 0) - before; got != want {
			t.Errorf("%s moved page 0's version by %d, want %d", what, got, want)
		}
	}
	locked := func(fn func()) func() {
		return func() {
			fs.mu.Lock()
			defer fs.mu.Unlock()
			fn()
		}
	}

	step("writeBytes", 1, locked(func() {
		f.writeBytes([]datatype.Seg{{Off: 0, Len: ps}}, Bytes(bytes.Repeat([]byte{0x11}, int(ps))), ps)
	}))
	step("a torn landing", 1, locked(func() {
		c.applyFlip(f, datatype.Seg{Off: 0, Len: 256}, flipFault{torn: true, frac: 0.25}, 0)
	}))
	step("a bitflip", 1, locked(func() {
		c.applyFlip(f, datatype.Seg{Off: 0, Len: 256}, flipFault{hash: 77}, 0)
	}))

	// Record the page through the datapath, then damage it behind the
	// datapath's back (flipStored leaves the version alone).
	if _, err := h.WriteAt(0, bytes.Repeat([]byte{0x22}, int(ps)), 0); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, ps)
	step("a clean read", 0, func() {
		if _, err := h.ReadAt(0, buf, 0); err != nil {
			t.Fatal(err)
		}
	})
	flipStored(fs, "f", 100)
	step("a ring repair in readSeg", 1, func() {
		if _, err := h.ReadAt(0, buf, 0); err != nil {
			t.Fatal(err)
		}
	})
	flipStored(fs, "f", 200)
	step("a ring repair in the pre-merge gate", 1, locked(func() {
		c.beginRequest(f)
		c.preMergePage(f, 0, nil, 0)
	}))
	if st := fs.IntegrityStats(); st.Mismatches != 2 || st.Repairs != 2 || st.Backlog != 0 {
		t.Fatalf("stats = %+v, want two mismatches, both repaired", st)
	}
	if !bytes.Equal(fs.Snapshot("f", ps), bytes.Repeat([]byte{0x22}, int(ps))) {
		t.Fatal("repairs did not restore the written page")
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

// TestSieveWindowHashesPagesTwice pins the host's checksum passes of a sieve
// window with integrity armed: in the steady state each partly covered page
// is hashed twice, by the prefetch's verify and by the record (the pre-merge
// gate reuses the prefetch's verdict; it hashed a third time before). Where
// the prefetch stopped on an unrepairable page, the pages after it take the
// full gate.
func TestSieveWindowHashesPagesTwice(t *testing.T) {
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
	if got := window(fs, h); got != 2*pages {
		t.Errorf("steady-state window hashed %d pages, want %d (2 per partly covered page)", got, 2*pages)
	}

	// A one-slot ring cannot repair page 3: the prefetch verifies pages 0-2
	// clean and stops at 3. The gate skips 0-2, takes 3's repair branch (no
	// hash) and hashes 4-7; records hash every page but the still poisoned 3.
	fs, _ = newIntegFS(1)
	h = fs.NewClient(nil).Open("f")
	if _, err := h.WriteAt(0, bytes.Repeat([]byte{0x11}, int(pages*ps)), 0); err != nil {
		t.Fatal(err)
	}
	flipStored(fs, "f", 3*ps+50)
	if got, want := window(fs, h), int64(4+(pages-4)+(pages-1)); got != want {
		t.Errorf("window over an unrepairable page hashed %d pages, want %d", got, want)
	}
	if st := fs.IntegrityStats(); st.Mismatches != 1 || st.Backlog != 1 {
		t.Errorf("stats = %+v, want page 3 alone caught and still quarantined", st)
	}
}
