package pfs

import (
	"bytes"
	"errors"
	"testing"

	"flexio/internal/bufpool"
	"flexio/internal/datatype"
	"flexio/internal/metrics"
	"flexio/internal/sim"
)

// newIntegFS builds a file system with the checksummed datapath on.
func newIntegFS(ringCap int) (*FileSystem, *sim.Config) {
	cfg := sim.DefaultConfig()
	fs := NewFileSystem(cfg)
	fs.EnableIntegrity(42, ringCap)
	return fs, cfg
}

func TestIntegrityCleanRoundTrip(t *testing.T) {
	fs, _ := newIntegFS(0)
	h := fs.NewClient(nil).Open("f")
	data := bytes.Repeat([]byte("flex"), 3000) // spans pages
	if _, err := h.WriteAt(100, data, 0); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(data))
	if _, err := h.ReadAt(100, buf, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, data) {
		t.Fatal("clean round trip corrupted data")
	}
	if st := fs.IntegrityStats(); st.Mismatches != 0 {
		t.Fatalf("clean run recorded %d mismatches", st.Mismatches)
	}
}

func TestBitflipDetectedAndRingRepaired(t *testing.T) {
	fs, cfg := newIntegFS(64)
	sched := NewFaultSchedule(7)
	sched.Add(Rule{Class: ClassBitflip, Count: 1})
	fs.SetFaultSchedule(sched)
	h := fs.NewClient(nil).Open("f")
	data := bytes.Repeat([]byte{0xAB}, int(cfg.PageSize))
	if _, err := h.WriteAt(0, data, 0); err != nil {
		t.Fatal(err)
	}
	// The stored image differs from the intent now.
	if bytes.Equal(fs.Snapshot("f", cfg.PageSize), data) {
		t.Fatal("flip rule did not corrupt the stored bytes")
	}
	// The read detects the mismatch and repairs from the ring.
	buf := make([]byte, len(data))
	if _, err := h.ReadAt(0, buf, 0); err != nil {
		t.Fatalf("read after repairable flip: %v", err)
	}
	if !bytes.Equal(buf, data) {
		t.Fatal("repaired read returned wrong bytes")
	}
	st := fs.IntegrityStats()
	if st.Mismatches != 1 || st.Repairs != 1 || st.Backlog != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestTornWriteDetected(t *testing.T) {
	fs, cfg := newIntegFS(64)
	sched := NewFaultSchedule(7)
	sched.Add(Rule{Class: ClassTorn, Count: 1, Frac: 0.5})
	fs.SetFaultSchedule(sched)
	h := fs.NewClient(nil).Open("f")
	data := bytes.Repeat([]byte{0xCD}, int(cfg.PageSize))
	if _, err := h.WriteAt(0, data, 0); err != nil {
		t.Fatal(err)
	}
	got := fs.Snapshot("f", cfg.PageSize)
	if !bytes.Equal(got[cfg.PageSize/2:], make([]byte, cfg.PageSize/2)) {
		t.Fatal("torn tail should read back as zeros at rest")
	}
	buf := make([]byte, len(data))
	if _, err := h.ReadAt(0, buf, 0); err != nil {
		t.Fatalf("read after repairable torn write: %v", err)
	}
	if !bytes.Equal(buf, data) {
		t.Fatal("repaired read returned wrong bytes")
	}
}

func TestUnrepairableFlipSurfacesErrDataIntegrity(t *testing.T) {
	// Ring of one slot: a second write evicts the first block's image, so
	// the flip on the first block cannot ring-repair.
	fs, cfg := newIntegFS(1)
	sched := NewFaultSchedule(7)
	sched.Add(Rule{Match: func(op Op) bool { return op.Seq <= 1 }, Class: ClassBitflip, Count: 1})
	fs.SetFaultSchedule(sched)
	c := fs.NewClient(nil)
	h := c.Open("f")
	data := bytes.Repeat([]byte{0x11}, int(cfg.PageSize))
	if _, err := h.WriteAt(0, data, 0); err != nil { // corrupted at rest
		t.Fatal(err)
	}
	if _, err := h.WriteAt(cfg.PageSize, data, 0); err != nil { // evicts ring slot
		t.Fatal(err)
	}
	buf := make([]byte, len(data))
	_, err := h.ReadAt(0, buf, 0)
	if !errors.Is(err, ErrDataIntegrity) {
		t.Fatalf("want ErrDataIntegrity, got %v", err)
	}
	st := fs.IntegrityStats()
	if st.Unrepaired != 1 || st.Backlog != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// A full overwrite through the normal datapath is the repair.
	if _, err := h.WriteAt(0, data, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := h.ReadAt(0, buf, 0); err != nil {
		t.Fatalf("read after overwrite repair: %v", err)
	}
	if !bytes.Equal(buf, data) {
		t.Fatal("overwrite repair returned wrong bytes")
	}
	if st := fs.IntegrityStats(); st.Backlog != 0 {
		t.Fatalf("backlog after overwrite = %d", st.Backlog)
	}
}

func TestPartialOverwriteDoesNotBlessCorruption(t *testing.T) {
	fs, cfg := newIntegFS(1)
	sched := NewFaultSchedule(7)
	sched.Add(Rule{Match: func(op Op) bool { return op.Seq <= 1 }, Class: ClassTorn, Count: 1, Frac: 0.9})
	fs.SetFaultSchedule(sched)
	c := fs.NewClient(nil)
	h := c.Open("f")
	page := bytes.Repeat([]byte{0x22}, int(cfg.PageSize))
	if _, err := h.WriteAt(0, page, 0); err != nil { // torn at rest
		t.Fatal(err)
	}
	if _, err := h.WriteAt(cfg.PageSize, page, 0); err != nil { // evict ring
		t.Fatal(err)
	}
	// Quarantine the page via a failed read.
	buf := make([]byte, cfg.PageSize)
	if _, err := h.ReadAt(0, buf, 0); !errors.Is(err, ErrDataIntegrity) {
		t.Fatalf("want ErrDataIntegrity, got %v", err)
	}
	// A 16-byte overwrite must not re-bless the page: most of it is
	// still zeros from the torn write.
	if _, err := h.WriteAt(0, page[:16], 0); err != nil {
		t.Fatal(err)
	}
	if _, err := h.ReadAt(0, buf, 0); !errors.Is(err, ErrDataIntegrity) {
		t.Fatalf("partial overwrite blessed a corrupted page: %v", err)
	}
}

// TestRMWVerifyCatchesUndetectedCorruption: a partial overwrite of a page
// carrying corruption nobody has read yet must not bless the damage with a
// fresh checksum — the pre-merge verify detects it, ring-repairs the bytes
// outside the written span, and the merged page reads back fully intended.
func TestRMWVerifyCatchesUndetectedCorruption(t *testing.T) {
	fs, cfg := newIntegFS(64)
	sched := NewFaultSchedule(7)
	sched.Add(Rule{Class: ClassBitflip, Count: 1})
	fs.SetFaultSchedule(sched)
	h := fs.NewClient(nil).Open("f")
	base := bytes.Repeat([]byte{0xAB}, int(cfg.PageSize))
	if _, err := h.WriteAt(0, base, 0); err != nil {
		t.Fatal(err)
	}
	// No read in between: the flip is still undetected when a partial
	// overwrite lands in the first 16 bytes of the same page.
	patch := bytes.Repeat([]byte{0x5A}, 16)
	if _, err := h.WriteAt(0, patch, 0); err != nil {
		t.Fatal(err)
	}
	want := append(append([]byte{}, patch...), base[16:]...)
	buf := make([]byte, cfg.PageSize)
	if _, err := h.ReadAt(0, buf, 0); err != nil {
		t.Fatalf("read after RMW over corrupted page: %v", err)
	}
	if !bytes.Equal(buf, want) {
		t.Fatal("partial overwrite blessed silent corruption")
	}
	st := fs.IntegrityStats()
	if st.Mismatches != 1 || st.Repairs != 1 {
		t.Fatalf("stats = %+v, want the write-time verify to detect and repair", st)
	}
}

// flipStored flips one bit of the stored image behind the datapath's back,
// as a media fault long after the write would.
func flipStored(fs *FileSystem, name string, off int64) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	ps := fs.cfg.PageSize
	fs.files[name].page(off / ps)[off%ps] ^= 0x04
}

// TestSievePrefetchVerifiesWithoutCopying: the RMW prefetch of a sieve
// window delivers no bytes, but it still verifies every recorded page of the
// span. A bit flipped in a gap byte — one the window's pieces never touch —
// is caught there, counted, quarantined and ring-repaired before the pieces
// merge.
func TestSievePrefetchVerifiesWithoutCopying(t *testing.T) {
	fs, cfg := newIntegFS(64)
	ps := cfg.PageSize
	mets := metrics.NewSet(1)
	c := fs.NewClient(mets.Registry(0))
	h := c.Open("f")
	base := bytes.Repeat([]byte{0xAB}, int(2*ps))
	if _, err := h.WriteAt(0, base, 0); err != nil {
		t.Fatal(err)
	}
	flipStored(fs, "f", 3000) // between the pieces below
	span := datatype.Seg{Off: 0, Len: 2 * ps}
	segs := []datatype.Seg{{Off: 0, Len: 256}, {Off: 512, Len: 256}, {Off: ps + 100, Len: 50}}
	patch := bytes.Repeat([]byte{0x5A}, 562)
	gets := bufpool.Snapshot().Gets
	if _, err := h.SieveWrite(span, segs, patch, 0); err != nil {
		t.Fatal(err)
	}
	if got := bufpool.Snapshot().Gets; got != gets {
		t.Errorf("the prefetch took %d buffer(s) from the pool, want none", got-gets)
	}
	st := fs.IntegrityStats()
	if st.Mismatches != 1 || st.Quarantined != 1 || st.Repairs != 1 || st.Backlog != 0 {
		t.Fatalf("stats = %+v, want one mismatch, quarantined once, ring-repaired", st)
	}
	reg := mets.Registry(0)
	if reg.Counter(metrics.CIntegAtRestMismatch) != 1 || reg.Counter(metrics.CIntegRepaired) != 1 {
		t.Errorf("rank metrics: mismatches %d, repaired %d, want 1 and 1",
			reg.Counter(metrics.CIntegAtRestMismatch), reg.Counter(metrics.CIntegRepaired))
	}
	want := append([]byte{}, base...)
	pos := 0
	for _, s := range segs {
		pos += copy(want[s.Off:s.End()], patch[pos:])
	}
	if got := fs.Snapshot("f", 2*ps); !bytes.Equal(got, want) {
		t.Fatal("stored image is not pieces over the repaired page")
	}
	buf := make([]byte, 2*ps)
	if _, err := h.ReadAt(0, buf, 0); err != nil || !bytes.Equal(buf, want) {
		t.Fatalf("read back after the window: err %v", err)
	}
}

// TestSieveWindowOverUnrepairablePage: when the ring no longer holds the
// flipped page, the prefetch leaves it quarantined, the window still lands,
// the page its pieces only partly repave stays poisoned, and a quarantined
// page the pieces repave whole heals.
func TestSieveWindowOverUnrepairablePage(t *testing.T) {
	fs, cfg := newIntegFS(1)
	ps := cfg.PageSize
	h := fs.NewClient(nil).Open("f")
	if _, err := h.WriteAt(0, bytes.Repeat([]byte{0x11}, int(3*ps)), 0); err != nil {
		t.Fatal(err)
	}
	// The one-slot ring now holds page 2 only.
	flipStored(fs, "f", 3000)
	flipStored(fs, "f", ps+3000)
	buf := make([]byte, ps)
	if _, err := h.ReadAt(ps, buf, 0); !errors.Is(err, ErrDataIntegrity) {
		t.Fatalf("read of the flipped page 1: %v, want ErrDataIntegrity", err)
	}
	span := datatype.Seg{Off: 0, Len: 3 * ps}
	segs := []datatype.Seg{
		{Off: 0, Len: 256}, {Off: 512, Len: 256}, // page 0 in part
		{Off: ps, Len: 1000}, {Off: ps + 1000, Len: ps - 1000}, // page 1 whole, in two pieces
		{Off: 2*ps + 64, Len: 64}, // page 2 in part
	}
	patch := bytes.Repeat([]byte{0x77}, int(segBytes(segs)))
	if _, err := h.SieveWrite(span, segs, patch, 0); err != nil {
		t.Fatalf("window over a quarantined page must still land: %v", err)
	}
	st := fs.IntegrityStats()
	if st.Backlog != 1 || !fs.isums.Quarantined("f", 0) {
		t.Fatalf("stats = %+v, want page 0 alone still quarantined", st)
	}
	if _, err := h.ReadAt(0, buf, 0); !errors.Is(err, ErrDataIntegrity) {
		t.Fatalf("partly repaved page 0 was blessed: %v", err)
	}
	if _, err := h.ReadAt(ps, buf, 0); err != nil || !bytes.Equal(buf, bytes.Repeat([]byte{0x77}, int(ps))) {
		t.Fatalf("fully repaved page 1 did not heal: %v", err)
	}
	if _, err := h.ReadAt(2*ps, buf, 0); err != nil {
		t.Fatalf("page 2: %v", err)
	}
}

// TestSieveWindowRetainsOneImagePerPage: a window that lands five or six
// pieces in each of 256 pages leaves 256 distinct images in the 256-slot ring — one
// per page, not one per piece — so every page of the window can be repaired
// afterwards.
func TestSieveWindowRetainsOneImagePerPage(t *testing.T) {
	const pages = 256
	fs, cfg := newIntegFS(pages)
	ps := cfg.PageSize
	h := fs.NewClient(nil).Open("f")
	// 800 does not divide the page size, so pieces straddle pages too.
	w := strided(100, 800, 300, int((pages*ps-400)/800)+1)
	w.span = datatype.Seg{Off: 0, Len: pages * ps}
	data := make([]byte, segBytes(w.segs))
	for i := range data {
		data[i] = byte(i*7 + i>>9)
	}
	if _, err := h.SieveWrite(w.span, w.segs, data, 0); err != nil {
		t.Fatal(err)
	}
	want := fs.Snapshot("f", pages*ps)
	for pi := int64(0); pi < pages; pi++ {
		flipStored(fs, "f", pi*ps+int64(pi*13)%ps)
	}
	got := make([]byte, pages*ps)
	if _, err := h.ReadAt(0, got, 0); err != nil {
		t.Fatalf("a page of the window could not be repaired from the ring: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("repaired window differs from what was written")
	}
	if st := fs.IntegrityStats(); st.Mismatches != pages || st.Repairs != pages || st.Backlog != 0 {
		t.Fatalf("stats = %+v, want %d mismatches all repaired", st, pages)
	}
}

// TestPlainWriteGatesLikeOneSegmentWindow: a plain write passes its segment
// through the integrity gates as a one-segment sieve window, so a WriteAt
// and a hole-free SieveWrite of the same bytes over recorded pages leave
// the same image and move the store's counters alike — including over a
// page a flip left quarantined, which a partial write must keep poisoned.
func TestPlainWriteGatesLikeOneSegmentWindow(t *testing.T) {
	ps := sim.DefaultConfig().PageSize
	const pages = 5
	cases := []struct {
		name        string
		seg         datatype.Seg
		quarantined bool // page 1 flipped and caught unrepairable first
	}{
		{"sub-page", datatype.Seg{Off: ps + 100, Len: 200}, false},
		{"page-straddling", datatype.Seg{Off: 2*ps - 100, Len: 200}, false},
		{"page-aligned", datatype.Seg{Off: 2 * ps, Len: ps}, false},
		{"multi-page", datatype.Seg{Off: 100, Len: 3 * ps}, false},
		{"quarantined page", datatype.Seg{Off: ps + 100, Len: 200}, true},
	}
	// twin primes a file system: every page written and recorded, one
	// write per page, so a ring of one slot holds only the last.
	twin := func(quarantined bool) *FileSystem {
		fs, _ := newIntegFS(1)
		if quarantined {
			fs.SetFaultSchedule(NewFaultSchedule(7).Add(Rule{Match: func(op Op) bool { return op.Off == ps }, Class: ClassBitflip, Count: 1}))
		}
		h := fs.NewClient(nil).Open("f")
		for pi := int64(0); pi < pages; pi++ {
			if _, err := h.WriteAt(pi*ps, bytes.Repeat([]byte{byte(0x10 + pi)}, int(ps)), 0); err != nil {
				t.Fatal(err)
			}
		}
		fs.SetFaultSchedule(nil)
		if quarantined {
			if _, err := h.ReadAt(ps, make([]byte, ps), 0); !errors.Is(err, ErrDataIntegrity) {
				t.Fatalf("flipped page read: want ErrDataIntegrity, got %v", err)
			}
			if st := fs.IntegrityStats(); st.Backlog != 1 {
				t.Fatalf("flipped page not quarantined: %+v", st)
			}
		}
		return fs
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := bytes.Repeat([]byte{0xE7}, int(tc.seg.Len))
			plain, sieve := twin(tc.quarantined), twin(tc.quarantined)
			before := plain.IntegrityStats()
			if sieve.IntegrityStats() != before {
				t.Fatal("twins differ before the write")
			}
			if _, err := plain.NewClient(nil).Open("f").WriteAt(tc.seg.Off, data, 0); err != nil {
				t.Fatal(err)
			}
			if _, err := sieve.NewClient(nil).Open("f").SieveWrite(tc.seg, []datatype.Seg{tc.seg}, data, 0); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(plain.Snapshot("f", pages*ps), sieve.Snapshot("f", pages*ps)) {
				t.Error("plain write and one-segment window left different images")
			}
			delta := func(fs *FileSystem) [3]int64 {
				st := fs.IntegrityStats()
				return [3]int64{st.Hashed - before.Hashed, st.Quarantined - before.Quarantined, st.Repairs - before.Repairs}
			}
			p, s := delta(plain), delta(sieve)
			if p != s {
				t.Errorf("[hashed quarantined repairs] delta: plain write %v, one-segment window %v", p, s)
			}
			// A quarantined page takes no sum until its coverage is whole.
			if st := plain.IntegrityStats(); tc.quarantined && st.Backlog != 1 {
				t.Errorf("a partial write healed the quarantined page: %+v", st)
			} else if !tc.quarantined && p[0] == 0 {
				t.Error("the write hashed nothing")
			}
		})
	}
}
