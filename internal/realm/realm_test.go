package realm

import (
	"testing"

	"flexio/internal/datatype"
)

func TestEvenPartition(t *testing.T) {
	realms, err := Even{}.Assign(Context{NAggs: 4, Start: 0, End: 400})
	if err != nil {
		t.Fatal(err)
	}
	if len(realms) != 4 {
		t.Fatalf("%d realms", len(realms))
	}
	for i, r := range realms {
		if r.Disp != int64(i)*100 {
			t.Fatalf("realm %d at %d", i, r.Disp)
		}
	}
	if err := Coverage(realms, 0, 400); err != nil {
		t.Fatal(err)
	}
	// Last realm is unbounded: a later access past End is still owned.
	c := realms[3].Cursor()
	if !c.SeekOffset(10_000) {
		t.Fatal("last realm does not extend past the access region")
	}
}

func TestEvenUnevenSpan(t *testing.T) {
	realms, err := Even{}.Assign(Context{NAggs: 3, Start: 10, End: 20})
	if err != nil {
		t.Fatal(err)
	}
	if err := Coverage(realms, 10, 20); err != nil {
		t.Fatal(err)
	}
}

func TestEvenAligned(t *testing.T) {
	realms, err := Even{Align: 4096}.Assign(Context{NAggs: 4, Start: 5000, End: 70000})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range realms {
		if r.Disp%4096 != 0 {
			t.Fatalf("realm %d boundary %d not aligned", i, r.Disp)
		}
	}
	if err := Coverage(realms, 5000, 70000); err != nil {
		t.Fatal(err)
	}
}

func TestEvenAlignedImbalance(t *testing.T) {
	// Paper Figure 7 effect: a 6.5 MB region with 2 MB alignment leaves
	// trailing aggregators of an 8-way split with nothing in range.
	realms, err := Even{Align: 2 << 20}.Assign(Context{NAggs: 8, Start: 0, End: 6_500_000})
	if err != nil {
		t.Fatal(err)
	}
	withData := 0
	for _, r := range realms {
		c := r.Cursor()
		if c.SeekOffset(0) && c.Offset() < 6_500_000 {
			withData++
		}
	}
	if withData >= 8 {
		t.Fatalf("expected imbalance, but %d/8 realms hold data", withData)
	}
	if withData < 3 {
		t.Fatalf("too few active realms: %d", withData)
	}
}

func TestEvenZeroSpan(t *testing.T) {
	realms, err := Even{}.Assign(Context{NAggs: 2, Start: 100, End: 100})
	if err != nil {
		t.Fatal(err)
	}
	if realms[0].Empty() {
		t.Fatal("zero-span realms should still cover the start byte")
	}
}

func TestCyclic(t *testing.T) {
	realms, err := Cyclic{Block: 100}.Assign(Context{NAggs: 3, Start: 0, End: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if err := Coverage(realms, 0, 5000); err != nil {
		t.Fatal(err)
	}
	// Block k belongs to aggregator k mod 3.
	c := realms[1].Cursor()
	c.SeekOffset(0)
	if c.Offset() != 100 {
		t.Fatalf("realm 1 starts at %d, want 100", c.Offset())
	}
	if !c.SeekOffset(950) {
		t.Fatal("cyclic realm exhausted")
	}
	if got := c.Offset(); got != 1000 { // block at [1000,1100) is 10th block, 10 mod 3 == 1
		t.Fatalf("seek(950) = %d, want 1000", got)
	}
}

func TestCyclicDefaultsBlockFromAlign(t *testing.T) {
	realms, err := Cyclic{}.Assign(Context{NAggs: 2, Start: 0, End: 100, Align: 4096})
	if err != nil {
		t.Fatal(err)
	}
	c := realms[1].Cursor()
	c.SeekOffset(0)
	if c.Offset() != 4096 {
		t.Fatalf("block size not taken from alignment: realm 1 starts at %d", c.Offset())
	}
}

func TestLoadBalanced(t *testing.T) {
	// Sparse clustered access: most data at the far end. The even
	// partition would give aggregator 0 almost nothing to do.
	segs := []datatype.Seg{
		{Off: 0, Len: 10},
		{Off: 1_000_000, Len: 500_000},
		{Off: 1_500_000, Len: 500_000},
	}
	realms, err := LoadBalanced{}.Assign(Context{
		NAggs: 4, Start: 0, End: 2_000_000, AllSegs: segs,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := Coverage(realms, 0, 2_000_000); err != nil {
		t.Fatal(err)
	}
	// Count data bytes per realm; the spread must be far tighter than
	// the even partition's (which would be ~10 vs ~1M).
	var min, max int64 = 1 << 62, 0
	for _, r := range realms {
		var owned int64
		rc := r.Cursor()
		for _, s := range segs {
			pos := s.Off
			for pos < s.End() {
				if !rc.SeekOffset(pos) {
					break
				}
				o := rc.Offset()
				if o >= s.End() {
					break
				}
				n := rc.Run()
				if o+n > s.End() {
					n = s.End() - o
				}
				if o >= pos {
					owned += n
				}
				pos = o + n
			}
		}
		if owned < min {
			min = owned
		}
		if owned > max {
			max = owned
		}
	}
	if max > 2*min+1024 {
		t.Fatalf("load imbalance: min=%d max=%d", min, max)
	}
}

func TestLoadBalancedEmptyAccessFallsBack(t *testing.T) {
	realms, err := LoadBalanced{}.Assign(Context{NAggs: 2, Start: 0, End: 100})
	if err != nil {
		t.Fatal(err)
	}
	if err := Coverage(realms, 0, 100); err != nil {
		t.Fatal(err)
	}
}

// TestLoadBalancedHonorsContextAlign: with no alignment of its own the
// policy rounds its boundaries to the context's, as Even does, whether or
// not anything is accessed.
func TestLoadBalancedHonorsContextAlign(t *testing.T) {
	var segs []datatype.Seg
	for i := int64(0); i < 1000; i++ {
		segs = append(segs, datatype.Seg{Off: i * 1000, Len: 300})
	}
	for _, all := range [][]datatype.Seg{segs, nil} {
		ctx := Context{NAggs: 4, Start: 0, End: 1_000_000, Align: 4096, AllSegs: all}
		realms, err := LoadBalanced{}.Assign(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if err := Coverage(realms, 0, ctx.End); err != nil {
			t.Fatal(err)
		}
		for i, r := range realms {
			if r.Disp%4096 != 0 {
				t.Errorf("%d segs: realm %d starts at %d, not a multiple of 4096", len(all), i, r.Disp)
			}
		}
	}
}

func TestAssignErrors(t *testing.T) {
	if _, err := (Even{}).Assign(Context{NAggs: 0, Start: 0, End: 1}); err == nil {
		t.Fatal("zero aggregators accepted")
	}
	if _, err := (Even{}).Assign(Context{NAggs: 1, Start: 5, End: 1}); err == nil {
		t.Fatal("inverted region accepted")
	}
	if _, err := (Cyclic{}).Assign(Context{NAggs: 1, Start: 0, End: 1, Align: -1}); err == nil {
		t.Fatal("negative alignment accepted")
	}
}

func TestEmptyRealm(t *testing.T) {
	var r Realm
	if !r.Empty() {
		t.Fatal("zero realm not empty")
	}
	if r.Cursor().SeekOffset(0) {
		t.Fatal("empty realm cursor yields data")
	}
	if r.Flat().Size != 0 {
		t.Fatal("empty realm flat has size")
	}
}

func TestCoverageDetectsGapAndOverlap(t *testing.T) {
	gap := []Realm{
		{Disp: 0, Pattern: datatype.Bytes(10), Count: 1},
		{Disp: 20, Pattern: datatype.Bytes(10), Count: 1},
	}
	if err := Coverage(gap, 0, 30); err == nil {
		t.Fatal("gap not detected")
	}
	overlap := []Realm{
		{Disp: 0, Pattern: datatype.Bytes(20), Count: 1},
		{Disp: 10, Pattern: datatype.Bytes(20), Count: 1},
	}
	if err := Coverage(overlap, 0, 30); err == nil {
		t.Fatal("overlap not detected")
	}
}
