package hpio

import (
	"bytes"
	"strings"
	"testing"

	"flexio/internal/datatype"
)

func base() Pattern {
	return Pattern{
		Ranks:       4,
		RegionSize:  16,
		RegionCount: 8,
		Spacing:     8,
	}
}

func TestValidate(t *testing.T) {
	if err := base().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Pattern{
		{Ranks: 0, RegionSize: 1, RegionCount: 1},
		{Ranks: 1, RegionSize: 0, RegionCount: 1},
		{Ranks: 1, RegionSize: 1, RegionCount: 0},
		{Ranks: 1, RegionSize: 1, RegionCount: 1, Spacing: -1},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestInterleavedLayout(t *testing.T) {
	p := base()
	// Rank 1's first region starts one slot after rank 0's.
	ft0, d0 := p.Filetype(0)
	ft1, d1 := p.Filetype(1)
	if d1-d0 != p.RegionSize+p.Spacing {
		t.Fatalf("rank displacement delta = %d", d1-d0)
	}
	if ft0.Extent() != (p.RegionSize+p.Spacing)*int64(p.Ranks) {
		t.Fatalf("stride = %d", ft0.Extent())
	}
	if ft0.Size() != p.RegionSize || ft1.Size() != p.RegionSize {
		t.Fatal("filetype size mismatch")
	}
}

func TestEnumeratedMatchesSuccinct(t *testing.T) {
	p := base()
	pe := p
	pe.Enumerate = true
	for rank := 0; rank < p.Ranks; rank++ {
		fts, ds := p.Filetype(rank)
		fte, de := pe.Filetype(rank)
		if ds != de {
			t.Fatalf("rank %d: displacements differ", rank)
		}
		// The succinct form tiled RegionCount times must equal the
		// enumerated single instance.
		ss, _ := datatype.Segments(fts, ds, p.RegionCount)
		se, _ := datatype.Segments(fte, de, 1)
		if len(ss) != len(se) {
			t.Fatalf("rank %d: %d vs %d segments", rank, len(ss), len(se))
		}
		for i := range ss {
			if ss[i] != se[i] {
				t.Fatalf("rank %d seg %d: %v vs %v", rank, i, ss[i], se[i])
			}
		}
		if fte.NumSegs() != p.RegionCount {
			t.Fatalf("enumerated D = %d, want %d", fte.NumSegs(), p.RegionCount)
		}
		if fts.NumSegs() != 1 {
			t.Fatalf("succinct D = %d, want 1", fts.NumSegs())
		}
	}
}

func TestFileContigLayout(t *testing.T) {
	p := base()
	p.FileContig = true
	ft, d0 := p.Filetype(0)
	_, d1 := p.Filetype(1)
	if d1-d0 != p.RegionSize*p.RegionCount {
		t.Fatalf("contig block stride = %d", d1-d0)
	}
	if ft.Extent() != p.RegionSize {
		t.Fatalf("contig filetype extent = %d", ft.Extent())
	}
	if p.FileSize() != int64(p.Ranks)*p.RegionSize*p.RegionCount {
		t.Fatalf("file size = %d", p.FileSize())
	}
}

func TestReferenceMatchesFillBuffer(t *testing.T) {
	for _, variant := range []func(Pattern) Pattern{
		func(p Pattern) Pattern { return p },
		func(p Pattern) Pattern { p.MemNoncontig = true; p.MemGap = 8; return p },
		func(p Pattern) Pattern { p.FileContig = true; return p },
		func(p Pattern) Pattern { p.Disp = 100; return p },
	} {
		p := variant(base())
		img := p.Reference()
		if int64(len(img)) != p.FileSize() {
			t.Fatalf("%s: reference len %d vs FileSize %d", p, len(img), p.FileSize())
		}
		// Apply each rank's buffer through its view and compare.
		check := make([]byte, len(img))
		for r := 0; r < p.Ranks; r++ {
			mt, _ := p.Memtype()
			stream, err := datatype.Pack(p.FillBuffer(r), mt, 0, p.RegionCount)
			if err != nil {
				t.Fatal(err)
			}
			ft, disp := p.Filetype(r)
			cur := datatype.NewCursor(ft, disp, -1)
			cur.SetLimit(int64(len(stream)))
			pos := int64(0)
			for {
				s, _, ok := cur.Next(1 << 30)
				if !ok {
					break
				}
				copy(check[s.Off:s.End()], stream[pos:pos+s.Len])
				pos += s.Len
			}
		}
		for i := range img {
			if img[i] != check[i] {
				t.Fatalf("%s: reference byte %d = %d, view-applied = %d", p, i, img[i], check[i])
			}
		}
	}
}

func TestTotalBytes(t *testing.T) {
	p := base()
	if p.TotalBytes() != 4*16*8 {
		t.Fatalf("TotalBytes = %d", p.TotalBytes())
	}
}

func TestStringDescribesPattern(t *testing.T) {
	p := base()
	p.Enumerate = true
	s := p.String()
	for _, want := range []string{"P=4", "region=16B", "vector"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

func TestFillByteDeterministic(t *testing.T) {
	if FillByte(3, 100) != FillByte(3, 100) {
		t.Fatal("FillByte not deterministic")
	}
	if FillByte(1, 0) == FillByte(2, 0) && FillByte(1, 1) == FillByte(2, 1) && FillByte(1, 2) == FillByte(2, 2) {
		t.Fatal("ranks not distinguished")
	}
}

// TestFillMatchesFillByte: Fill computes one period and copies the rest, so
// it must agree with the per-byte definition at every length around the
// period and its doublings, from any starting index.
func TestFillMatchesFillByte(t *testing.T) {
	for _, n := range []int{0, 1, 250, 251, 252, 501, 502, 503, 1004, 1005, 4099} {
		for _, k0 := range []int64{0, 1, 250, 251, 1 << 33} {
			for _, rank := range []int{0, 3, 4095} {
				got := Fill(make([]byte, n), rank, k0)
				for i, b := range got {
					if want := FillByte(rank, k0+int64(i)); b != want {
						t.Fatalf("Fill(len %d, rank %d, k0 %d)[%d] = %d, want %d", n, rank, k0, i, b, want)
					}
				}
			}
		}
	}
}

// TestFillBufferAndReferenceBytes pins the buffers and the file image to the
// per-byte definition they had before Fill: rank r's k-th data byte, in
// memory-type order in the buffer and at its region's place in the file.
func TestFillBufferAndReferenceBytes(t *testing.T) {
	for _, p := range []Pattern{
		{Ranks: 3, RegionSize: 300, RegionCount: 5, Spacing: 7, Disp: 11},
		{Ranks: 4, RegionSize: 16, RegionCount: 40, Spacing: 128, MemNoncontig: true, MemGap: 9},
		{Ranks: 2, RegionSize: 600, RegionCount: 3, FileContig: true, MemNoncontig: true, MemGap: 1},
	} {
		img := make([]byte, p.FileSize())
		for r := 0; r < p.Ranks; r++ {
			mt, n := p.Memtype()
			buf := make([]byte, n)
			k := int64(0)
			for i := int64(0); i < p.RegionCount; i++ {
				off := p.Disp + i*p.stride() + int64(r)*(p.RegionSize+p.Spacing)
				if p.FileContig {
					off = p.Disp + int64(r)*p.RegionSize*p.RegionCount + i*p.RegionSize
				}
				for b := int64(0); b < p.RegionSize; b++ {
					buf[i*mt.Extent()+b], img[off+b] = FillByte(r, k), FillByte(r, k)
					k++
				}
			}
			if got := p.FillBuffer(r); !bytes.Equal(got, buf) {
				t.Fatalf("%v: rank %d's buffer differs from the per-byte fill", p, r)
			}
		}
		if !bytes.Equal(p.Reference(), img) {
			t.Fatalf("%v: reference image differs from the per-byte fill", p)
		}
	}
}
