// Package hpio reimplements the HPIO benchmark workload generator (Ching,
// Choudhary, Liao, Ward, Pundit — "Evaluating I/O characteristics and
// methods for storing structured scientific data", IPDPS 2006), which the
// paper uses for its Figure 4 and Figure 5 experiments.
//
// HPIO builds regular datatypes characterized by a region size, a region
// count, and a region spacing, with independently selectable contiguity in
// memory and in file. For the noncontiguous-in-file case, the P processes'
// regions interleave: rank r's region i sits at
//
//	disp + i*P*(size+spacing) + r*(size+spacing).
//
// Data is filled with a deterministic per-rank pattern so every experiment
// doubles as a verification test.
package hpio

import (
	"fmt"

	"flexio/internal/datatype"
)

// Pattern is one HPIO workload configuration.
type Pattern struct {
	// Ranks is the number of processes P.
	Ranks int
	// RegionSize is the bytes per region (HPIO's "region size").
	RegionSize int64
	// RegionCount is the regions per process (HPIO's "region count").
	RegionCount int64
	// Spacing is the gap between consecutive regions in the file
	// (HPIO's "region spacing"); ignored when FileContig.
	Spacing int64
	// Disp offsets the whole access within the file.
	Disp int64
	// FileContig places each rank's regions back to back in a private
	// contiguous block instead of interleaving them.
	FileContig bool
	// MemNoncontig separates the regions in the user buffer by MemGap
	// bytes (contiguous memory otherwise).
	MemNoncontig bool
	MemGap       int64
	// Enumerate describes the file access with a single datatype
	// instance explicitly listing every region (D == RegionCount; the
	// paper's "vector type enumerating the entire access") instead of
	// the succinct one-region tiled form (D == 1, the "struct" form).
	Enumerate bool
	// NodeRanks, when positive, places every NodeRanks consecutive ranks
	// on one simulated node (mpi.BlockNodeMap); zero keeps the default of
	// one rank per node.
	NodeRanks int
}

// Validate reports whether the pattern is well formed.
func (p Pattern) Validate() error {
	switch {
	case p.Ranks <= 0:
		return fmt.Errorf("hpio: Ranks must be positive, got %d", p.Ranks)
	case p.RegionSize <= 0:
		return fmt.Errorf("hpio: RegionSize must be positive, got %d", p.RegionSize)
	case p.RegionCount <= 0:
		return fmt.Errorf("hpio: RegionCount must be positive, got %d", p.RegionCount)
	case p.Spacing < 0 || p.MemGap < 0 || p.Disp < 0:
		return fmt.Errorf("hpio: negative spacing/gap/disp")
	}
	return nil
}

// stride is the file distance between a rank's consecutive regions in the
// interleaved layout.
func (p Pattern) stride() int64 {
	return (p.RegionSize + p.Spacing) * int64(p.Ranks)
}

// Filetype returns rank r's filetype and view displacement.
func (p Pattern) Filetype(rank int) (datatype.Type, int64) {
	if p.FileContig {
		// Each rank owns a private contiguous block.
		disp := p.Disp + int64(rank)*p.RegionSize*p.RegionCount
		return datatype.Bytes(p.RegionSize), disp
	}
	disp := p.Disp + int64(rank)*(p.RegionSize+p.Spacing)
	if p.Enumerate {
		lens := make([]int64, p.RegionCount)
		displs := make([]int64, p.RegionCount)
		for i := range lens {
			lens[i] = 1
			displs[i] = int64(i) * p.stride()
		}
		return datatype.Must(datatype.HIndexed(lens, displs, datatype.Bytes(p.RegionSize))), disp
	}
	return datatype.Must(datatype.Resized(datatype.Bytes(p.RegionSize), p.stride())), disp
}

// Memtype returns the memory datatype and the user buffer length it
// requires for RegionCount instances.
func (p Pattern) Memtype() (datatype.Type, int64) {
	if !p.MemNoncontig {
		return datatype.Bytes(p.RegionSize), p.RegionSize * p.RegionCount
	}
	mt := datatype.Must(datatype.Resized(datatype.Bytes(p.RegionSize), p.RegionSize+p.MemGap))
	return mt, (p.RegionSize + p.MemGap) * p.RegionCount
}

// FillByte is the deterministic payload byte for rank r's k-th data byte.
func FillByte(rank int, k int64) byte {
	return byte((int64(rank)*131 + k*7 + 13) % 251)
}

// Fill writes rank's payload bytes k0, k0+1, ... over dst and returns it.
// FillByte has period 251 in k, so only the first period is computed; the
// rest is copied from it, doubling.
func Fill(dst []byte, rank int, k0 int64) []byte {
	const period = 251
	n := min(len(dst), period)
	for i := 0; i < n; i++ {
		dst[i] = FillByte(rank, k0+int64(i))
	}
	for ; n < len(dst); n *= 2 {
		copy(dst[n:], dst[:n])
	}
	return dst
}

// FillBuffer builds rank r's user buffer with the verification pattern.
func (p Pattern) FillBuffer(rank int) []byte {
	stream := Fill(make([]byte, p.RegionSize*p.RegionCount), rank, 0)
	if !p.MemNoncontig {
		return stream
	}
	mt, n := p.Memtype()
	buf := make([]byte, n)
	cur := datatype.NewCursor(mt, 0, p.RegionCount)
	for {
		s, _, ok := cur.Next(1 << 30)
		if !ok {
			break
		}
		stream = stream[copy(buf[s.Off:s.End()], stream):]
	}
	return buf
}

// FileSize is the smallest file size containing the whole access.
func (p Pattern) FileSize() int64 {
	if p.FileContig {
		return p.Disp + int64(p.Ranks)*p.RegionSize*p.RegionCount
	}
	return p.Disp + p.stride()*(p.RegionCount-1) +
		int64(p.Ranks-1)*(p.RegionSize+p.Spacing) + p.RegionSize
}

// Reference computes the expected file image for a full collective write.
func (p Pattern) Reference() []byte {
	img := make([]byte, p.FileSize())
	stream := make([]byte, p.RegionSize*p.RegionCount)
	for r := 0; r < p.Ranks; r++ {
		Fill(stream, r, 0)
		for i := int64(0); i < p.RegionCount; i++ {
			var off int64
			if p.FileContig {
				off = p.Disp + int64(r)*p.RegionSize*p.RegionCount + i*p.RegionSize
			} else {
				off = p.Disp + i*p.stride() + int64(r)*(p.RegionSize+p.Spacing)
			}
			copy(img[off:off+p.RegionSize], stream[i*p.RegionSize:])
		}
	}
	return img
}

// TotalBytes is the aggregate user data of one collective call.
func (p Pattern) TotalBytes() int64 {
	return int64(p.Ranks) * p.RegionSize * p.RegionCount
}

// String summarizes the pattern.
func (p Pattern) String() string {
	layout := "noncontig"
	if p.FileContig {
		layout = "contig"
	}
	mem := "contig"
	if p.MemNoncontig {
		mem = "noncontig"
	}
	ft := "struct"
	if p.Enumerate {
		ft = "vector"
	}
	return fmt.Sprintf("hpio(P=%d region=%dB x%d spacing=%d mem=%s file=%s type=%s)",
		p.Ranks, p.RegionSize, p.RegionCount, p.Spacing, mem, layout, ft)
}
