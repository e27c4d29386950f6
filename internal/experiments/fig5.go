package experiments

import (
	"bytes"
	"fmt"

	"flexio/internal/colltest"
	"flexio/internal/core"
	"flexio/internal/datatype"
	"flexio/internal/hpio"
	"flexio/internal/mpi"
	"flexio/internal/mpiio"
	"flexio/internal/sim"
)

// Fig5Params configures the conditional-data-sieving study (Figure 5):
// writes of a fixed-size file through filetypes of fixed extent, sweeping
// the useful-region size from ~3% to 100% of the extent, comparing data
// sieving against naive per-region I/O beneath the collective buffer.
type Fig5Params struct {
	Cfg      *sim.Config
	Ranks    int
	FileSize int64
	Extents  []int64
	// Fractions are numerators over 32: region size = extent*k/32.
	Fractions []int64
	Verify    bool
}

// DefaultFig5 matches the paper: 1 GB file, extents 1/8/16/64 KB, region
// sizes from 3% to 100% of the extent (the 4 KB-aligned sizes produce the
// paper's spikes).
//
// The stripe count is set to 5 rather than the default 4: with power-of-two
// per-rank blocks, a stripe count dividing blockSize/stripeSize makes every
// rank's progress hit the same OST at the same virtual time (a lockstep
// resonance a real system's client drift would break), serializing the
// whole array behind one server. A stripe count co-prime to the block
// geometry restores the OST parallelism the testbed had.
func DefaultFig5() Fig5Params {
	fr := make([]int64, 0, 32)
	for k := int64(1); k <= 32; k++ {
		fr = append(fr, k)
	}
	cfg := sim.DefaultConfig()
	cfg.StripeCount = 5
	return Fig5Params{
		Cfg:       cfg,
		Ranks:     16,
		FileSize:  1 << 30,
		Extents:   []int64{1 << 10, 8 << 10, 16 << 10, 64 << 10},
		Fractions: fr,
		Verify:    false,
	}
}

// Scale shrinks the file (and optionally thins the fraction grid) for
// quick runs.
func (p Fig5Params) Scale(fileSize int64, everyKth int) Fig5Params {
	p.FileSize = fileSize
	if everyKth > 1 {
		var fr []int64
		for i, k := range p.Fractions {
			if i%everyKth == 0 || k == 32 {
				fr = append(fr, k)
			}
		}
		p.Fractions = fr
	}
	return p
}

// fig5Spec builds the per-rank access: each rank owns a contiguous block
// of the file, filled with one region of rs bytes per extent E.
func fig5Spec(p Fig5Params, extent, rs int64) (func(step, rank int) colltest.StepSpec, int64, error) {
	blockSize := p.FileSize / int64(p.Ranks)
	if blockSize%extent != 0 {
		return nil, 0, fmt.Errorf("fig5: block %d not a multiple of extent %d", blockSize, extent)
	}
	regionsPerRank := blockSize / extent
	var ft datatype.Type
	if rs == extent {
		ft = datatype.Bytes(extent) // 100%: fully contiguous
	} else {
		var err error
		ft, err = datatype.Resized(datatype.Bytes(rs), extent)
		if err != nil {
			return nil, 0, err
		}
	}
	total := int64(p.Ranks) * regionsPerRank * rs
	spec := func(step, rank int) colltest.StepSpec {
		buf := hpio.Fill(make([]byte, rs*regionsPerRank), rank, 0)
		return colltest.StepSpec{
			Filetype: ft,
			Disp:     int64(rank) * blockSize,
			Memtype:  datatype.Bytes(rs),
			Count:    regionsPerRank,
			Buf:      buf,
		}
	}
	return spec, total, nil
}

// Fig5 runs the sweep: one table per extent, series Datasieve and Naive,
// and returns the last run's world; arm records on every world.
func Fig5(p Fig5Params, arm Arm) ([]Table, *mpi.World, error) {
	if p.Cfg == nil {
		p.Cfg = sim.DefaultConfig()
	}
	methods := []struct {
		name string
		m    mpiio.Method
	}{
		{"Datasieve", mpiio.DataSieve},
		{"Naive", mpiio.Naive},
	}
	var tables []Table
	var last *mpi.World
	for _, ext := range p.Extents {
		tbl := Table{
			Title:  fmt.Sprintf("Figure 5: %s datatype extent, %s file", fmtBytes(ext), fmtBytes(p.FileSize)),
			XLabel: "region(B,%)",
			YLabel: "MB/s",
		}
		for _, m := range methods {
			s := Series{Name: m.name}
			for _, k := range p.Fractions {
				rs := ext * k / 32
				if rs == 0 {
					continue
				}
				spec, total, err := fig5Spec(p, ext, rs)
				if err != nil {
					return nil, last, err
				}
				res, err := run(p.Cfg, p.Ranks, mpiio.Info{
					Collective: core.New(core.Options{Method: m.m}),
				}, 1, spec, arm)
				if err == nil && p.Verify {
					err = verifyFig5(p, res, ext, rs)
				}
				if err != nil {
					return nil, last, fmt.Errorf("fig5 %s ext=%d rs=%d: %w", m.name, ext, rs, err)
				}
				last = res.World
				s.Points = append(s.Points, Point{
					X:     fmt.Sprintf("%d (%d%%)", rs, rs*100/ext),
					Value: res.BandwidthMBs(total),
				})
			}
			tbl.Series = append(tbl.Series, s)
		}
		tables = append(tables, tbl)
	}
	return tables, last, nil
}

func verifyFig5(p Fig5Params, res colltest.Result, ext, rs int64) error {
	blockSize := p.FileSize / int64(p.Ranks)
	img := res.FS.Snapshot(colltest.File, p.FileSize)
	want := make([]byte, blockSize/ext*rs) // one rank's data stream
	for rank := 0; rank < p.Ranks; rank++ {
		base := int64(rank) * blockSize
		hpio.Fill(want, rank, 0)
		for reg := int64(0); reg < blockSize/ext; reg++ {
			off := base + reg*ext
			if got, w := img[off:off+rs], want[reg*rs:(reg+1)*rs]; !bytes.Equal(got, w) {
				b := firstDiff(got, w)
				return fmt.Errorf("file byte %d = %d, want %d", off+int64(b), got[b], w[b])
			}
		}
	}
	return nil
}

// firstDiff is the index of the first byte two equally long slices differ in.
func firstDiff(a, b []byte) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

func fmtBytes(n int64) string {
	switch {
	case n >= 1<<30 && n%(1<<30) == 0:
		return fmt.Sprintf("%dGB", n>>30)
	case n >= 1<<20 && n%(1<<20) == 0:
		return fmt.Sprintf("%dMB", n>>20)
	case n >= 1<<10 && n%(1<<10) == 0:
		return fmt.Sprintf("%dKB", n>>10)
	default:
		return fmt.Sprintf("%dB", n)
	}
}
