package experiments

import (
	"fmt"

	"flexio/internal/colltest"
	"flexio/internal/core"
	"flexio/internal/hpio"
	"flexio/internal/mpi"
	"flexio/internal/mpiio"
	"flexio/internal/sim"
)

// Fig4Params configures the Figure 4 reproduction: HPIO, noncontiguous in
// memory and in file, bandwidth vs region size, one panel per aggregator
// count, three series (new code + succinct struct type, new code +
// enumerated vector type, original code + vector type).
type Fig4Params struct {
	Cfg         *sim.Config
	Ranks       int
	RegionCount int64
	Spacing     int64
	MemGap      int64
	RegionSizes []int64
	AggCounts   []int
	// Verify checks the written file against the reference image at
	// every point (slow for the full grid; always on at small scale).
	Verify bool
	// Reps runs each point this many times and keeps the best bandwidth
	// (the paper reports the best of five runs; goroutine scheduling
	// perturbs the simulated interleaving analogously). Zero means 1.
	Reps int
}

// DefaultFig4 returns the paper's exact parameter grid: 64 processes, 4096
// regions per client, 128-byte spacing, region sizes 8 B .. 4 KB, panels
// at 8/16/24/32 aggregators.
func DefaultFig4() Fig4Params {
	return Fig4Params{
		Cfg:         sim.DefaultConfig(),
		Ranks:       64,
		RegionCount: 4096,
		Spacing:     128,
		MemGap:      128,
		RegionSizes: []int64{8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096},
		AggCounts:   []int{8, 16, 24, 32},
		Verify:      false,
	}
}

// Scale shrinks the grid for quick runs while preserving the shapes.
func (p Fig4Params) Scale(ranks int, regions int64) Fig4Params {
	p.Ranks = ranks
	p.RegionCount = regions
	aggs := make([]int, 0, len(p.AggCounts))
	for _, a := range p.AggCounts {
		if a <= ranks {
			aggs = append(aggs, a)
		}
	}
	if len(aggs) == 0 {
		aggs = []int{ranks}
	}
	p.AggCounts = aggs
	return p
}

// Fig4 runs the sweep and returns one table per aggregator count and the
// last run's world; arm records on every world.
func Fig4(p Fig4Params, arm Arm) ([]Table, *mpi.World, error) {
	if p.Cfg == nil {
		p.Cfg = sim.DefaultConfig()
	}
	configs := []struct {
		name      string
		enumerate bool
		coll      func() mpiio.Collective
	}{
		{"new+struct", false, func() mpiio.Collective { return core.New(core.Options{}) }},
		{"new+vect", true, func() mpiio.Collective { return core.New(core.Options{}) }},
		{"old+vec", true, func() mpiio.Collective { return core.ROMIO(core.Options{}) }},
	}

	var last *mpi.World
	tables := make([]Table, 0, len(p.AggCounts))
	for _, naggs := range p.AggCounts {
		tbl := Table{
			Title:  fmt.Sprintf("Figure 4: HPIO %d procs noncontig/noncontig, %d aggregators", p.Ranks, naggs),
			XLabel: "region(B)",
			YLabel: "MB/s",
		}
		for _, c := range configs {
			s := Series{Name: c.name}
			for _, rs := range p.RegionSizes {
				wl := hpio.Pattern{
					Ranks:        p.Ranks,
					RegionSize:   rs,
					RegionCount:  p.RegionCount,
					Spacing:      p.Spacing,
					MemNoncontig: true,
					MemGap:       p.MemGap,
					Enumerate:    c.enumerate,
				}
				reps := p.Reps
				if reps < 1 {
					reps = 1
				}
				best := 0.0
				for rep := 0; rep < reps; rep++ {
					res, err := run(p.Cfg, p.Ranks, mpiio.Info{
						Collective: c.coll(),
						CbNodes:    naggs,
					}, 1, colltest.Spec(wl), arm)
					if err == nil && p.Verify {
						err = colltest.VerifyImage(wl, res.FS.Snapshot(colltest.File, wl.FileSize()))
					}
					if err != nil {
						return nil, last, fmt.Errorf("fig4 %s region=%d naggs=%d: %w", c.name, rs, naggs, err)
					}
					if bw := res.BandwidthMBs(wl.TotalBytes()); bw > best {
						best = bw
					}
					last = res.World
				}
				s.Points = append(s.Points, Point{
					X:     fmt.Sprintf("%d", rs),
					Value: best,
				})
			}
			tbl.Series = append(tbl.Series, s)
		}
		tables = append(tables, tbl)
	}
	return tables, last, nil
}
