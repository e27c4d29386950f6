package experiments

import (
	"fmt"

	"flexio/internal/colltest"
	"flexio/internal/core"
	"flexio/internal/datatype"
	"flexio/internal/hpio"
	"flexio/internal/mpiio"
	"flexio/internal/realm"
	"flexio/internal/sim"
	"flexio/internal/stats"
)

// AblationParams scales the ablation studies.
type AblationParams struct {
	Cfg         *sim.Config
	Ranks       int
	RegionSize  int64
	RegionCount int64
	Spacing     int64
}

// DefaultAblation returns a mid-sized HPIO-style workload.
func DefaultAblation() AblationParams {
	return AblationParams{
		Cfg:         sim.DefaultConfig(),
		Ranks:       32,
		RegionSize:  64,
		RegionCount: 2048,
		Spacing:     128,
	}
}

// AblationExchange (A1) quantifies the paper's §5.3 tradeoff: request
// metadata volume and offset/length pairs processed, old flattened-access
// exchange vs new flattened-filetype exchange, over a region-count sweep.
// Values are bytes (request series) and pairs (pairs series).
func AblationExchange(p AblationParams) ([]Table, error) {
	if p.Cfg == nil {
		p.Cfg = sim.DefaultConfig()
	}
	counts := []int64{256, 512, 1024, 2048, 4096}
	reqT := Table{Title: "A1: request metadata exchanged", XLabel: "regions", YLabel: "bytes"}
	pairT := Table{Title: "A1: offset/length pairs processed", XLabel: "regions", YLabel: "pairs"}
	impls := []struct {
		name string
		coll func() mpiio.Collective
	}{
		{"old (flattened access)", func() mpiio.Collective { return core.ROMIO(core.Options{}) }},
		{"new (flattened filetype)", func() mpiio.Collective { return core.New(core.Options{}) }},
		{"new+vect (enumerated)", func() mpiio.Collective { return core.New(core.Options{}) }},
	}
	for i, im := range impls {
		rs := Series{Name: im.name}
		ps := Series{Name: im.name}
		for _, rc := range counts {
			wl := hpio.Pattern{
				Ranks: p.Ranks, RegionSize: p.RegionSize, RegionCount: rc,
				Spacing: p.Spacing, Enumerate: i == 2,
			}
			res, err := colltest.RunWrite(p.Cfg, wl, mpiio.Info{Collective: im.coll()})
			if err != nil {
				return nil, fmt.Errorf("A1 %s rc=%d: %w", im.name, rc, err)
			}
			agg := stats.Merge(res.World.Recorders()...)
			rs.Points = append(rs.Points, Point{X: fmt.Sprint(rc), Value: float64(agg.Counter(stats.CReqBytes))})
			ps.Points = append(ps.Points, Point{X: fmt.Sprint(rc), Value: float64(agg.Counter(stats.CPairsProcessed))})
		}
		reqT.Series = append(reqT.Series, rs)
		pairT.Series = append(pairT.Series, ps)
	}
	return []Table{reqT, pairT}, nil
}

// AblationRepresentation (A2) reproduces the paper's Figure 3 trade-off as
// concrete encoded sizes: higher-level datatype vs flattened datatype vs
// flattened access, for patterns of growing region count. Values are bytes.
func AblationRepresentation(p AblationParams) ([]Table, error) {
	tbl := Table{Title: "A2: access representation sizes (one process)", XLabel: "regions", YLabel: "bytes"}
	tree := Series{Name: "datatype tree"}
	flatDT := Series{Name: "flattened datatype"}
	flatAcc := Series{Name: "flattened access"}
	for _, rc := range []int64{64, 256, 1024, 4096, 16384} {
		wl := hpio.Pattern{Ranks: 1, RegionSize: p.RegionSize, RegionCount: rc, Spacing: p.Spacing}
		ft, disp := wl.Filetype(0)
		fl := datatype.FlatOf(ft, disp, rc)
		segs, _ := datatype.Segments(ft, disp, rc)
		tree.Points = append(tree.Points, Point{X: fmt.Sprint(rc), Value: float64(datatype.Tree(ft).WireBytes())})
		flatDT.Points = append(flatDT.Points, Point{X: fmt.Sprint(rc), Value: float64(len(fl.Encode()))})
		flatAcc.Points = append(flatAcc.Points, Point{X: fmt.Sprint(rc), Value: float64(len(datatype.EncodeSegs(segs)))})
	}
	tbl.Series = []Series{tree, flatDT, flatAcc}

	// Second panel: nested regular types, where the constructor tree
	// stays constant-size while even the flattened datatype grows with
	// the pattern (paper Figure 3's "higher-level datatype").
	nestT := Table{Title: "A2b: nested vector-of-vector representation sizes", XLabel: "blocks/dim", YLabel: "bytes"}
	nTree := Series{Name: "datatype tree"}
	nFlat := Series{Name: "flattened datatype"}
	for _, n := range []int64{8, 16, 32, 64, 128} {
		innerStride := int64(64)
		inner, err := datatype.Vector(n, 1, innerStride, datatype.Bytes(16))
		if err != nil {
			return nil, err
		}
		outer, err := datatype.Vector(n, 1, inner.Extent()+innerStride, inner)
		if err != nil {
			return nil, err
		}
		nTree.Points = append(nTree.Points, Point{X: fmt.Sprint(n), Value: float64(datatype.Tree(outer).WireBytes())})
		nFlat.Points = append(nFlat.Points, Point{X: fmt.Sprint(n), Value: float64(datatype.FlatOf(outer, 0, 1).WireBytes())})
	}
	nestT.Series = []Series{nTree, nFlat}
	return []Table{tbl, nestT}, nil
}

// AblationRealms (A3) demonstrates datatype-described realm flexibility:
// on a sparse clustered access (most data near the end of a huge aggregate
// region), even realms leave most aggregators idle while load-balanced
// realms split the actual data. Values are MB/s.
func AblationRealms(p AblationParams) ([]Table, error) {
	if p.Cfg == nil {
		p.Cfg = sim.DefaultConfig()
	}
	tbl := Table{Title: "A3: realm policies on sparse clustered accesses", XLabel: "policy", YLabel: "MB/s"}

	// Paper §5.2's motivating pathology: the aggregate access region is
	// huge and nearly empty (one sentinel byte at offset 0), with dense
	// data clusters packed into its upper end. The even partition hands
	// most clusters to the last couple of aggregators; load balancing
	// spreads one cluster per aggregator.
	ranks := p.Ranks
	const (
		regionSize  = 4096
		regionCount = 256
		spacing     = 64
		clusterBase = int64(160) << 20
		// 5 stripes apart: no stripe sharing between clusters, and
		// consecutive clusters land on different OSTs (5 mod 4 != 0).
		clusterPitch = int64(10) << 20
	)
	clusterBytes := int64(regionSize) * regionCount
	run := func(as realm.Assigner) (float64, float64, error) {
		impl := core.New(core.Options{Assigner: as})
		spec := func(step, rank int) StepSpec {
			if rank == 0 {
				return StepSpec{
					Filetype: datatype.Bytes(64),
					Disp:     0,
					Memtype:  datatype.Bytes(64),
					Count:    1,
					Buf:      make([]byte, 64),
				}
			}
			// Rank r owns its private dense cluster.
			ft := datatype.Must(datatype.Resized(datatype.Bytes(regionSize), regionSize+spacing))
			buf := hpio.Fill(make([]byte, clusterBytes), rank, 0)
			return StepSpec{
				Filetype: ft,
				Disp:     clusterBase + int64(rank-1)*clusterPitch,
				Memtype:  datatype.Bytes(regionSize),
				Count:    regionCount,
				Buf:      buf,
			}
		}
		res, err := RunSteps(p.Cfg, ranks, mpiio.Info{Collective: impl}, 1, spec)
		if err != nil {
			return 0, 0, err
		}
		// The slowest aggregator bounds the collective call: report the
		// largest per-rank I/O volume as the imbalance measure.
		var maxIO int64
		for r := 0; r < ranks; r++ {
			if n := res.World.Proc(r).Stats.Counter(stats.CBytesIO); n > maxIO {
				maxIO = n
			}
		}
		bytes := int64(ranks-1)*clusterBytes + 64
		return res.BandwidthMBs(bytes), float64(maxIO) / 1e6, nil
	}

	bw := Series{Name: "bandwidth"}
	worst := Series{Name: "max aggregator I/O (MB)"}
	for _, as := range []realm.Assigner{realm.Even{}, realm.LoadBalanced{Align: p.Cfg.StripeSize}} {
		b, m, err := run(as)
		if err != nil {
			return nil, fmt.Errorf("A3 %s: %w", as.Name(), err)
		}
		bw.Points = append(bw.Points, Point{X: as.Name(), Value: b})
		worst.Points = append(worst.Points, Point{X: as.Name(), Value: m})
	}
	tbl.Series = []Series{bw, worst}
	return []Table{tbl}, nil
}

// AblationComm (A4) compares the data exchange strategies of §5.4:
// Alltoallw vs overlapped nonblocking, across aggregator counts.
func AblationComm(p AblationParams) ([]Table, error) {
	if p.Cfg == nil {
		p.Cfg = sim.DefaultConfig()
	}
	tbl := Table{Title: "A4: data exchange strategy", XLabel: "aggregators", YLabel: "MB/s"}
	for _, comm := range []core.CommStrategy{core.Alltoallw, core.Nonblocking} {
		s := Series{Name: comm.String()}
		for _, naggs := range []int{4, 8, 16, 32} {
			if naggs > p.Ranks {
				continue
			}
			wl := hpio.Pattern{
				Ranks: p.Ranks, RegionSize: p.RegionSize, RegionCount: p.RegionCount,
				Spacing: p.Spacing, MemNoncontig: true, MemGap: p.Spacing,
			}
			res, err := colltest.RunWrite(p.Cfg, wl, mpiio.Info{
				Collective: core.New(core.Options{Comm: comm}),
				CbNodes:    naggs,
			})
			if err != nil {
				return nil, fmt.Errorf("A4 %v naggs=%d: %w", comm, naggs, err)
			}
			s.Points = append(s.Points, Point{X: fmt.Sprint(naggs), Value: res.BandwidthMBs(wl.TotalBytes())})
		}
		tbl.Series = append(tbl.Series, s)
	}
	return []Table{tbl}, nil
}

// AblationHeap (A5) measures the client-side heap merge against the base
// per-aggregator pass, for enumerated filetypes where it matters.
func AblationHeap(p AblationParams) ([]Table, error) {
	if p.Cfg == nil {
		p.Cfg = sim.DefaultConfig()
	}
	tbl := Table{Title: "A5: client merge strategy (enumerated filetype)", XLabel: "aggregators", YLabel: "MB/s"}
	for _, heap := range []bool{false, true} {
		name := "per-aggregator pass"
		if heap {
			name = "binary heap merge"
		}
		s := Series{Name: name}
		for _, naggs := range []int{4, 8, 16, 32} {
			if naggs > p.Ranks {
				continue
			}
			wl := hpio.Pattern{
				Ranks: p.Ranks, RegionSize: p.RegionSize, RegionCount: p.RegionCount,
				Spacing: p.Spacing, Enumerate: true,
			}
			res, err := colltest.RunWrite(p.Cfg, wl, mpiio.Info{
				Collective: core.New(core.Options{HeapMerge: heap}),
				CbNodes:    naggs,
			})
			if err != nil {
				return nil, fmt.Errorf("A5 heap=%v naggs=%d: %w", heap, naggs, err)
			}
			s.Points = append(s.Points, Point{X: fmt.Sprint(naggs), Value: res.BandwidthMBs(wl.TotalBytes())})
		}
		tbl.Series = append(tbl.Series, s)
	}
	return []Table{tbl}, nil
}
