package experiments

import (
	"bytes"
	"fmt"

	"flexio/internal/core"
	"flexio/internal/datatype"
	"flexio/internal/hpio"
	"flexio/internal/mpiio"
	"flexio/internal/sim"
)

// Fig7Params configures the persistent-file-realm / realm-alignment study
// (Figure 7): a write-only time-step checkpoint pattern where each
// multi-variable data point keeps all its time steps together, so every
// collective write is sparse, small, and shifted one slot further into
// each data point — the access pattern a higher-level library like NetCDF
// generates.
type Fig7Params struct {
	Cfg           *sim.Config
	Clients       []int
	ElemSize      int64
	ElemsPerPoint int64
	Points        int64
	Steps         int
	// Align is the realm alignment used by the fr-align configurations
	// (the paper aligns to the 2 MB Lustre stripe).
	Align  int64
	Verify bool
}

// DefaultFig7 matches the paper: 32-byte elements, 100 elements per data
// point, 2048 data points, 32 time steps (≈6.5 MB per collective write),
// clients 16..64 with half of them acting as aggregators, alignment 2 MB.
func DefaultFig7() Fig7Params {
	return Fig7Params{
		Cfg:           sim.DefaultConfig(),
		Clients:       []int{16, 32, 48, 64},
		ElemSize:      32,
		ElemsPerPoint: 100,
		Points:        2048,
		Steps:         32,
		Align:         2 << 20,
		Verify:        false,
	}
}

// Scale shrinks the pattern for quick runs.
func (p Fig7Params) Scale(points int64, steps int, clients []int) Fig7Params {
	p.Points = points
	p.Steps = steps
	if clients != nil {
		p.Clients = clients
	}
	return p
}

// myElems lists the element indices client c owns (round-robin).
func myElems(c, clients int, elemsPerPoint int64) []int64 {
	var out []int64
	for e := int64(c); e < elemsPerPoint; e += int64(clients) {
		out = append(out, e)
	}
	return out
}

// fig7Spec builds the per-step access: at step t, client c writes its
// elements of every data point's slot t.
func fig7Spec(p Fig7Params, clients int) func(step, rank int) StepSpec {
	slotSize := p.ElemsPerPoint * p.ElemSize
	pointExtent := int64(p.Steps) * slotSize
	return func(step, rank int) StepSpec {
		elems := myElems(rank, clients, p.ElemsPerPoint)
		lens := make([]int64, len(elems))
		displs := make([]int64, len(elems))
		for i, e := range elems {
			lens[i] = 1
			displs[i] = e * p.ElemSize
		}
		pattern := datatype.Must(datatype.HIndexed(lens, displs, datatype.Bytes(p.ElemSize)))
		ft := datatype.Must(datatype.Resized(pattern, pointExtent))
		mine := int64(len(elems)) * p.ElemSize
		buf := hpio.Fill(make([]byte, mine*p.Points), rank, int64(step)*mine*p.Points)
		return StepSpec{
			Filetype: ft,
			Disp:     int64(step) * slotSize,
			Memtype:  datatype.Bytes(mine),
			Count:    p.Points,
			Buf:      buf,
		}
	}
}

// fig7Configs is the 2x2 of {PFR, realm alignment}.
func fig7Configs(align int64) []struct {
	name string
	opts core.Options
} {
	return []struct {
		name string
		opts core.Options
	}{
		{"pfr/fr-align", core.Options{Persistent: true, Align: align, Method: mpiio.DataSieve}},
		{"pfr/no-fr-align", core.Options{Persistent: true, Method: mpiio.DataSieve}},
		{"no-pfr/fr-align", core.Options{Align: align, Method: mpiio.DataSieve}},
		{"no-pfr/no-fr-align", core.Options{Method: mpiio.DataSieve}},
	}
}

// Fig7 runs the study: one table, X = client count, four series.
func Fig7(p Fig7Params) ([]Table, error) {
	if p.Cfg == nil {
		p.Cfg = sim.DefaultConfig()
	}
	stepBytes := p.Points * p.ElemsPerPoint * p.ElemSize
	total := stepBytes * int64(p.Steps)
	tbl := Table{
		Title: fmt.Sprintf("Figure 7: PFRs & file realm alignment (%s per step, %d steps, half of clients aggregate)",
			fmtBytes(stepBytes), p.Steps),
		XLabel: "clients",
		YLabel: "MB/s",
	}
	for _, cfg := range fig7Configs(p.Align) {
		s := Series{Name: cfg.name}
		for _, clients := range p.Clients {
			info := mpiio.Info{
				Collective: core.New(cfg.opts),
				CbNodes:    clients / 2,
			}
			res, err := RunSteps(p.Cfg, clients, info, p.Steps, fig7Spec(p, clients))
			if err != nil {
				return nil, fmt.Errorf("fig7 %s clients=%d: %w", cfg.name, clients, err)
			}
			if p.Verify {
				if err := verifyFig7(p, res, clients); err != nil {
					return nil, fmt.Errorf("fig7 %s clients=%d: %w", cfg.name, clients, err)
				}
			}
			s.Points = append(s.Points, Point{
				X:     fmt.Sprintf("%d", clients),
				Value: res.BandwidthMBs(total),
			})
		}
		tbl.Series = append(tbl.Series, s)
	}
	return []Table{tbl}, nil
}

// RunPFRConfig runs the Figure 7 workload once for a single configuration
// (`flexio fig 7 -clients N` inspects one cell of the 2x2 in detail).
func RunPFRConfig(p Fig7Params, clients int, pfr bool, align int64) (RunResult, error) {
	if p.Cfg == nil {
		p.Cfg = sim.DefaultConfig()
	}
	info := mpiio.Info{
		Collective: core.New(core.Options{Persistent: pfr, Align: align, Method: mpiio.DataSieve}),
		CbNodes:    clients / 2,
	}
	res, err := RunSteps(p.Cfg, clients, info, p.Steps, fig7Spec(p, clients))
	if err != nil {
		return RunResult{}, err
	}
	if p.Verify {
		if err := verifyFig7(p, res, clients); err != nil {
			return RunResult{}, err
		}
	}
	return res, nil
}

func verifyFig7(p Fig7Params, res RunResult, clients int) error {
	slotSize := p.ElemsPerPoint * p.ElemSize
	pointExtent := int64(p.Steps) * slotSize
	img := res.FS.Snapshot("exp.dat", p.Points*pointExtent)
	for rank := 0; rank < clients; rank++ {
		elems := myElems(rank, clients, p.ElemsPerPoint)
		mine := int64(len(elems)) * p.ElemSize
		stream := make([]byte, mine*p.Points) // what the rank wrote in one step
		for step := 0; step < p.Steps; step++ {
			want := hpio.Fill(stream, rank, int64(step)*mine*p.Points)
			for pt := int64(0); pt < p.Points; pt++ {
				for _, e := range elems {
					off := pt*pointExtent + int64(step)*slotSize + e*p.ElemSize
					if got := img[off : off+p.ElemSize]; !bytes.Equal(got, want[:p.ElemSize]) {
						b := firstDiff(got, want)
						return fmt.Errorf("byte %d (rank %d step %d point %d elem %d) = %d, want %d",
							off+int64(b), rank, step, pt, e, got[b], want[b])
					}
					want = want[p.ElemSize:]
				}
			}
		}
	}
	return nil
}
