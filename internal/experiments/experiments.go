// Package experiments regenerates every evaluation figure of the paper
// (Figures 4, 5, and 7) plus the ablation studies DESIGN.md calls out, as
// tables of bandwidth series over parameter sweeps. cmd/flexio's fig and
// the repository's benchmarks are thin wrappers over this package.
package experiments

import (
	"fmt"
	"strings"

	"flexio/internal/colltest"
	"flexio/internal/datatype"
	"flexio/internal/mpi"
	"flexio/internal/mpiio"
	"flexio/internal/pfs"
	"flexio/internal/sim"
)

// TraceCapacity, when positive, makes every harness run record a virtual-time
// trace with that per-rank event capacity (sampled under colltest.SampleK).
var TraceCapacity int

// Last is the world of the most recent successful harness run, so the caller
// of a sweep (cmd/flexio's fig) can render the final experiment's trace,
// stats and metrics without threading them through every figure's signature.
var Last *mpi.World

// NodeRanks, when positive, places every NodeRanks consecutive ranks on one
// simulated node for every harness run (cmd/flexio's -nodes flag).
// Zero keeps the default one-rank-per-node topology, under which the
// intra-node fast path and pre-aggregation never engage.
var NodeRanks int

// Point is one measurement: X is the sweep coordinate label, Value the
// metric (MB/s unless the table says otherwise).
type Point struct {
	X     string
	Value float64
}

// Series is one line of a figure.
type Series struct {
	Name   string
	Points []Point
}

// Table is one panel of a figure.
type Table struct {
	Title  string
	XLabel string
	YLabel string
	Series []Series
}

// Format renders the table as aligned text, one row per X value.
func (t Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "## %s\n", t.Title)
	fmt.Fprintf(&b, "%-16s", t.XLabel)
	for _, s := range t.Series {
		fmt.Fprintf(&b, "%16s", s.Name)
	}
	fmt.Fprintf(&b, "    (%s)\n", t.YLabel)
	if len(t.Series) == 0 {
		return b.String()
	}
	for i := range t.Series[0].Points {
		fmt.Fprintf(&b, "%-16s", t.Series[0].Points[i].X)
		for _, s := range t.Series {
			if i < len(s.Points) {
				fmt.Fprintf(&b, "%16.2f", s.Points[i].Value)
			} else {
				fmt.Fprintf(&b, "%16s", "-")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// StepSpec describes one rank's access for one collective write step.
type StepSpec struct {
	Filetype datatype.Type
	Disp     int64
	Memtype  datatype.Type
	Count    int64
	Buf      []byte
}

// RunResult carries a harness run's outputs.
type RunResult struct {
	Elapsed sim.Time
	World   *mpi.World
	FS      *pfs.FileSystem
}

// BandwidthMBs converts bytes over the run's elapsed virtual time to MB/s.
func (r RunResult) BandwidthMBs(bytes int64) float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(bytes) / 1e6 / r.Elapsed.Seconds()
}

// RunSteps opens one file on `ranks` simulated processes and performs
// `steps` collective writes, asking spec for each rank's view and buffer
// at each step. It returns the total elapsed virtual time.
func RunSteps(cfg *sim.Config, ranks int, info mpiio.Info, steps int,
	spec func(step, rank int) StepSpec) (RunResult, error) {

	w := mpi.NewWorld(ranks, cfg)
	if NodeRanks > 0 {
		w.SetNodeMap(mpi.BlockNodeMap(NodeRanks))
	}
	if TraceCapacity > 0 {
		colltest.EnableTracing(w, TraceCapacity, info.CbNodes)
	}
	// Metrics are allocation-free; always on so drivers can export the
	// exposition or run the analyzer via World.MetricsSet.
	w.EnableMetrics()
	fs := pfs.NewFileSystem(cfg)
	errs := make(chan error, ranks)
	w.Run(func(p *mpi.Proc) {
		f, err := mpiio.Open(p, fs, "exp.dat", info)
		if err != nil {
			errs <- err
			return
		}
		for s := 0; s < steps; s++ {
			sp := spec(s, p.Rank())
			if err := f.SetView(sp.Disp, datatype.Bytes(1), sp.Filetype); err != nil {
				errs <- fmt.Errorf("rank %d step %d: %w", p.Rank(), s, err)
				return
			}
			if err := f.WriteAll(sp.Buf, sp.Memtype, sp.Count); err != nil {
				errs <- fmt.Errorf("rank %d step %d: %w", p.Rank(), s, err)
				return
			}
		}
		errs <- f.Close()
	})
	for i := 0; i < ranks; i++ {
		if err := <-errs; err != nil {
			return RunResult{}, err
		}
	}
	Last = w
	return RunResult{Elapsed: w.MaxClock(), World: w, FS: fs}, nil
}
