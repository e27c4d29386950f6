// Package experiments regenerates every evaluation figure of the paper
// (Figures 4, 5, and 7) plus the ablation studies DESIGN.md calls out, as
// tables of bandwidth series over parameter sweeps. cmd/flexio's fig and
// the repository's benchmarks are thin wrappers over this package.
package experiments

import (
	"fmt"
	"strings"

	"flexio/internal/colltest"
	"flexio/internal/mpi"
	"flexio/internal/mpiio"
	"flexio/internal/sim"
)

// Arm records on a world a driver built, before the world runs: a node
// map, tracing, metrics (cmd/flexio's recording flags). Nil arms nothing.
type Arm func(w *mpi.World, info mpiio.Info)

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

// run writes `steps` steps of spec on a new world of `ranks` ranks, which
// arm records on first.
func run(cfg *sim.Config, ranks int, info mpiio.Info, steps int,
	spec func(step, rank int) colltest.StepSpec, arm Arm) (colltest.Result, error) {
	w := mpi.NewWorld(ranks, cfg)
	if arm != nil {
		arm(w, info)
	}
	return colltest.WriteSpec(w, info, steps, spec)
}
