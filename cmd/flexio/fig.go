package main

import (
	"errors"
	"flag"
	"fmt"
	"slices"
	"strings"

	"flexio/internal/experiments"
	"flexio/internal/metrics"
	"flexio/internal/mpi"
)

// figures are the names fig accepts, in the order "all" runs them.
var figures = []string{"4", "5", "7", "a1", "a2", "a3", "a4", "a5"}

// runFig regenerates the paper's evaluation figures (4, 5 and 7) and the
// ablations (A1–A5) as text tables. At paper scale Figure 4 writes up to
// 1 GB per point and Figure 5 a 1 GB file per point: minutes of wall time
// and a few GB of RAM; -small keeps every figure to seconds.
func runFig(fs *flag.FlagSet, args []string, out *output) error {
	var rec recording
	rec.flags(fs)
	small := fs.Bool("small", false, "run at reduced scale (fast, shapes preserved)")
	verify := fs.Bool("verify", false, "verify file contents against references at every point")
	fig5file := fs.Int64("fig5file", 1<<30, "figure 5 file size in bytes")
	fig5every := fs.Int("fig5every", 1, "keep every k-th figure 5 fraction point")
	fig4aggs := fs.Int("fig4aggs", 0, "restrict figure 4 to one aggregator count (0 = all panels)")
	clients := fs.Int("clients", 0, "fig 7: run only the cell of this many clients (half of them aggregate) and print its lock and cache counters")
	pfr := fs.Bool("pfr", false, "with -clients: persistent file realms")
	align := fs.Int64("align", 0, "with -clients: file realm alignment in bytes (0 = off; the paper uses the 2MB stripe)")
	elems := fs.Int64("elems", 100, "with -clients: elements per data point")
	elemSize := fs.Int64("elemsize", 32, "with -clients: element size in bytes")
	points := fs.Int64("points", 2048, "with -clients: number of data points")
	steps := fs.Int("steps", 32, "with -clients: time steps (one collective write each)")
	pos, err := parse(fs, args, 0, 1, "one figure: 4, 5, 7, A1, A2, A3, A4, A5 or all")
	if err != nil {
		return err
	}
	want := "all"
	if len(pos) == 1 {
		want = strings.ToLower(pos[0])
	}
	switch {
	case want != "all" && !slices.Contains(figures, want):
		return usagef("unknown figure %q: 4, 5, 7, A1, A2, A3, A4, A5 or all", pos[0])
	case *clients > 0 && want != "7":
		return usagef("-clients runs one cell of fig 7")
	case *clients == 0:
		if err := refuse(fs, []string{"pfr", "align", "elems", "elemsize", "points", "steps"}, "needs fig 7 -clients N"); err != nil {
			return err
		}
	}
	if err := rec.check(fs); err != nil {
		return err
	}

	if *clients > 0 {
		p := experiments.DefaultFig7()
		p.Clients = []int{*clients}
		p.ElemsPerPoint, p.ElemSize, p.Points = *elems, *elemSize, *points
		p.Steps, p.Verify = *steps, *verify
		res, err := experiments.RunPFRConfig(p, *clients, *pfr, *align, rec.arm)
		if err != nil {
			return err
		}
		total := p.Points * p.ElemsPerPoint * p.ElemSize * int64(p.Steps)
		fmt.Fprintf(out, "clients=%d aggregators=%d points=%d elems=%d x %dB steps=%d pfr=%v align=%d\n",
			*clients, *clients/2, p.Points, p.ElemsPerPoint, p.ElemSize, p.Steps, *pfr, *align)
		fmt.Fprintf(out, "data per step: %.2f MB   total: %.2f MB\n", float64(total)/float64(p.Steps)/1e6, float64(total)/1e6)
		fmt.Fprintf(out, "elapsed (virtual): %v   bandwidth: %.2f MB/s\n", res.Elapsed, res.BandwidthMBs(total))
		agg := res.World.Totals()
		fmt.Fprintf(out, "\nlock grants:      %d\n", agg.Counter(metrics.CLockGrants))
		fmt.Fprintf(out, "lock revocations: %d\n", agg.Counter(metrics.CLockRevokes))
		fmt.Fprintf(out, "stripe conflicts: %d\n", agg.Counter(metrics.CStripeConflicts))
		fmt.Fprintf(out, "cache hits:       %d\n", agg.Counter(metrics.CCacheHits))
		fmt.Fprintf(out, "cache flushes:    %d\n", agg.Counter(metrics.CCacheFlushes))
		fmt.Fprintf(out, "I/O calls:        %d\n", agg.Counter(metrics.CIOCalls))
		fmt.Fprintf(out, "bytes to storage: %.2f MB (vs %.2f MB useful)\n", float64(agg.Counter(metrics.CIOBytes))/1e6, float64(total)/1e6)
		return rec.render(out, res.World)
	}

	ab := experiments.DefaultAblation()
	if *small {
		ab.Ranks, ab.RegionCount = 8, 512
	}
	ablations := map[string]func(experiments.AblationParams, experiments.Arm) ([]experiments.Table, *mpi.World, error){
		"a1": experiments.AblationExchange, "a2": experiments.AblationRepresentation, "a3": experiments.AblationRealms,
		"a4": experiments.AblationComm, "a5": experiments.AblationHeap,
	}
	var failed []error
	var last *mpi.World // the world of the last figure that ran one
	for _, name := range figures {
		if want != "all" && want != name {
			continue
		}
		var tables []experiments.Table
		var w *mpi.World
		switch name {
		case "4":
			p := experiments.DefaultFig4()
			if *small {
				p = p.Scale(16, 256)
			}
			if *fig4aggs > 0 {
				p.AggCounts = []int{*fig4aggs}
			}
			p.Verify = *verify
			tables, w, err = experiments.Fig4(p, rec.arm)
		case "5":
			p := experiments.DefaultFig5().Scale(*fig5file, *fig5every)
			if *small {
				p = p.Scale(64<<20, 4)
				p.Ranks = 8
			}
			p.Verify = *verify
			tables, w, err = experiments.Fig5(p, rec.arm)
		case "7":
			p := experiments.DefaultFig7()
			if *small {
				p = p.Scale(512, 8, []int{16, 32})
			}
			p.Verify = *verify
			tables, w, err = experiments.Fig7(p, rec.arm)
		default:
			tables, w, err = ablations[name](ab, rec.arm)
		}
		if w != nil {
			last = w
		}
		if err != nil {
			failed = append(failed, fmt.Errorf("%s: %w", strings.ToUpper(name), err))
		}
		for _, t := range tables {
			fmt.Fprintln(out, t.Format())
		}
	}
	if err := rec.render(out, last); err != nil {
		failed = append(failed, err)
	}
	return errors.Join(failed...)
}
