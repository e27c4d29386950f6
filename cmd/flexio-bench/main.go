// Command flexio-bench regenerates the paper's evaluation figures (4, 5,
// and 7) and the repository's ablation studies (A1–A5) as text tables.
//
// Usage:
//
//	flexio-bench -fig 4            # Figure 4 at paper scale (slow)
//	flexio-bench -fig 5 -small    # Figure 5 at reduced scale
//	flexio-bench -fig all -small  # everything, quickly
//
// At paper scale Figure 4 writes up to 1 GB per point and Figure 5 writes
// a 1 GB file per point; expect minutes of wall time and a few GB of RAM.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"flexio/internal/analyze"
	"flexio/internal/chaos"
	"flexio/internal/critpath"
	"flexio/internal/experiments"
	"flexio/internal/trace"
)

func main() {
	fig := flag.String("fig", "all", "which figure to regenerate: 4, 5, 7, A1, A2, A3, A4, A5, or all")
	small := flag.Bool("small", false, "run at reduced scale (fast, shapes preserved)")
	verify := flag.Bool("verify", false, "verify file contents against references at every point")
	fig5file := flag.Int64("fig5file", 1<<30, "figure 5 file size in bytes")
	fig5every := flag.Int("fig5every", 1, "keep every k-th figure 5 fraction point")
	fig4aggs := flag.Int("fig4aggs", 0, "restrict figure 4 to one aggregator count (0 = all panels)")
	tracePath := flag.String("trace", "", "write the last experiment's Chrome trace JSON (Perfetto-loadable) to this file")
	breakdown := flag.Bool("breakdown", false, "print the last experiment's per-phase/per-round trace breakdown")
	critRun := flag.Bool("critpath", false, "print the last experiment's critical-path profile (virtual-time causal DAG)")
	chaosRun := flag.String("chaos", "", "run fault-injection cells instead of the figures: all, a family (storage, rank, corrupt), a regexp over cell names, or a scenario spec such as core-nb,crash-mid-rounds:3,cb=2 (grammar: README, Robustness)")
	integrityJSON := flag.String("integrityjson", "", "run the tracked benchmark matrix with the checksummed datapath enabled and record the rows under 'after' in this JSON trajectory file")
	integrityCheck := flag.String("integritycheck", "", "run the tracked benchmark matrix with the checksummed datapath enabled and fail if allocs/op exceed the clean 'after' entries of this JSON file (BENCH_PR3.json) or virtual time regresses >5%")
	chaosTraces := flag.String("chaostraces", "", "directory (created if missing) for the cells' artifacts: reports, flight dumps, comm matrices, traces, critical paths")
	benchJSON := flag.String("benchjson", "", "run the tracked benchmark matrix and merge results into this JSON trajectory file")
	benchLabel := flag.String("benchlabel", "after", "label to store -benchjson results under (e.g. before, after, ci)")
	benchCheck := flag.String("benchcheck", "", "run the tracked benchmark matrix and fail if allocs/op regress >20% against the 'after' entries of this JSON file")
	preaggJSON := flag.String("preaggjson", "", "run the two-level-exchange matrix with pre-aggregation off and on and record the 'before'/'after' labels in this JSON trajectory file")
	preaggCheck := flag.String("preaggcheck", "", "run the pre-aggregated two-level-exchange matrix and fail if internode bytes/op regress >10% against the 'after' entries of this JSON file")
	telemetryJSON := flag.String("telemetryjson", "", "run the scale-ready-telemetry matrix (sampled tracing + per-node rollups) and record the 'after' label in this JSON trajectory file")
	telemetryCheck := flag.String("telemetrycheck", "", "run the scale-ready-telemetry matrix and fail if sampled-rank counts drift or rollup exposition bytes regress >10% against the 'after' entries of this JSON file")
	reportRun := flag.Bool("report", false, "diff two run artifacts (positional args: old new; trajectories take a #label suffix, flight dumps and Prometheus expositions are sniffed) and print the ranked differential report")
	nodes := flag.Int("nodes", 0, "ranks per simulated node for the figure harness runs (0 = one rank per node)")
	analyzeRun := flag.Bool("analyze", false, "run the diagnostic demo workload and print the collective-I/O health analyzer report")
	metricsOut := flag.String("metrics-out", "", "run the diagnostic demo workload and write its Prometheus text exposition to this file")
	serveAddr := flag.String("serve", "", "run the diagnostic demo workload and serve /metrics and /healthz on this address (e.g. :9090)")
	flag.Parse()

	experiments.NodeRanks = *nodes

	if *analyzeRun || *metricsOut != "" || *serveAddr != "" {
		if err := runObservability(*analyzeRun, *metricsOut, *serveAddr); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	if *benchJSON != "" || *benchCheck != "" {
		if err := runBenchSuite(*benchJSON, *benchLabel, *benchCheck); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	if *preaggJSON != "" || *preaggCheck != "" {
		if err := runPreaggSuite(*preaggJSON, *preaggCheck); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	if *integrityJSON != "" || *integrityCheck != "" {
		if err := runIntegritySuite(*integrityJSON, *integrityCheck); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	if *telemetryJSON != "" || *telemetryCheck != "" {
		if err := runTelemetrySuite(*telemetryJSON, *telemetryCheck); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	if *reportRun {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "report: need exactly two artifacts: flexio-bench -report old.json new.json")
			os.Exit(2)
		}
		if err := runReport(flag.Arg(0), flag.Arg(1)); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	if *chaosRun != "" {
		if strings.HasPrefix(*chaosRun, "-") {
			// -chaos takes a value, so "-chaos -chaostraces d" reads the next
			// flag as the selection. No cell, family or spec begins with a dash.
			fmt.Fprintf(os.Stderr, "chaos: %q looks like a flag, not a selection: -chaos wants all, a family, a regexp or a spec\n", *chaosRun)
			os.Exit(2)
		}
		cells, err := chaos.Select(*chaosRun)
		if err != nil {
			fmt.Fprintf(os.Stderr, "chaos: %v\n", err)
			os.Exit(2)
		}
		logf := func(format string, args ...any) { fmt.Printf(format+"\n", args...) }
		if failures := chaos.Soak(cells, *chaosTraces, logf); failures > 0 {
			fmt.Fprintf(os.Stderr, "chaos: %d failure(s) across %d cell(s): invariant violations, cells that could not run, artifacts that could not be written\n", failures, len(cells))
			os.Exit(1)
		}
		fmt.Printf("chaos: all %d cell(s) held their invariants\n", len(cells))
		return
	}

	if *tracePath != "" || *breakdown || *critRun {
		experiments.TraceCapacity = trace.DefaultCapacity
	}

	want := strings.ToLower(*fig)
	run := func(name string) bool { return want == "all" || want == strings.ToLower(name) }
	failed := false

	emit := func(name string, tables []experiments.Table, err error) {
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			failed = true
			return
		}
		for _, t := range tables {
			fmt.Println(t.Format())
		}
	}

	if run("4") {
		p := experiments.DefaultFig4()
		if *small {
			p = p.Scale(16, 256)
		}
		if *fig4aggs > 0 {
			p.AggCounts = []int{*fig4aggs}
		}
		p.Verify = *verify
		tables, err := experiments.Fig4(p)
		emit("fig4", tables, err)
	}
	if run("5") {
		p := experiments.DefaultFig5()
		p = p.Scale(*fig5file, *fig5every)
		if *small {
			p = p.Scale(64<<20, 4)
			p.Ranks = 8
		}
		p.Verify = *verify
		tables, err := experiments.Fig5(p)
		emit("fig5", tables, err)
	}
	if run("7") {
		p := experiments.DefaultFig7()
		if *small {
			p = p.Scale(512, 8, []int{16, 32})
		}
		p.Verify = *verify
		tables, err := experiments.Fig7(p)
		emit("fig7", tables, err)
	}

	ab := experiments.DefaultAblation()
	if *small {
		ab.Ranks = 8
		ab.RegionCount = 512
	}
	if run("A1") {
		tables, err := experiments.AblationExchange(ab)
		emit("A1", tables, err)
	}
	if run("A2") {
		tables, err := experiments.AblationRepresentation(ab)
		emit("A2", tables, err)
	}
	if run("A3") {
		tables, err := experiments.AblationRealms(ab)
		emit("A3", tables, err)
	}
	if run("A4") {
		tables, err := experiments.AblationComm(ab)
		emit("A4", tables, err)
	}
	if run("A5") {
		tables, err := experiments.AblationHeap(ab)
		emit("A5", tables, err)
	}

	if *tracePath != "" {
		if experiments.LastTrace == nil {
			fmt.Fprintln(os.Stderr, "trace: no experiment ran, nothing to export")
			failed = true
		} else if err := experiments.LastTrace.WriteChromeTraceFile(*tracePath); err != nil {
			fmt.Fprintf(os.Stderr, "trace: %v\n", err)
			failed = true
		} else {
			fmt.Printf("wrote Chrome trace (%d events, %d ranks) to %s\n",
				experiments.LastTrace.Events(), experiments.LastTrace.Ranks(), *tracePath)
		}
	}
	if *breakdown && experiments.LastTrace != nil {
		fmt.Println(experiments.LastTrace.Breakdown().Format(experiments.LastStats))
		fmt.Println()
		fmt.Println(experiments.LastStats.Table())
	}
	if *critRun {
		if experiments.LastTrace == nil {
			fmt.Fprintln(os.Stderr, "critpath: no experiment ran, nothing to profile")
			failed = true
		} else {
			rep := critpath.Analyze(experiments.LastTrace)
			fmt.Println(rep.Format())
			if fs := analyze.TraceFindings(experiments.LastTrace, rep); len(fs) > 0 {
				fmt.Print(analyze.FormatReport(fs))
			}
		}
	}

	if failed {
		os.Exit(1)
	}
}
