package main

import (
	"flag"
	"fmt"

	"flexio/internal/analyze"
	"flexio/internal/chaos"
	"flexio/internal/report"
)

// runChaos runs the selected cells of the fault-injection table and checks
// every cell's invariants; -traces keeps the cells' artifacts.
func runChaos(fs *flag.FlagSet, args []string, out *output) error {
	traces := fs.String("traces", "", "directory (created if missing) for the cells' artifacts: reports, flight dumps, comm matrices, traces, critical paths")
	pos, err := parse(fs, args, 1, 1, "one selection: all, a family (storage, rank, corrupt), a regexp over cell names, or a scenario spec such as core-nb,crash-mid-rounds:3,cb=2 (grammar: README, Robustness)")
	if err != nil {
		return err
	}
	cells, err := chaos.Select(pos[0])
	if err != nil {
		return usagef("%v", err)
	}
	logf := func(format string, args ...any) { fmt.Fprintf(out, format+"\n", args...) }
	if failures := chaos.Soak(cells, *traces, logf); failures > 0 {
		return fmt.Errorf("chaos: %d failure(s) across %d cell(s): invariant violations, cells that could not run, artifacts that could not be written", failures, len(cells))
	}
	fmt.Fprintf(out, "chaos: all %d cell(s) held their invariants\n", len(cells))
	return nil
}

// runReport diffs two run artifacts (benchsuite trajectories with an
// optional #label suffix, flight-recorder dumps, or Prometheus expositions)
// and prints the ranked differential report plus the analyzer's findings
// over it.
func runReport(fs *flag.FlagSet, args []string, out *output) error {
	pos, err := parse(fs, args, 2, 2, "two artifacts: OLD NEW")
	if err != nil {
		return err
	}
	old, err := report.LoadFile(pos[0])
	if err != nil {
		return err
	}
	fresh, err := report.LoadFile(pos[1])
	if err != nil {
		return err
	}
	rep := report.Diff(old, fresh)
	fmt.Fprintln(out, rep.Format())
	if found := analyze.ReportFindings(rep); len(found) > 0 {
		fmt.Fprintln(out)
		fmt.Fprint(out, analyze.FormatReport(found))
	}
	return nil
}

// runObserve runs the analyzer's diagnostic demo (misaligned realms,
// sieve-hostile sparse accesses, one overloaded aggregator, a rank crash and
// its failover) and prints the analyzer report, or writes the demo's
// exposition with -metrics-out.
func runObserve(fs *flag.FlagSet, args []string, out *output) error {
	var rec recording
	rec.metricFlags(fs)
	if _, err := parse(fs, args, 0, 0, "no arguments"); err != nil {
		return err
	}
	w, err := analyze.Demo()
	if err != nil {
		return fmt.Errorf("analyze demo workload: %w", err)
	}
	rec.analyze = rec.analyze || rec.metricsOut == ""
	return rec.render(out, w, false)
}
