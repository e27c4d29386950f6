package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"flexio/internal/analyze"
	"flexio/internal/critpath"
	"flexio/internal/mpi"
	"flexio/internal/stats"
)

// recording holds the flags that ask for a run's recordings; every command
// that takes one of them takes it from here.
type recording struct {
	trace, metricsOut            string
	sample, nodes                int
	breakdown, critpath, analyze bool
}

// flags defines the recording flags of a command that runs the cluster.
func (r *recording) flags(fs *flag.FlagSet) {
	fs.StringVar(&r.trace, "trace", "", "write the run's Chrome trace JSON (Perfetto-loadable) to this file")
	fs.IntVar(&r.sample, "sample", 0, "trace only the aggregators, node leaders, and this many reservoir-sampled member ranks (0 = trace every rank)")
	fs.IntVar(&r.nodes, "nodes", 0, "ranks per simulated node (0 = one rank per node)")
	fs.BoolVar(&r.breakdown, "breakdown", false, "print the per-phase/per-round trace breakdown")
	fs.BoolVar(&r.critpath, "critpath", false, "print the run's critical-path profile (virtual-time causal DAG)")
	r.metricFlags(fs)
}

// metricFlags defines the two recording flags that need no trace.
func (r *recording) metricFlags(fs *flag.FlagSet) {
	fs.StringVar(&r.metricsOut, "metrics-out", "", "write the run's Prometheus text exposition to this file")
	fs.BoolVar(&r.analyze, "analyze", false, "print the collective-I/O health analyzer report for the run")
}

// traced reports whether a recording needs the run's trace.
func (r *recording) traced() bool { return r.trace != "" || r.breakdown || r.critpath }

// render writes what the recordings ask of world w's finished run, in one
// order for every command: the Chrome trace, the breakdown (then the stats
// table, unless the report printed it: tabled), the critical path noted into
// the metrics with the trace findings, the Prometheus exposition, the
// analyzer report.
func (r *recording) render(out *output, w *mpi.World, tabled bool) error {
	if w == nil && (r.traced() || r.metricsOut != "" || r.analyze) {
		return errors.New("no run to record: nothing ran")
	}
	if r.traced() && w.TraceSink() == nil {
		return errors.New("-trace, -breakdown and -critpath need a traced run")
	}
	if w == nil {
		return nil
	}
	sink, met, agg := w.TraceSink(), w.MetricsSet(), stats.Merge(w.Recorders()...)
	if r.trace != "" {
		if err := sink.WriteChromeTraceFile(r.trace); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		out.section()
		fmt.Fprintf(out, "wrote Chrome trace (%d events, %d ranks) to %s\n", sink.Events(), sink.Ranks(), r.trace)
	}
	if r.breakdown {
		out.section()
		fmt.Fprintln(out, sink.Breakdown().Format(agg))
		if !tabled {
			fmt.Fprintf(out, "\n%s\n", agg.Table())
		}
	}
	if r.critpath {
		rep := critpath.Analyze(sink)
		rep.Note(met)
		out.section()
		fmt.Fprintln(out, rep.Format())
		if fs := analyze.TraceFindings(sink, rep); len(fs) > 0 {
			fmt.Fprint(out, analyze.FormatReport(fs))
		}
	}
	if r.metricsOut != "" {
		f, err := os.Create(r.metricsOut)
		if err == nil {
			err = met.WriteProm(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			return fmt.Errorf("metrics: %w", err)
		}
		out.section()
		fmt.Fprintf(out, "wrote Prometheus exposition to %s\n", r.metricsOut)
	}
	if r.analyze {
		out.section()
		fmt.Fprint(out, analyze.FormatReport(analyze.Analyze(met.Dump(true))))
	}
	return nil
}
