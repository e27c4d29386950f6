package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"flexio/internal/critpath"
	"flexio/internal/mpi"
)

// recording holds the flags that ask for a run's recordings; every command
// that takes one of them takes it from here.
type recording struct {
	trace, metricsOut string
	sample, nodes     int
	critpath          bool
}

// flags defines the recording flags of a command that runs the cluster.
func (r *recording) flags(fs *flag.FlagSet) {
	fs.StringVar(&r.trace, "trace", "", "write the run's Chrome trace JSON (Perfetto-loadable) to this file")
	fs.IntVar(&r.sample, "sample", 0, "trace only the aggregators, node leaders, and this many reservoir-sampled member ranks (0 = trace every rank)")
	fs.IntVar(&r.nodes, "nodes", 0, "ranks per simulated node (0 = one rank per node)")
	fs.BoolVar(&r.critpath, "critpath", false, "print the run's critical-path profile (virtual-time causal DAG)")
	fs.StringVar(&r.metricsOut, "metrics-out", "", "write the run's Prometheus text exposition to this file")
}

// traced reports whether a recording needs the run's trace.
func (r *recording) traced() bool { return r.trace != "" || r.critpath }

// render writes what the recordings ask of world w's finished run, in one
// order for every command: the Chrome trace, the critical path noted into
// the metrics, the Prometheus exposition.
func (r *recording) render(out *output, w *mpi.World) error {
	if w == nil && (r.traced() || r.metricsOut != "") {
		return errors.New("no run to record: nothing ran")
	}
	if r.traced() && w.TraceSink() == nil {
		return errors.New("-trace and -critpath need a traced run")
	}
	if w == nil {
		return nil
	}
	sink, met := w.TraceSink(), w.MetricsSet()
	if r.trace != "" {
		if err := sink.WriteChromeTraceFile(r.trace); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		out.section()
		fmt.Fprintf(out, "wrote Chrome trace (%d events, %d ranks) to %s\n", sink.Events(), sink.Ranks(), r.trace)
	}
	if r.critpath {
		rep := critpath.Analyze(sink)
		rep.Note(met)
		out.section()
		fmt.Fprintln(out, rep.Format())
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
	return nil
}
