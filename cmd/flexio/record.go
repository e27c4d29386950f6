package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"flexio/internal/critpath"
	"flexio/internal/mpi"
	"flexio/internal/mpiio"
	"flexio/internal/trace"
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

// check refuses a flag that shapes a recording nobody asked for.
func (r *recording) check(fs *flag.FlagSet) error {
	if r.traced() {
		return nil
	}
	return refuse(fs, []string{"sample"}, "needs -trace or -critpath")
}

// arm builds on w, before it runs, what the flags ask to record: the node
// map; the trace, of every rank or, under -sample, of the first
// info.CbNodes ranks (the aggregators), the node leaders and K sampled
// members; the metrics.
func (r *recording) arm(w *mpi.World, info mpiio.Info) {
	if r.nodes > 0 {
		w.SetNodeMap(mpi.BlockNodeMap(r.nodes))
	}
	switch {
	case r.traced() && r.sample > 0:
		always := make([]int, 0, info.CbNodes)
		for a := 0; a < info.CbNodes && a < w.Size(); a++ {
			always = append(always, a)
		}
		w.EnableSampledTracing(trace.DefaultCapacity, trace.SamplePolicy{Always: always, K: r.sample, Seed: 1})
	case r.traced():
		w.EnableTracing(trace.DefaultCapacity)
	}
	if r.metricsOut != "" || r.critpath {
		w.EnableMetrics()
	}
}

// render writes what the recordings ask of world w's finished run, armed by
// arm, in one order for every command: the Chrome trace, the critical path
// noted into the metrics, the Prometheus exposition.
func (r *recording) render(out *output, w *mpi.World) error {
	if w == nil {
		if r.traced() || r.metricsOut != "" {
			return errors.New("no run to record: nothing ran")
		}
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
