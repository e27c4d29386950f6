package chaos

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"flexio/internal/critpath"
	"flexio/internal/integrity"
	"flexio/internal/metrics"
	"flexio/internal/mpi"
	"flexio/internal/mpiio"
	"flexio/internal/report"
	"flexio/internal/sim"
	"flexio/internal/trace"
)

// Families lists the tables in Matrix order.
var Families = []string{"storage", "rank", "corrupt"}

// Recording is the recorded world a scenario leaves artifacts for.
type Recording struct {
	// Trace is the virtual-time event record, exportable as a Chrome trace.
	Trace *trace.Sink
	// Metrics is the live registry set; its flight recorder holds the
	// rounds leading up to an abort.
	Metrics *metrics.Set
	// Comm is the rank×rank communication matrix, accumulated across the
	// faulted attempt and any recovery.
	Comm *mpi.CommMatrix
}

// WriteFlight writes the canonical flight-recorder dump: byte-identical
// across runs of the same scenario, so a CI artifact diffs against a local
// reproduction.
func (r Recording) WriteFlight(w io.Writer) error { return r.Metrics.Dump(false).WriteJSON(w) }

// WriteComm writes the comm matrix JSON under the chaos node map.
func (r Recording) WriteComm(w io.Writer) error {
	return r.Comm.WriteJSON(w, mpi.BlockNodeMap(nodeRanks))
}

// Outcome reports what one scenario run observed. Counters a scenario's
// planes have no use for stay zero.
type Outcome struct {
	// Name and Seed identify the scenario.
	Name string
	Seed int64
	// Class is the class the faulted attempt agreed on (ClassOK when it
	// completed on every rank).
	Class int64
	// Dead is the failed-rank set detection produced.
	Dead []int
	// Injected counts faults the schedules fired, all planes together.
	Injected int64
	// PreRounds is the journal's committed (agg, round) count at abort
	// time — the work recovery gets to keep when the epoch survives.
	PreRounds int64
	// AtRest is the file system's at-rest integrity snapshot.
	AtRest integrity.Stats
	// Healed reports that the clean rewrite after an integrity abort
	// restored the file to the byte-identical reference.
	Healed bool
	// Elapsed is the total virtual time across all attempts.
	Elapsed sim.Time
	// Totals is every rank's registry merged: the storage recovery,
	// failover (after the resume when one happened) and wire-checksum
	// counters among them.
	Totals *metrics.Registry

	// Recording is the faulted world, for artifact export.
	Recording Recording
}

// Line is the scenario's golden line: everything deterministic a soak
// prints — name, seed, agreed class, dead set and every non-zero counter —
// and no virtual time.
func (o *Outcome) Line() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-48s seed=%d class=%s", o.Name, o.Seed, mpiio.ClassName(o.Class))
	if len(o.Dead) > 0 {
		fmt.Fprintf(&b, " dead=%v", o.Dead)
	}
	count := func(label string, v int64) {
		if v != 0 {
			fmt.Fprintf(&b, " %s=%d", label, v)
		}
	}
	n := o.Totals.Counter
	count("inj", o.Injected)
	count("retry", n(metrics.CRetries))
	count("resume", n(metrics.CResumes))
	count("trips", n(metrics.CDeadlineTrips))
	count("replay", n(metrics.CRoundsReplayed))
	count("skip", n(metrics.CRoundsSkipped))
	count("redeliver", n(metrics.CRedelivered))
	if n(metrics.CIntegWireMismatch) != 0 {
		fmt.Fprintf(&b, " wire=%d/%d", n(metrics.CIntegWireRepaired), n(metrics.CIntegWireMismatch))
	}
	if o.AtRest.Mismatches != 0 {
		fmt.Fprintf(&b, " rest=%d/%d", o.AtRest.Repairs, o.AtRest.Mismatches)
	}
	count("backlog", int64(o.AtRest.Backlog))
	if o.Healed {
		b.WriteString(" healed")
	}
	return b.String()
}

// Soak runs the scenarios, logging each one's golden line, virtual time
// and verdict via logf, and exports artifacts into dir (when non-empty,
// created if missing) under the policy artifacts.export states. It returns
// the number of failures: scenarios that could not run or violated an
// invariant, and artifacts that could not be written — the CI upload steps
// consume them, so a soak that silently left none is a failed soak.
func Soak(cells []Scenario, dir string, logf func(format string, args ...any)) int {
	a, err := newArtifacts(dir, logf)
	if err != nil {
		logf("FAIL: artifact directory: %v", err)
		return 1
	}
	failures := 0
	for _, s := range cells {
		out, err := s.Run()
		status := "ok"
		if err != nil {
			failures++
			status = "FAIL: " + err.Error()
		}
		if out == nil {
			logf("%-48s %s", s.Name(), status)
			continue
		}
		logf("%s t=%.3fms  %s", out.Line(), float64(out.Elapsed)*1e3, status)
		a.export(s, out, err != nil)
	}
	return failures + a.failed
}

// artifacts is the one artifact writer; with an empty dir it writes
// nothing.
type artifacts struct {
	dir    string
	logf   func(format string, args ...any)
	failed int
	// baselines caches fault-free report sources by scenario name, so a
	// soak over a full matrix runs each clean configuration once. A failed
	// baseline caches nil and is not retried.
	baselines map[string]*report.Source
}

func newArtifacts(dir string, logf func(format string, args ...any)) (*artifacts, error) {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	}
	return &artifacts{dir: dir, logf: logf, baselines: map[string]*report.Source{}}, nil
}

// export writes what a scenario leaves behind. The policy, in one place:
//
//   - <cell>.report.txt, every scenario: the ranked differential report
//     of the run against its fault-free baseline.
//   - the recording, for every scenario that did more than ride its fault
//     out — it violated an invariant, aborted, or is a rank cell, where the
//     recovered run is the interesting one: <cell>.flight.json (canonical
//     flight dump), .comm.json (comm matrix), .trace.json (Chrome trace)
//     and .critpath.txt (critical-path report).
func (a *artifacts) export(s Scenario, out *Outcome, violated bool) {
	if a.dir == "" {
		return
	}
	name, r := s.Name(), out.Recording
	if violated || out.Class != mpiio.ClassOK || s.Family() == "rank" {
		a.write(name+".flight.json", r.WriteFlight)
		a.write(name+".comm.json", r.WriteComm)
		a.write(name+".trace.json", r.Trace.WriteChromeTrace)
		a.write(name+".critpath.txt", func(w io.Writer) error {
			_, err := io.WriteString(w, critpath.Analyze(r.Trace).Format())
			return err
		})
	}

	before := a.baseline(s.Baseline())
	after, err := report.FromSet(name, r.Metrics)
	if before == nil || err != nil {
		a.fail(name+".report.txt", fmt.Errorf("no pair of recordings to diff"))
		return
	}
	a.write(name+".report.txt", func(w io.Writer) error {
		_, err := fmt.Fprintln(w, report.Diff(before, after).Format())
		return err
	})
}

// baseline returns the report source of a fault-free scenario, running it
// on first use.
func (a *artifacts) baseline(b Scenario) *report.Source {
	src, ok := a.baselines[b.Name()]
	if !ok {
		if out, err := b.Run(); err == nil {
			src, _ = report.FromSet(b.Name(), out.Recording.Metrics)
		}
		a.baselines[b.Name()] = src
	}
	return src
}

func (a *artifacts) write(name string, write func(io.Writer) error) {
	f, err := os.Create(filepath.Join(a.dir, name))
	if err == nil {
		err = write(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		a.fail(name, err)
	}
}

func (a *artifacts) fail(name string, err error) {
	a.failed++
	a.logf("  FAIL: artifact %s: %v", name, err)
}
