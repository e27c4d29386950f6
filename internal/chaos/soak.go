package chaos

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"flexio/internal/analyze"
	"flexio/internal/critpath"
	"flexio/internal/integrity"
	"flexio/internal/metrics"
	"flexio/internal/mpi"
	"flexio/internal/mpiio"
	"flexio/internal/report"
	"flexio/internal/sim"
	"flexio/internal/stats"
	"flexio/internal/tenant"
	"flexio/internal/trace"
)

// Cell is one row of the chaos table, as much as the drivers (Soak, Quick,
// the matrix tests) need to know of it. Scenario and TenantScenario
// implement it.
type Cell interface {
	// Name is unique in the table and names the cell's artifacts.
	Name() string
	// Family is the table the cell belongs to: storage, rank, corrupt or
	// tenant.
	Family() string
	// Fault names what the cell injects; Quick keeps the first cell per
	// family and fault.
	Fault() string
	// Baseline is the fault-free cell the differential report diffs
	// against, or nil when the cell brings its own pair (a tenant script
	// diffs its first two tenants).
	Baseline() Cell
	// Run executes the cell and checks its invariants: (nil, err) when it
	// could not run at all, otherwise the outcome and the violation, if any.
	Run() (*Outcome, error)
}

// Families lists the tables in Matrix order.
var Families = []string{"storage", "rank", "corrupt", "tenant"}

// Recording is one recorded world a cell leaves artifacts for.
type Recording struct {
	// Label tells a cell's recordings apart in artifact names: empty for a
	// scenario's one world, the tenant's name for a tenant's last job.
	Label string
	// Trace is the virtual-time event record, exportable as a Chrome trace.
	Trace *trace.Sink
	// Metrics is the live registry set; its flight recorder holds the
	// rounds leading up to an abort.
	Metrics *metrics.Set
	// Comm is the rank×rank communication matrix (nil when not recorded),
	// accumulated across the faulted attempt and any recovery.
	Comm *mpi.CommMatrix
}

// WriteFlight writes the canonical flight-recorder dump: byte-identical
// across runs of the same cell, so a CI artifact diffs against a local
// reproduction.
func (r Recording) WriteFlight(w io.Writer) error { return r.Metrics.Dump(false).WriteJSON(w) }

// WriteComm writes the comm matrix JSON under the chaos node map.
func (r Recording) WriteComm(w io.Writer) error {
	return r.Comm.WriteJSON(w, mpi.BlockNodeMap(nodeRanks))
}

// Outcome reports what one cell run observed. Counters a cell's family has
// no use for stay zero.
type Outcome struct {
	// Name and Seed identify the cell.
	Name string
	Seed int64
	// Class is the class the faulted attempt agreed on (ClassOK when it
	// completed on every rank; a tenant script has no single collective and
	// leaves it ClassOK).
	Class int64
	// Dead is the failed-rank set detection produced.
	Dead []int
	// Injected counts faults the schedules fired, all planes together.
	Injected int64
	// Retries and Resumes are the storage recovery counters.
	Retries, Resumes int64
	// PreRounds is the journal's committed (agg, round) count at abort
	// time — the work recovery gets to keep when the epoch survives.
	PreRounds int64
	// The failover counters, after the resume when one happened.
	DeadlineTrips, Failovers, Replayed, Skipped, Redelivered int64
	// WireMismatch / WireRepaired are the merged wire-checksum counters.
	WireMismatch, WireRepaired int64
	// AtRest is the file system's at-rest integrity snapshot.
	AtRest integrity.Stats
	// Healed reports that the clean rewrite after an integrity abort
	// restored the file to the byte-identical reference.
	Healed bool
	// Elapsed is the total virtual time across all attempts.
	Elapsed sim.Time
	// Stats is the merged per-rank recorder.
	Stats *stats.Recorder

	// Tenants is a tenant script's final per-tenant accounting in
	// registration order, Breakers its per-OST breaker status, Findings the
	// tenant analyzer's verdict and Prom the parsed final exposition.
	Tenants  []tenant.Stats
	Breakers []tenant.BreakerStatus
	Findings []analyze.Finding
	Prom     map[string]float64

	// Recordings are the worlds the cell recorded, for artifact export.
	Recordings []Recording
}

// trips sums per-OST breaker trips.
func trips(breakers []tenant.BreakerStatus) int64 {
	var n int64
	for _, b := range breakers {
		n += b.Trips
	}
	return n
}

// Line is the cell's golden line: everything deterministic a soak prints —
// name, seed, agreed class, dead set and every non-zero counter — and no
// virtual time.
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
	count("inj", o.Injected)
	count("retry", o.Retries)
	count("resume", o.Resumes)
	count("trips", o.DeadlineTrips)
	count("replay", o.Replayed)
	count("skip", o.Skipped)
	count("redeliver", o.Redelivered)
	if o.WireMismatch != 0 {
		fmt.Fprintf(&b, " wire=%d/%d", o.WireRepaired, o.WireMismatch)
	}
	if o.AtRest.Mismatches != 0 {
		fmt.Fprintf(&b, " rest=%d/%d", o.AtRest.Repairs, o.AtRest.Mismatches)
	}
	count("backlog", int64(o.AtRest.Backlog))
	if o.Healed {
		b.WriteString(" healed")
	}
	var rejected, degraded int64
	for _, st := range o.Tenants {
		rejected += st.Rejected
		degraded += st.Degraded
	}
	count("breaker", trips(o.Breakers))
	count("rejected", rejected)
	count("degraded", degraded)
	count("findings", int64(len(o.Findings)))
	return b.String()
}

// Soak runs the cells, logging each one's golden line, virtual time and
// verdict via logf, and exports artifacts into dir (when non-empty, created
// if missing) under the policy artifacts.export states. It returns the
// number of failures: cells that could not run or violated an invariant,
// and artifacts that could not be written — the CI upload steps consume
// them, so a soak that silently left none is a failed soak.
func Soak(cells []Cell, dir string, logf func(format string, args ...any)) int {
	a, err := newArtifacts(dir, logf)
	if err != nil {
		logf("FAIL: artifact directory: %v", err)
		return 1
	}
	failures := 0
	for _, c := range cells {
		out, err := c.Run()
		status := "ok"
		if err != nil {
			failures++
			status = "FAIL: " + err.Error()
		}
		if out == nil {
			logf("%-48s %s", c.Name(), status)
			continue
		}
		logf("%s t=%.3fms  %s", out.Line(), float64(out.Elapsed)*1e3, status)
		a.export(c, out, err != nil)
	}
	return failures + a.failed
}

// artifacts is the one artifact writer; with an empty dir it writes
// nothing.
type artifacts struct {
	dir    string
	logf   func(format string, args ...any)
	failed int
	// baselines caches fault-free report sources by cell name, so a soak
	// over a full matrix runs each clean configuration once. A failed
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

// export writes what a cell leaves behind. The policy, in one place:
//
//   - <cell>.report.txt, every cell: the ranked differential report (and
//     the analyzer's findings on it) of the run against its fault-free
//     baseline — for a tenant script, of its second tenant against its
//     first.
//   - the recordings, for every cell that did more than ride its fault out
//     — it violated an invariant, aborted, or is a rank or tenant cell,
//     where the recovered and the neighbouring runs are the interesting
//     ones: per recorded world <cell>[.<tenant>].flight.json (canonical
//     flight dump), .comm.json (comm matrix, where one was recorded),
//     .trace.json (Chrome trace) and .critpath.txt (critical-path report).
func (a *artifacts) export(c Cell, out *Outcome, violated bool) {
	if a.dir == "" {
		return
	}
	if violated || out.Class != mpiio.ClassOK || c.Family() == "rank" || c.Family() == "tenant" {
		for _, r := range out.Recordings {
			base := c.Name()
			if r.Label != "" {
				base += "." + r.Label
			}
			if r.Metrics != nil {
				a.write(base+".flight.json", r.WriteFlight)
			}
			if r.Comm != nil {
				a.write(base+".comm.json", r.WriteComm)
			}
			if r.Trace != nil {
				a.write(base+".trace.json", r.Trace.WriteChromeTrace)
				a.write(base+".critpath.txt", func(w io.Writer) error {
					_, err := io.WriteString(w, critpath.Analyze(r.Trace).Format())
					return err
				})
			}
		}
	}

	var pair []*report.Source
	if b := c.Baseline(); b != nil {
		pair = append(pair, a.baseline(b))
	}
	for _, r := range out.Recordings {
		if len(pair) == 2 {
			break
		}
		if src, err := source(r, c.Name()); err == nil {
			pair = append(pair, src)
		}
	}
	if len(pair) < 2 || pair[0] == nil {
		a.fail(c.Name()+".report.txt", fmt.Errorf("no pair of recordings to diff"))
		return
	}
	a.write(c.Name()+".report.txt", func(w io.Writer) error {
		rep := report.Diff(pair[0], pair[1])
		if _, err := fmt.Fprintln(w, rep.Format()); err != nil {
			return err
		}
		if fs := analyze.ReportFindings(rep); len(fs) > 0 {
			_, err := io.WriteString(w, analyze.FormatReport(fs))
			return err
		}
		return nil
	})
}

// source captures a recording for the differential report, labelled by its
// tenant or, for a scenario's one world, by the cell.
func source(r Recording, cell string) (*report.Source, error) {
	if r.Metrics == nil {
		return nil, fmt.Errorf("no metrics recorded")
	}
	label := r.Label
	if label == "" {
		label = cell
	}
	return report.FromSet(label, r.Metrics)
}

// baseline returns the report source of a fault-free cell, running it on
// first use.
func (a *artifacts) baseline(b Cell) *report.Source {
	src, ok := a.baselines[b.Name()]
	if !ok {
		if out, err := b.Run(); err == nil {
			src, _ = source(out.Recordings[0], b.Name())
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
