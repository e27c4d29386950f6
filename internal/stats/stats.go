// Package stats is the MPE-style table view of a rank's metrics registry:
// phase times and event counters under their table names. The paper used
// MPE logging to attribute the new implementation's overheads to datatype
// processing and double buffering; the same breakdown is printed here. The
// counts live in the registry alone (metrics.Registry: one schema, one
// store); a Recorder reads them by name and holds nothing of its own.
//
// A nil *Recorder is valid and reads zeros.
package stats

import (
	"fmt"
	"sort"
	"strings"

	"flexio/internal/metrics"
	"flexio/internal/sim"
)

// Phase names (metrics.Phase's names, as plain strings for name-keyed
// readers) and the two table counters the benchmark reads by name.
const (
	PFlatten  = "flatten"     // datatype flattening / request generation
	PPreagg   = "preagg"      // node-local request/payload pre-aggregation
	PExchange = "exchange"    // access-description exchange
	PComm     = "comm"        // data shuffle between clients and aggregators
	PIO       = "io"          // file system access (client-observed, incl. queueing)
	PServe    = "ost_service" // raw OST service time consumed by this client's requests
	PCopy     = "copy"        // pack/unpack and buffer copies
	PBackoff  = "backoff"     // virtual time spent backing off between retries

	CPairsProcessed = "pairs_processed" // offset/length pairs evaluated
	CReqBytes       = "req_bytes"       // bytes of access-description metadata exchanged
)

// Recorder is a read-only, name-keyed view of one registry.
type Recorder struct{ reg *metrics.Registry }

// Of returns the view of reg.
func Of(reg *metrics.Registry) *Recorder { return &Recorder{reg: reg} }

// Merge sums per-rank views, in order, into one aggregate view.
func Merge(rs ...*Recorder) *Recorder {
	regs := make([]*metrics.Registry, 0, len(rs))
	for _, r := range rs {
		if r != nil {
			regs = append(regs, r.reg)
		}
	}
	return Of(metrics.Merge(regs...))
}

// Time returns the accumulated time of the named phase (zero if unknown).
func (r *Recorder) Time(phase string) sim.Time {
	if ph, ok := metrics.PhaseNamed(phase); ok && r != nil {
		return r.reg.Phase(ph)
	}
	return 0
}

// Counter returns the count under a table name (zero if unknown).
func (r *Recorder) Counter(name string) int64 {
	for _, c := range tableOrder {
		if metrics.TableName(c) == name && r != nil {
			return r.reg.Counter(c)
		}
	}
	return 0
}

// tableOrder and phaseOrder list the table counters and the phases sorted
// by name, the order every rendering prints them in.
var tableOrder, phaseOrder = func() ([]metrics.Counter, []metrics.Phase) {
	var cs []metrics.Counter
	for c := metrics.Counter(0); int(c) < metrics.CounterCount(); c++ {
		if metrics.TableName(c) != "" {
			cs = append(cs, c)
		}
	}
	sort.Slice(cs, func(i, j int) bool { return metrics.TableName(cs[i]) < metrics.TableName(cs[j]) })
	ps := make([]metrics.Phase, metrics.PhaseCount())
	for i := range ps {
		ps[i] = metrics.Phase(i)
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].String() < ps[j].String() })
	return cs, ps
}()

// Phases returns the names of the phases ever charged, sorted.
func (r *Recorder) Phases() []string {
	var out []string
	for _, ph := range phaseOrder {
		if r != nil && r.reg.PhaseSeen(ph) {
			out = append(out, ph.String())
		}
	}
	return out
}

// Counters returns the table names of the counters ever added to, sorted.
func (r *Recorder) Counters() []string {
	var out []string
	for _, c := range tableOrder {
		if r != nil && r.reg.Seen(c) {
			out = append(out, metrics.TableName(c))
		}
	}
	return out
}

// String renders the recorder on one line, sorted by name.
func (r *Recorder) String() string {
	if r == nil {
		return "stats(nil)"
	}
	var b strings.Builder
	for _, k := range r.Phases() {
		fmt.Fprintf(&b, "time[%s]=%v ", k, r.Time(k))
	}
	for _, k := range r.Counters() {
		fmt.Fprintf(&b, "n[%s]=%d ", k, r.Counter(k))
	}
	return strings.TrimSpace(b.String())
}

// Table renders the recorder as an aligned, sorted, column-formatted
// table: one row per phase time (virtual seconds) and per counter. Unlike
// the String() one-liner it stays readable past a handful of buckets.
func (r *Recorder) Table() string {
	if r == nil {
		return "stats(nil)"
	}
	phases, counters := r.Phases(), r.Counters()
	width := 0
	for _, k := range append(phases, counters...) {
		width = max(width, len(k))
	}
	var b strings.Builder
	if len(phases) > 0 {
		b.WriteString("phase times (virtual seconds):\n")
		for _, k := range phases {
			fmt.Fprintf(&b, "  %-*s  %12.6f\n", width, k, r.Time(k).Seconds())
		}
	}
	if len(counters) > 0 {
		b.WriteString("counters:\n")
		for _, k := range counters {
			fmt.Fprintf(&b, "  %-*s  %12d\n", width, k, r.Counter(k))
		}
	}
	if b.Len() == 0 {
		return "stats(empty)"
	}
	return strings.TrimRight(b.String(), "\n")
}
