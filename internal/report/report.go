// Package report is the differential run-report engine: it ingests two
// runs' artifacts — flight-recorder dumps and Prometheus expositions — and
// emits a ranked, byte-deterministic
// regression-attribution report. The repo's telemetry says where one run
// spent its time; this package answers the question operators actually
// ask: "this run got slower than the committed baseline — which phase,
// which ranks, why". The ranked attribution (per-phase histogram deltas,
// internode-byte deltas, critical-path hotspot shifts, straggler and
// imbalance changes) is the decision input the paper's flexible design
// needs for choosing collective parameters from observed behavior (DESIGN
// §12, differential reports).
package report

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"flexio/internal/metrics"
)

// Source is one run's ingested artifacts. Either may be present; Diff
// compares whatever both sides carry and skips the rest, so a chaos
// scenario's recording diffs against its fault-free baseline's.
type Source struct {
	// Label names the run in the report ("before", "after", a scenario).
	Label string
	// Dump is a flight-recorder dump (canonical or full).
	Dump *metrics.Dump
	// Prom is a parsed Prometheus exposition: series -> value.
	Prom map[string]float64
}

// Delta is one compared quantity.
type Delta struct {
	Name string  `json:"name"`
	Old  float64 `json:"old"`
	New  float64 `json:"new"`
}

// Abs is the absolute change, new - old.
func (d Delta) Abs() float64 { return d.New - d.Old }

// Rel is the relative change (0 when both sides are zero; a fresh
// appearance over a zero baseline reports +Inf and ranks first).
func (d Delta) Rel() float64 {
	if d.Old == 0 {
		if d.New == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return (d.New - d.Old) / math.Abs(d.Old)
}

// score orders deltas for the ranked sections: biggest relative movement
// first, absolute movement breaking ties, name as the final deterministic
// tiebreak.
func deltaLess(a, b Delta) bool {
	ra, rb := math.Abs(a.Rel()), math.Abs(b.Rel())
	if ra != rb {
		return ra > rb
	}
	if aa, ab := math.Abs(a.Abs()), math.Abs(b.Abs()); aa != ab {
		return aa > ab
	}
	return a.Name < b.Name
}

// CritPathDelta compares the critical-path summaries of two full dumps.
type CritPathDelta struct {
	Window  Delta `json:"window_sec"`
	Blocked Delta `json:"blocked_sec"`
	// Hotspot shift: the rank/phase holding the largest attribution moved.
	OldTopRank  int     `json:"old_top_rank"`
	OldTopPhase string  `json:"old_top_phase"`
	OldTopSec   float64 `json:"old_top_sec"`
	NewTopRank  int     `json:"new_top_rank"`
	NewTopPhase string  `json:"new_top_phase"`
	NewTopSec   float64 `json:"new_top_sec"`
}

// Shifted reports whether the hotspot moved to a different rank or phase.
func (c *CritPathDelta) Shifted() bool {
	return c != nil && (c.OldTopRank != c.NewTopRank || c.OldTopPhase != c.NewTopPhase)
}

// ReportSchema identifies the JSON layout for downstream consumers.
const ReportSchema = "flexio-report-v1"

// Report is the ranked differential: every section is sorted by deltaLess,
// so identical inputs yield identical bytes from Format and WriteJSON.
type Report struct {
	Schema   string `json:"schema"`
	OldLabel string `json:"old_label"`
	NewLabel string `json:"new_label"`
	// Phases are per-phase virtual-second totals (from the phase_seconds
	// histogram sums of an exposition), ranked.
	Phases []Delta `json:"phases,omitempty"`
	// Counters are merged counter deltas (full dumps or expositions),
	// ranked.
	Counters []Delta `json:"counters,omitempty"`
	// RankCritSec are per-rank critpath_seconds shifts from expositions
	// (entries named "rN" or "nodeN"), ranked — where the hotspot moved.
	RankCritSec []Delta `json:"rank_critpath_sec,omitempty"`
	// InterNodeBytes is the headline shuffle_internode_bytes movement.
	InterNodeBytes *Delta `json:"internode_bytes,omitempty"`
	// Imbalance is the mean per-round aggregator imbalance change; Rounds
	// the recorded round-count change.
	Imbalance *Delta         `json:"imbalance,omitempty"`
	Rounds    *Delta         `json:"rounds,omitempty"`
	CritPath  *CritPathDelta `json:"critpath,omitempty"`
}

// Diff compares two sources section by section. Sections both sides lack
// are omitted; the result is deterministic in the inputs.
func Diff(old, new *Source) *Report {
	r := &Report{Schema: ReportSchema, OldLabel: label(old), NewLabel: label(new)}
	if old == nil || new == nil {
		return r
	}
	diffPhases(r, old, new)
	diffCounters(r, old, new)
	diffRankCrit(r, old.Prom, new.Prom)
	diffDumps(r, old.Dump, new.Dump)
	return r
}

func label(s *Source) string {
	if s == nil || s.Label == "" {
		return "?"
	}
	return s.Label
}

// phaseTotals extracts per-phase virtual-second totals from the
// phase_seconds histogram sums of the source's exposition (a dump carries
// none).
func phaseTotals(s *Source) map[string]float64 {
	out := map[string]float64{}
	for series, v := range s.Prom {
		var phase string
		if n, err := fmt.Sscanf(series, "flexio_phase_seconds_sum{phase=%q}", &phase); n == 1 && err == nil {
			out[phase] = v
		}
	}
	return out
}

func diffPhases(r *Report, old, new *Source) {
	po, pn := phaseTotals(old), phaseTotals(new)
	if len(po) == 0 && len(pn) == 0 {
		return
	}
	for _, name := range unionKeys(po, pn) {
		r.Phases = append(r.Phases, Delta{Name: name, Old: po[name], New: pn[name]})
	}
	sort.Slice(r.Phases, func(i, j int) bool { return deltaLess(r.Phases[i], r.Phases[j]) })
}

// counterTotals extracts merged counters: the Counters map of a full dump,
// else exposition *_total series summed across their rank/node labels.
// The exposition's bufpool_* series are excluded: they are process-lifetime
// pool totals, not per-run telemetry, so diffing them misattributes whenever
// both artifacts were captured inside one process (the soaks) and their
// monotone growth would break run-to-run determinism.
func counterTotals(s *Source) map[string]float64 {
	out := map[string]float64{}
	if s.Dump != nil && len(s.Dump.Counters) > 0 {
		for name, v := range s.Dump.Counters {
			out[name] = float64(v)
		}
		return out
	}
	for series, v := range s.Prom {
		name := series
		if i := strings.IndexByte(series, '{'); i >= 0 {
			name = series[:i]
		}
		const pre, suf = "flexio_", "_total"
		if len(name) > len(pre)+len(suf) && strings.HasPrefix(name, pre) && strings.HasSuffix(name, suf) {
			if strings.HasPrefix(name[len(pre):], "bufpool_") {
				continue
			}
			out[name[len(pre):len(name)-len(suf)]] += v
		}
	}
	return out
}

func diffCounters(r *Report, old, new *Source) {
	co, cn := counterTotals(old), counterTotals(new)
	if len(co) == 0 && len(cn) == 0 {
		return
	}
	for _, name := range unionKeys(co, cn) {
		d := Delta{Name: name, Old: co[name], New: cn[name]}
		if name == "shuffle_internode_bytes" {
			dd := d
			r.InterNodeBytes = &dd
		}
		if d.Old == d.New {
			continue // unchanged counters are noise in a ranked report
		}
		r.Counters = append(r.Counters, d)
	}
	sort.Slice(r.Counters, func(i, j int) bool { return deltaLess(r.Counters[i], r.Counters[j]) })
}

// diffRankCrit compares per-rank (or per-node, under a rollup exposition)
// critpath_seconds gauges — the hotspot shift at rank granularity.
func diffRankCrit(r *Report, old, new map[string]float64) {
	extract := func(m map[string]float64) map[string]float64 {
		out := map[string]float64{}
		for series, v := range m {
			var rank, node int
			if n, err := fmt.Sscanf(series, `flexio_critpath_seconds{rank="%d"}`, &rank); n == 1 && err == nil {
				out[fmt.Sprintf("r%d", rank)] = v
			} else if n, err := fmt.Sscanf(series, `flexio_critpath_seconds{node="%d"}`, &node); n == 1 && err == nil {
				out[fmt.Sprintf("node%d", node)] = v
			}
		}
		return out
	}
	co, cn := extract(old), extract(new)
	if len(co) == 0 && len(cn) == 0 {
		return
	}
	for _, name := range unionKeys(co, cn) {
		if co[name] == cn[name] {
			continue
		}
		r.RankCritSec = append(r.RankCritSec, Delta{Name: name, Old: co[name], New: cn[name]})
	}
	sort.Slice(r.RankCritSec, func(i, j int) bool { return deltaLess(r.RankCritSec[i], r.RankCritSec[j]) })
}

func diffDumps(r *Report, old, new *metrics.Dump) {
	if old == nil || new == nil {
		return
	}
	ri := Delta{Name: "rounds", Old: float64(len(old.Rounds)), New: float64(len(new.Rounds))}
	r.Rounds = &ri
	imb := Delta{Name: "imbalance", Old: meanImbalance(old), New: meanImbalance(new)}
	r.Imbalance = &imb
	if old.CritPath != nil && new.CritPath != nil {
		r.CritPath = &CritPathDelta{
			Window:      Delta{Name: "window_sec", Old: old.CritPath.TotalSec, New: new.CritPath.TotalSec},
			Blocked:     Delta{Name: "blocked_sec", Old: old.CritPath.BlockedSec, New: new.CritPath.BlockedSec},
			OldTopRank:  old.CritPath.TopRank,
			OldTopPhase: old.CritPath.TopPhase,
			OldTopSec:   old.CritPath.TopSec,
			NewTopRank:  new.CritPath.TopRank,
			NewTopPhase: new.CritPath.TopPhase,
			NewTopSec:   new.CritPath.TopSec,
		}
	}
}

// meanImbalance averages the per-round aggregator imbalance over the
// recorded rounds (0 when no round had one).
func meanImbalance(d *metrics.Dump) float64 {
	var sum float64
	n := 0
	for _, rs := range d.Rounds {
		if rs.Imbalance > 0 {
			sum += rs.Imbalance
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func unionKeys(a, b map[string]float64) []string {
	seen := map[string]bool{}
	var out []string
	for k := range a {
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	for k := range b {
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}
