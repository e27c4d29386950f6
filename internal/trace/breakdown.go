package trace

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"flexio/internal/metrics"
	"flexio/internal/sim"
	"flexio/internal/stats"
)

// PhaseStat summarizes all spans of one name across ranks. P50/P95 are
// histogram-backed quantiles of the per-rank totals (zeros included, so a
// phase that only runs on aggregators honestly reports a low median).
type PhaseStat struct {
	Name  string
	Total sim.Time // sum of span durations across all ranks
	Spans int64
	P50   sim.Time
	P95   sim.Time
	Max   sim.Time // largest per-rank total
}

// RoundStat summarizes one two-phase round across ranks. A span is
// attributed to the round of its innermost enclosing span carrying a
// "round" tag, so phase spans inside a round wrapper need no tags of their
// own. Bytes sums the "bytes" tags of round-attributed instants.
type RoundStat struct {
	Round  int
	Bytes  int64
	Wall   sim.Time // sum of outermost round-wrapper span durations across ranks
	Phases map[string]sim.Time
}

// Breakdown is the MPE-style overhead attribution derived from a sink:
// per-phase totals and percentiles, and per-round phase splits.
type Breakdown struct {
	Ranks   int
	Dropped int64
	Phases  []PhaseStat
	Rounds  []RoundStat
}

// Breakdown computes the attribution tables from the recorded spans.
func (s *Sink) Breakdown() *Breakdown {
	b := &Breakdown{}
	if s == nil {
		return b
	}
	b.Ranks = len(s.tracers)
	b.Dropped = s.Dropped()

	type open struct {
		name  string
		ts    sim.Time
		round int
	}
	phaseTotal := map[string]sim.Time{}
	spanCount := map[string]int64{}
	perRank := make([]map[string]sim.Time, len(s.tracers))
	roundWall := map[int]sim.Time{}
	roundBytes := map[int]int64{}
	roundPhase := map[int]map[string]sim.Time{}

	tagRound := func(tags []Tag, inherit int) int {
		for _, tg := range tags {
			if tg.Key == RoundTag && !tg.IsStr {
				return int(tg.Int)
			}
		}
		return inherit
	}

	for rank, tr := range s.tracers {
		rankPhase := map[string]sim.Time{}
		var stack []open
		curRound := -1
		for _, e := range tr.Events() {
			switch e.Kind {
			case KindBegin:
				r := tagRound(e.Tags, curRound)
				stack = append(stack, open{name: e.Name, ts: e.TS, round: r})
				curRound = r
			case KindEnd:
				if len(stack) == 0 {
					continue // orphan end after ring overflow
				}
				o := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				curRound = -1
				if len(stack) > 0 {
					curRound = stack[len(stack)-1].round
				}
				dur := e.TS - o.ts
				rankPhase[o.name] += dur
				phaseTotal[o.name] += dur
				spanCount[o.name]++
				if o.name == RoundSpan {
					// A wrapper inside a round (a read-ahead of the next
					// round's data) books its phases to its own round, but
					// the rank spent the time in the round around it.
					nested := slices.ContainsFunc(stack, func(up open) bool { return up.name == RoundSpan })
					if o.round >= 0 && !nested {
						roundWall[o.round] += dur
					}
				} else if o.round >= 0 {
					rp := roundPhase[o.round]
					if rp == nil {
						rp = map[string]sim.Time{}
						roundPhase[o.round] = rp
					}
					rp[o.name] += dur
				}
			case KindInstant, KindCounter:
				if r := tagRound(e.Tags, curRound); r >= 0 {
					for _, tg := range e.Tags {
						if tg.Key == BytesTag && !tg.IsStr {
							roundBytes[r] += tg.Int
						}
					}
				}
			}
		}
		perRank[rank] = rankPhase
	}

	names := make([]string, 0, len(phaseTotal))
	for name := range phaseTotal {
		if name == RoundSpan {
			continue // the wrapper is reported as per-round wall, not a phase
		}
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		h := metrics.NewHistogram()
		var max sim.Time
		for _, rp := range perRank {
			v := rp[name]
			h.Observe(v.Seconds())
			if v > max {
				max = v
			}
		}
		b.Phases = append(b.Phases, PhaseStat{
			Name:  name,
			Total: phaseTotal[name],
			Spans: spanCount[name],
			P50:   sim.Time(h.Quantile(0.50)),
			P95:   sim.Time(h.Quantile(0.95)),
			Max:   max,
		})
	}

	rounds := make([]int, 0, len(roundPhase))
	seen := map[int]bool{}
	for r := range roundPhase {
		seen[r] = true
	}
	for r := range roundWall {
		seen[r] = true
	}
	for r := range roundBytes {
		seen[r] = true
	}
	for r := range seen {
		rounds = append(rounds, r)
	}
	sort.Ints(rounds)
	for _, r := range rounds {
		b.Rounds = append(b.Rounds, RoundStat{
			Round:  r,
			Bytes:  roundBytes[r],
			Wall:   roundWall[r],
			Phases: roundPhase[r],
		})
	}
	return b
}

// PhaseTotal returns the summed span duration for a phase name (zero when
// absent), for tests and consistency checks against stats buckets.
func (b *Breakdown) PhaseTotal(name string) sim.Time {
	for _, p := range b.Phases {
		if p.Name == name {
			return p.Total
		}
	}
	return 0
}

// preferredPhases orders the classic two-phase columns first in the
// per-round table; anything else follows alphabetically.
var preferredPhases = []string{stats.PFlatten, stats.PPreagg, stats.PExchange, stats.PComm, stats.PIO, stats.PCopy}

// Format renders the breakdown as deterministic text. When flat is the
// merged stats.Recorder of the same run, each span-backed phase row also
// shows the flat time bucket of the same name and the relative drift
// between the two accountings — the consistency the acceptance tests
// assert — and stats-only buckets (e.g. ost_service, which has no client
// span) are listed with zero spans rather than silently omitted.
func (b *Breakdown) Format(flat *stats.Recorder) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== trace breakdown: %d rank(s), %d dropped event(s) ==\n", b.Ranks, b.Dropped)
	sb.WriteString("per-phase span totals (virtual seconds):\n")
	fmt.Fprintf(&sb, "  %-12s %12s %12s %12s %12s %8s", "phase", "total", "p50/rank", "p95/rank", "max/rank", "spans")
	if flat != nil {
		fmt.Fprintf(&sb, " %12s %8s", "stats", "drift")
	}
	sb.WriteByte('\n')
	listed := map[string]bool{}
	for _, p := range b.Phases {
		listed[p.Name] = true
		fmt.Fprintf(&sb, "  %-12s %12.6f %12.6f %12.6f %12.6f %8d",
			p.Name, p.Total.Seconds(), p.P50.Seconds(), p.P95.Seconds(), p.Max.Seconds(), p.Spans)
		if flat != nil {
			ref := flat.Time(p.Name)
			fmt.Fprintf(&sb, " %12.6f %8s", ref.Seconds(), driftPercent(p.Total, ref))
		}
		sb.WriteByte('\n')
	}
	if flat != nil {
		for _, name := range flat.Phases() {
			if listed[name] {
				continue
			}
			fmt.Fprintf(&sb, "  %-12s %12.6f %12s %12s %12s %8d %12.6f %8s\n",
				name, 0.0, "-", "-", "-", 0, flat.Time(name).Seconds(), "-")
		}
	}

	if len(b.Rounds) > 0 {
		cols := roundColumns(b.Rounds)
		sb.WriteString("per-round phase split (sums across ranks, virtual seconds):\n")
		fmt.Fprintf(&sb, "  %5s %12s %12s", "round", "bytes", "wall")
		for _, c := range cols {
			fmt.Fprintf(&sb, " %12s", c)
		}
		sb.WriteByte('\n')
		for _, r := range b.Rounds {
			fmt.Fprintf(&sb, "  %5d %12d %12.6f", r.Round, r.Bytes, r.Wall.Seconds())
			for _, c := range cols {
				fmt.Fprintf(&sb, " %12.6f", r.Phases[c].Seconds())
			}
			sb.WriteByte('\n')
		}
	}
	return strings.TrimRight(sb.String(), "\n")
}

// roundColumns is the union of phase names appearing in any round, in
// preferred order then alphabetical.
func roundColumns(rounds []RoundStat) []string {
	present := map[string]bool{}
	for _, r := range rounds {
		for name := range r.Phases {
			present[name] = true
		}
	}
	var cols []string
	for _, name := range preferredPhases {
		if present[name] {
			cols = append(cols, name)
			delete(present, name)
		}
	}
	rest := make([]string, 0, len(present))
	for name := range present {
		rest = append(rest, name)
	}
	sort.Strings(rest)
	return append(cols, rest...)
}

// driftPercent formats the relative difference between the span sum and
// the flat bucket ("-" when the bucket is zero and so is the sum).
func driftPercent(spans, ref sim.Time) string {
	if ref == 0 {
		if spans == 0 {
			return "-"
		}
		return "inf"
	}
	d := (spans - ref).Seconds() / ref.Seconds() * 100
	if d < 0 {
		d = -d
	}
	return fmt.Sprintf("%.2f%%", d)
}
