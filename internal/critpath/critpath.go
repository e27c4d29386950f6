// Package critpath rebuilds the causal DAG of a traced run and extracts its
// virtual-time critical path: the single backward chain of work, message
// transfers, and rendezvous waits that determined when the last rank
// finished. The paper's timelines show *where* time went per rank; the
// critical path says *why the run was that long* — which rank, phase, and
// round actually pinned the finish time, and how much slack every other
// rank had.
//
// The DAG comes entirely from a trace.Sink recorded by the mpi layer:
//
//   - span nesting (Begin/End) gives each rank's local phase timeline;
//   - msg_send/msg_recv instant pairs (shared edge id) give message edges,
//     with the receiver's "blocked" tag marking edges where the sender, not
//     the receiver, gated delivery;
//   - coll_enter/coll_exit instant pairs (shared rendezvous seq) give
//     barrier edges, with the exit's "by" tag naming the rank whose late
//     arrival released everyone.
//
// The walk starts at the globally latest event and runs backward: local
// intervals are attributed to the innermost span (phase/round) covering
// them, a blocked receive jumps to the matching send (the gap is
// "transfer" time, attributed to the sending rank), and a collective exit
// jumps to the releasing rank's entry (the gap is "rendezvous" time,
// attributed to that rank). Each step attributes exactly the interval it
// consumes, so the attribution partitions the window — coverage is 100% by
// construction on a complete trace, and degrades only when ring-buffer
// overflow dropped the events the walk needed.
package critpath

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"flexio/internal/metrics"
	"flexio/internal/sim"
	"flexio/internal/trace"
)

// Synthetic phases the walk introduces for the connecting edges; local
// intervals keep the span names the engines recorded (metrics.Phase names).
const (
	// PhaseTransfer is time a message spent between its send stamp and its
	// delivery — wire latency, NIC serialization, and the payload transfer.
	PhaseTransfer = "transfer"
	// PhaseRendezvous is time between the releasing rank's arrival at a
	// collective and the walked rank's release from it — the tree latency
	// and snapshot synchronization of the rendezvous.
	PhaseRendezvous = "rendezvous"
	// PhaseIdle is on-path time not covered by any span (before a rank's
	// first span, between spans, or after its last).
	PhaseIdle = "idle"
)

// Entry is one attribution bucket: virtual seconds the critical path spent
// on one rank in one phase (and round; -1 when the time is outside any
// round, as all transfer/rendezvous/idle time is).
type Entry struct {
	Rank  int
	Phase string
	Round int
	Sec   float64
}

// RankShare is one rank's view of the path: how much of it ran on (or was
// attributed to) this rank, and how long the rank sat finished while the
// path still ran elsewhere (finish slack — how much later this rank could
// have finished without moving the end of the run).
type RankShare struct {
	Rank      int
	OnPathSec float64
	SlackSec  float64
	// Traced reports whether the rank carried a tracer (always true on a
	// fully traced sink); untraced ranks' shares are vacuous — their slack
	// spans the whole window because they recorded nothing.
	Traced bool
}

// Report is the extracted critical path.
type Report struct {
	Ranks       int
	Collectives int // distinct rendezvous generations seen in the trace
	// WindowSec is the profiled window: first event to last event, virtual
	// seconds. CoveredSec of it was attributed to path buckets; the two
	// are equal on a complete trace.
	WindowSec  float64
	CoveredSec float64
	// TransferSec/RendezvousSec are the connecting-edge totals (the time
	// the path was blocked on communication); IdleSec is unspanned local
	// time on the path.
	TransferSec   float64
	RendezvousSec float64
	IdleSec       float64
	Steps         int  // causal jumps the walk took
	Truncated     bool // ring overflow dropped events; attribution unreliable
	DroppedEvents int64
	// SampledRanks is how many ranks carried tracers (== Ranks for a fully
	// traced sink); under an adaptive sampling policy the window, coverage,
	// and per-rank shares describe the sampled ranks only.
	SampledRanks int
	// BlindSteps counts causal jumps whose counterpart event lives on an
	// unsampled rank: the walk had to stay local, so the time it attributed
	// there may really belong to an invisible sender or releaser. This is
	// the honesty knob of sampled profiling — the fraction is reported, not
	// hidden (see BlindSpotFrac and the sampling line in Format).
	BlindSteps int
	ByRank     []RankShare // indexed by rank
	Entries    []Entry     // sorted by Sec descending (ties: rank, phase, round)
}

type jumpKind uint8

const (
	jMsg jumpKind = iota
	jColl
)

// jump is one causal back-edge candidate on a rank's track.
type jump struct {
	ts   sim.Time
	kind jumpKind
	edge int64 // jMsg: edge id
	seq  int64 // jColl: rendezvous generation
	by   int   // jColl: releasing rank
}

// seg is one innermost-span interval of a rank's timeline; segments are
// contiguous from the rank's first event to its last.
type seg struct {
	start, end sim.Time
	phase      string
	round      int
}

type rankData struct {
	segs  []seg
	jumps []jump
	first sim.Time
	last  sim.Time
	has   bool
}

// sendSite locates one msg_send instant.
type sendSite struct {
	rank int
	ts   sim.Time
}

// collKey identifies one rank's entry into one rendezvous generation.
type collKey struct {
	seq  int64
	rank int
}

// Analyze extracts the critical path from a recorded sink. A nil or empty
// sink yields an empty report with full (vacuous) coverage.
func Analyze(s *trace.Sink) *Report {
	rep := &Report{}
	if s == nil {
		return rep
	}
	rep.Ranks = s.Ranks()
	rep.SampledRanks = s.SampledCount()
	rep.DroppedEvents = s.Dropped()
	rep.Truncated = rep.DroppedEvents > 0
	rep.ByRank = make([]RankShare, rep.Ranks)
	for r := range rep.ByRank {
		rep.ByRank[r].Rank = r
		rep.ByRank[r].Traced = s.Sampled(r)
	}

	ranks := make([]rankData, rep.Ranks)
	sends := map[int64]sendSite{}
	enters := map[collKey]sim.Time{}
	seqs := map[int64]bool{}
	for rank := 0; rank < rep.Ranks; rank++ {
		buildRank(s.Tracer(rank), rank, &ranks[rank], sends, enters, seqs)
	}
	rep.Collectives = len(seqs)

	// The window spans the earliest first event to the latest last event.
	start, end := sim.Time(0), sim.Time(0)
	cur, seen := -1, false
	for r := range ranks {
		if !ranks[r].has {
			continue
		}
		if !seen || ranks[r].first < start {
			start = ranks[r].first
		}
		if !seen || ranks[r].last > end {
			end = ranks[r].last
			cur = r
		}
		seen = true
	}
	if !seen {
		return rep
	}
	rep.WindowSec = (end - start).Seconds()
	for r := range rep.ByRank {
		last := start
		if ranks[r].has {
			last = ranks[r].last
		}
		rep.ByRank[r].SlackSec = (end - last).Seconds()
	}

	type bucket struct {
		rank  int
		phase string
		round int
	}
	acc := map[bucket]sim.Time{}
	add := func(rank int, phase string, round int, d sim.Time) {
		if d <= 0 {
			return
		}
		acc[bucket{rank, phase, round}] += d
	}

	// Backward walk. Per-rank jump cursors only ever move backward in time
	// (the walk's clock is non-increasing), so every jump is consumed at
	// most once and the loop terminates.
	cursor := make([]int, rep.Ranks)
	for r := range cursor {
		cursor[r] = len(ranks[r].jumps) - 1
	}
	t := end
	maxSteps := 0
	for r := range ranks {
		maxSteps += len(ranks[r].jumps)
	}
	for steps := 0; steps <= maxSteps; steps++ {
		ji := cursor[cur]
		for ji >= 0 && ranks[cur].jumps[ji].ts > t {
			ji--
		}
		if ji < 0 {
			// No causal predecessor: the rest of this rank's timeline
			// back to the window start is local.
			ranks[cur].attr(start, t, cur, add)
			t = start
			break
		}
		j := ranks[cur].jumps[ji]
		cursor[cur] = ji - 1
		ranks[cur].attr(j.ts, t, cur, add)
		t = j.ts
		rep.Steps++
		switch j.kind {
		case jMsg:
			src, ok := sends[j.edge]
			if !ok {
				// The edge id encodes its endpoints, so a missing send
				// splits into two causes: the sender was never sampled (a
				// policy blind spot, counted) or its ring overflowed
				// (covered by Truncated). Either way the walk stays local.
				if sender := int(j.edge/int64(rep.Ranks)) % rep.Ranks; !s.Sampled(sender) {
					rep.BlindSteps++
				}
				continue
			}
			add(src.rank, PhaseTransfer, -1, j.ts-src.ts)
			cur = src.rank
			if src.ts < t {
				t = src.ts
			}
		case jColl:
			if j.by < 0 {
				continue
			}
			enter, ok := enters[collKey{j.seq, j.by}]
			if !ok {
				if !s.Sampled(j.by) {
					rep.BlindSteps++ // releasing rank unsampled: policy blind spot
				}
				continue // otherwise: entry lost to ring overflow, stay local
			}
			add(j.by, PhaseRendezvous, -1, j.ts-enter)
			cur = j.by
			// A deadline-capped straggler can enter later than the
			// snapshot it released; never walk forward in time.
			if enter < t {
				t = enter
			}
		}
		if t <= start {
			break
		}
	}

	for b, d := range acc {
		rep.Entries = append(rep.Entries, Entry{Rank: b.rank, Phase: b.phase, Round: b.round, Sec: d.Seconds()})
	}
	sort.Slice(rep.Entries, func(i, k int) bool {
		a, b := rep.Entries[i], rep.Entries[k]
		if a.Sec != b.Sec {
			return a.Sec > b.Sec
		}
		if a.Rank != b.Rank {
			return a.Rank < b.Rank
		}
		if a.Phase != b.Phase {
			return a.Phase < b.Phase
		}
		return a.Round < b.Round
	})
	// Totals are summed in the sorted order, never in the map's: float
	// addition is not associative, and two analyses of one trace must agree
	// to the last bit (the differential report compares them with ==).
	for _, e := range rep.Entries {
		rep.CoveredSec += e.Sec
		rep.ByRank[e.Rank].OnPathSec += e.Sec
		switch e.Phase {
		case PhaseTransfer:
			rep.TransferSec += e.Sec
		case PhaseRendezvous:
			rep.RendezvousSec += e.Sec
		case PhaseIdle:
			rep.IdleSec += e.Sec
		}
	}
	return rep
}

// buildRank scans one tracer into the walk's per-rank structures, using the
// same orphan-end and dangling-span sanitization as the exporters.
func buildRank(tr *trace.Tracer, rank int, rd *rankData, sends map[int64]sendSite, enters map[collKey]sim.Time, seqs map[int64]bool) {
	events := tr.Events()
	if len(events) == 0 {
		return
	}
	rd.has = true
	rd.first = events[0].TS
	rd.last = events[len(events)-1].TS

	type open struct {
		phase string
		round int
	}
	var stack []open
	prev := rd.first
	cut := func(ts sim.Time) {
		if ts > prev {
			phase, round := PhaseIdle, -1
			if len(stack) > 0 {
				phase, round = stack[len(stack)-1].phase, stack[len(stack)-1].round
			}
			rd.segs = append(rd.segs, seg{start: prev, end: ts, phase: phase, round: round})
		}
		prev = ts
	}
	for _, e := range events {
		switch e.Kind {
		case trace.KindBegin:
			cut(e.TS)
			round := -1
			if len(stack) > 0 {
				round = stack[len(stack)-1].round
			}
			if r, ok := tagInt(e.Tags, trace.RoundTag); ok {
				round = int(r)
			}
			stack = append(stack, open{phase: e.Name, round: round})
		case trace.KindEnd:
			if len(stack) == 0 {
				continue // orphan end after ring overflow
			}
			cut(e.TS)
			stack = stack[:len(stack)-1]
		case trace.KindInstant:
			switch e.Name {
			case trace.MsgSendName:
				if edge, ok := tagInt(e.Tags, trace.EdgeTag); ok {
					sends[edge] = sendSite{rank: rank, ts: e.TS}
				}
			case trace.MsgRecvName:
				edge, okE := tagInt(e.Tags, trace.EdgeTag)
				blocked, _ := tagInt(e.Tags, trace.BlockedTag)
				if okE && blocked != 0 {
					rd.jumps = append(rd.jumps, jump{ts: e.TS, kind: jMsg, edge: edge})
				}
			case trace.CollEnterName:
				if seq, ok := tagInt(e.Tags, trace.SeqTag); ok {
					enters[collKey{seq, rank}] = e.TS
					seqs[seq] = true
				}
			case trace.CollExitName:
				seq, okS := tagInt(e.Tags, trace.SeqTag)
				by, okB := tagInt(e.Tags, trace.ByTag)
				if okS && okB {
					seqs[seq] = true
					rd.jumps = append(rd.jumps, jump{ts: e.TS, kind: jColl, seq: seq, by: int(by)})
				}
			}
		}
	}
	cut(rd.last) // close dangling spans at the final timestamp
}

// attr attributes the local interval [a, b] on this rank to its innermost
// spans; time outside the rank's event window counts as idle.
func (rd *rankData) attr(a, b sim.Time, rank int, add func(rank int, phase string, round int, d sim.Time)) {
	if b <= a {
		return
	}
	if !rd.has || len(rd.segs) == 0 {
		add(rank, PhaseIdle, -1, b-a)
		return
	}
	s0, sN := rd.segs[0].start, rd.segs[len(rd.segs)-1].end
	if a < s0 {
		top := b
		if s0 < top {
			top = s0
		}
		add(rank, PhaseIdle, -1, top-a)
	}
	if b > sN {
		bot := a
		if sN > bot {
			bot = sN
		}
		add(rank, PhaseIdle, -1, b-bot)
	}
	lo, hi := a, b
	if s0 > lo {
		lo = s0
	}
	if sN < hi {
		hi = sN
	}
	if hi <= lo {
		return
	}
	i := sort.Search(len(rd.segs), func(i int) bool { return rd.segs[i].end > lo })
	for ; i < len(rd.segs) && rd.segs[i].start < hi; i++ {
		st, en := rd.segs[i].start, rd.segs[i].end
		if st < lo {
			st = lo
		}
		if en > hi {
			en = hi
		}
		add(rank, rd.segs[i].phase, rd.segs[i].round, en-st)
	}
}

func tagInt(tags []trace.Tag, key string) (int64, bool) {
	for _, tg := range tags {
		if tg.Key == key && !tg.IsStr {
			return tg.Int, true
		}
	}
	return 0, false
}

// Coverage returns CoveredSec/WindowSec (1 for an empty window), rounded
// to ppm precision: the two sums accumulate the same intervals in
// different orders, so the raw ratio carries ULP noise around 1.0 that
// would leak schedule sensitivity into otherwise-deterministic columns.
func (r *Report) Coverage() float64 {
	if r.WindowSec <= 0 {
		return 1
	}
	return math.Round(1e6*r.CoveredSec/r.WindowSec) / 1e6
}

// BlockedSec is the communication-blocked share of the path (transfer plus
// rendezvous time).
func (r *Report) BlockedSec() float64 { return r.TransferSec + r.RendezvousSec }

// BlindSpotFrac is the fraction of causal steps that hit a sampling blind
// spot (0 with no steps, and always 0 on a fully traced sink). A ratio of
// two event counts, so it is deterministic wherever the trace is.
func (r *Report) BlindSpotFrac() float64 {
	if r.Steps == 0 {
		return 0
	}
	return float64(r.BlindSteps) / float64(r.Steps)
}

// Top returns the largest attribution bucket (zero Entry when empty).
func (r *Report) Top() Entry {
	if len(r.Entries) == 0 {
		return Entry{Rank: -1}
	}
	return r.Entries[0]
}

// Note publishes the report into a metrics set: the condensed summary goes
// to the flight recorder (full dumps) and each rank's on-path seconds to
// its critpath_seconds gauge for Prometheus exposition.
func (r *Report) Note(met *metrics.Set) {
	if met == nil {
		return
	}
	per := make([]float64, len(r.ByRank))
	for i, rs := range r.ByRank {
		per[i] = rs.OnPathSec
	}
	top := r.Top()
	met.NoteCritPath(metrics.CritPathSummary{
		Collectives: r.Collectives,
		TotalSec:    r.WindowSec,
		CoveredSec:  r.CoveredSec,
		TopRank:     top.Rank,
		TopPhase:    top.Phase,
		TopSec:      top.Sec,
		BlockedSec:  r.BlockedSec(),
	}, per)
}

// Format renders the report as deterministic text (for a deterministic
// trace): fixed formatting, entries in sorted order, top 12 buckets.
func (r *Report) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== critical path: %d rank(s), %d collective(s), window %.6fs, covered %.1f%% ==\n",
		r.Ranks, r.Collectives, r.WindowSec, 100*r.Coverage())
	if r.Truncated {
		fmt.Fprintf(&sb, "WARNING: trace truncated (%d event(s) dropped); attribution unreliable\n", r.DroppedEvents)
	}
	fmt.Fprintf(&sb, "path: %d causal step(s); blocked %.6fs (transfer %.6fs, rendezvous %.6fs), idle %.6fs\n",
		r.Steps, r.BlockedSec(), r.TransferSec, r.RendezvousSec, r.IdleSec)
	sampledOnly := r.SampledRanks > 0 && r.SampledRanks < r.Ranks
	if sampledOnly {
		fmt.Fprintf(&sb, "sampling: %d of %d rank(s) traced; blind spots: %d of %d step(s) (%.2f%%)\n",
			r.SampledRanks, r.Ranks, r.BlindSteps, r.Steps, 100*r.BlindSpotFrac())
	}
	sb.WriteString("per-rank on-path time and finish slack (virtual seconds):\n")
	for _, rs := range r.ByRank {
		// Under partial sampling only traced ranks print, so the table
		// stays O(sampled), not O(ranks).
		if sampledOnly && !rs.Traced {
			continue
		}
		fmt.Fprintf(&sb, "  r%-4d %12.6f %12.6f\n", rs.Rank, rs.OnPathSec, rs.SlackSec)
	}
	if len(r.Entries) > 0 {
		sb.WriteString("top attributions (rank, phase, round, seconds, share of path):\n")
		n := len(r.Entries)
		if n > 12 {
			n = 12
		}
		for _, e := range r.Entries[:n] {
			share := 0.0
			if r.CoveredSec > 0 {
				share = 100 * e.Sec / r.CoveredSec
			}
			round := "-"
			if e.Round >= 0 {
				round = fmt.Sprintf("%d", e.Round)
			}
			fmt.Fprintf(&sb, "  r%-4d %-12s %5s %12.6f %6.1f%%\n", e.Rank, e.Phase, round, e.Sec, share)
		}
	}
	return strings.TrimRight(sb.String(), "\n")
}
