// Package metrics is the always-on signal layer of the I/O stack: a
// fixed-schema registry of counters, gauges, and log-bucketed histograms
// that is allocation-free on the hot path when enabled and a no-op when
// disabled (every method on a nil *Registry records nothing, mirroring the
// nil-safe stats.Recorder and trace.Tracer).
//
// Unlike stats (string-keyed maps, merged at the end of a run) the registry
// uses dense integer IDs into fixed arrays, so the steady-state collective
// datapath can update it on every round without allocating. A Set bundles
// one Registry per rank plus a shared flight recorder (flight.go), and
// exports the whole thing in Prometheus text exposition format (prom.go).
package metrics

import (
	"flexio/internal/sim"
	"flexio/internal/stats"
)

// Counter identifies one monotonically increasing count in the registry.
type Counter int

// The counter schema. Names (see counterMeta) align with the stats package
// where both record the same event, so tables and exposition agree.
const (
	// Shuffle traffic (two-phase exchange).
	CShuffleSendBytes Counter = iota // bytes this rank shipped toward aggregators
	CShuffleRecvBytes                // bytes merged at this rank while aggregating
	CRounds                          // two-phase rounds executed
	CCommBytes                       // all bytes through the MPI transport
	// Node placement split of the shuffle traffic, recorded at the
	// transport under the world's node map (DESIGN §9 and §11).
	CShuffleInterNodeBytes // shuffle bytes that crossed a node boundary
	CShuffleIntraNodeBytes // shuffle bytes that stayed on the sender's node

	// Storage traffic.
	CIOCalls // file-system calls issued
	CIOBytes // bytes moved to/from the file system

	// Data sieving (read amplification = span/useful).
	CSieveSpanBytes   // contiguous span bytes sieve windows touched
	CSieveUsefulBytes // useful data bytes inside those spans

	// Realm-boundary sharing effects.
	CRMWPages        // read-modify-write page penalties
	CStripeConflicts // stripe extent-lock transfers between writers
	CLockGrants      // page-lock extents granted
	CLockRevokes     // page locks revoked from other clients
	CCacheFlushes    // dirty pages flushed on revocation

	// Page-cache effectiveness.
	CPageCacheHits   // read pages served from the client cache
	CPageCacheMisses // read pages fetched from the server

	// Layout memoization (core engine).
	CMemoHits   // collective calls served from the layout memo
	CMemoMisses // collective calls that computed intersections afresh

	// Fault tolerance.
	CRetries // transient-error retries issued
	CResumes // partial-transfer tail resumptions
	CGiveups // operations abandoned after exhausting the retry policy
	CFaults  // faults the schedule injected into this rank's ops
	CAborts  // collective operations aborted by error agreement

	// Realm assignment health.
	CRealmsAssigned   // realms handed out by the assigner
	CRealmsMisaligned // realms whose start is not stripe-aligned

	// Rank failure and recovery.
	CDeadlineTrips  // failed peers detected via the collective deadline guard
	CFailovers      // collectives resumed with realms reassigned off dead ranks
	CRoundsReplayed // journalled rounds re-executed during a resume
	CRoundsSkipped  // journalled rounds skipped during a resume (already durable)
	CRedelivered    // messages dropped and redelivered by rank-fault injection

	// Data integrity (checksummed datapath).
	CIntegWireMismatch   // in-flight payloads whose checksum failed at the receiver
	CIntegWireRepaired   // corrupted payloads recovered by bounded re-request
	CIntegAtRestMismatch // stored stripe blocks whose checksum failed on read
	CIntegQuarantined    // stripe blocks quarantined after an at-rest mismatch
	CIntegRepaired       // stripe blocks repaired inline from retained images
	CIntegUnrepaired     // integrity failures that had to abort the collective

	numCounters
)

// Gauge identifies one last-value metric.
type Gauge int

const (
	GNAggs       Gauge = iota // aggregator count of the most recent collective
	GLastRound                // last two-phase round index executed
	GCritPathSec              // virtual seconds of the critical path attributed to this rank
	numGauges
)

// Hist identifies one log-bucketed histogram (stats.Histogram semantics).
type Hist int

const (
	// Per-phase virtual-time durations, one sample per charge. The summed
	// totals match the stats time buckets exactly: both are fed by the
	// same mpi.Proc.ChargeTime calls.
	HPhaseFlatten Hist = iota
	HPhasePreagg
	HPhaseExchange
	HPhaseComm
	HPhaseIO
	HPhaseServe
	HPhaseCopy
	HPhaseBackoff

	// Per-round byte distributions.
	HRoundSendBytes // bytes a rank contributed per round
	HRoundRecvBytes // bytes an aggregator merged per round

	numHists
)

// meta describes one metric for exposition and dumps.
type meta struct {
	name string
	help string
}

var counterMeta = [numCounters]meta{
	CShuffleSendBytes:      {"shuffle_send_bytes", "bytes shipped toward aggregators during two-phase exchanges"},
	CShuffleRecvBytes:      {"shuffle_recv_bytes", "bytes merged while acting as an aggregator"},
	CShuffleInterNodeBytes: {"shuffle_internode_bytes", "shuffle bytes sent across a node boundary under the installed node map"},
	CShuffleIntraNodeBytes: {"shuffle_intranode_bytes", "shuffle bytes sent within the sender's node under the installed node map"},
	CRounds:                {"rounds", "two-phase rounds executed"},
	CCommBytes:             {"comm_bytes", "bytes moved through the MPI transport"},
	CIOCalls:               {"io_calls", "file-system calls issued"},
	CIOBytes:               {"io_bytes", "bytes moved to or from the file system"},
	CSieveSpanBytes:        {"sieve_span_bytes", "contiguous span bytes touched by data-sieving windows"},
	CSieveUsefulBytes:      {"sieve_useful_bytes", "useful data bytes inside sieve spans"},
	CRMWPages:              {"rmw_pages", "read-modify-write page penalties"},
	CStripeConflicts:       {"stripe_conflicts", "stripe extent-lock transfers between writers"},
	CLockGrants:            {"lock_grants", "page-lock extents granted"},
	CLockRevokes:           {"lock_revokes", "page locks revoked from other clients"},
	CCacheFlushes:          {"cache_flushes", "dirty pages flushed on lock revocation"},
	CPageCacheHits:         {"page_cache_hits", "read pages served from the client page cache"},
	CPageCacheMisses:       {"page_cache_misses", "read pages fetched from the storage server"},
	CMemoHits:              {"memo_hits", "collective calls served from the layout memo"},
	CMemoMisses:            {"memo_misses", "collective calls that computed intersections afresh"},
	CRetries:               {"io_retries", "transient-error retries issued"},
	CResumes:               {"io_resumes", "partial-transfer tail resumptions"},
	CGiveups:               {"io_giveups", "operations abandoned after exhausting the retry policy"},
	CFaults:                {"faults_injected", "faults the schedule injected into this rank's operations"},
	CAborts:                {"collective_aborts", "collective operations aborted by error agreement"},
	CRealmsAssigned:        {"realms_assigned", "file realms handed out by the assigner"},
	CRealmsMisaligned:      {"realms_misaligned", "file realms whose start offset is not stripe-aligned"},
	CDeadlineTrips:         {"deadline_trips", "failed peers detected via the collective deadline guard"},
	CFailovers:             {"failovers", "collectives resumed with realms reassigned off dead ranks"},
	CRoundsReplayed:        {"rounds_replayed", "journalled two-phase rounds re-executed during a resume"},
	CRoundsSkipped:         {"rounds_skipped", "journalled two-phase rounds skipped during a resume"},
	CRedelivered:           {"msg_redeliveries", "messages dropped and redelivered by rank-fault injection"},
	CIntegWireMismatch:     {"integrity_wire_mismatches", "in-flight payloads whose checksum failed at the receiver"},
	CIntegWireRepaired:     {"integrity_wire_repaired", "corrupted payloads recovered by bounded re-request"},
	CIntegAtRestMismatch:   {"integrity_atrest_mismatches", "stored stripe blocks whose checksum failed on read"},
	CIntegQuarantined:      {"integrity_quarantined", "stripe blocks quarantined after an at-rest mismatch"},
	CIntegRepaired:         {"integrity_repairs", "stripe blocks repaired inline from retained images"},
	CIntegUnrepaired:       {"integrity_unrepaired", "integrity failures that escalated to a collective abort"},
}

var gaugeMeta = [numGauges]meta{
	GNAggs:       {"naggs", "aggregator count of the most recent collective"},
	GLastRound:   {"last_round", "last two-phase round index executed"},
	GCritPathSec: {"critpath_seconds", "virtual seconds of the critical path attributed to this rank"},
}

// histMeta additionally carries an optional label pair so related
// histograms (the per-phase family) share one Prometheus metric name.
var histMeta = [numHists]struct {
	family   string
	help     string
	labelKey string
	labelVal string
}{
	HPhaseFlatten:   {"phase_seconds", "virtual seconds per phase charge", "phase", stats.PFlatten},
	HPhasePreagg:    {"phase_seconds", "virtual seconds per phase charge", "phase", stats.PPreagg},
	HPhaseExchange:  {"phase_seconds", "virtual seconds per phase charge", "phase", stats.PExchange},
	HPhaseComm:      {"phase_seconds", "virtual seconds per phase charge", "phase", stats.PComm},
	HPhaseIO:        {"phase_seconds", "virtual seconds per phase charge", "phase", stats.PIO},
	HPhaseServe:     {"phase_seconds", "virtual seconds per phase charge", "phase", stats.PServe},
	HPhaseCopy:      {"phase_seconds", "virtual seconds per phase charge", "phase", stats.PCopy},
	HPhaseBackoff:   {"phase_seconds", "virtual seconds per phase charge", "phase", stats.PBackoff},
	HRoundSendBytes: {"round_send_bytes", "bytes a rank contributed per two-phase round", "", ""},
	HRoundRecvBytes: {"round_recv_bytes", "bytes an aggregator merged per two-phase round", "", ""},
}

// CounterName returns the exposition name of a counter.
func CounterName(c Counter) string { return counterMeta[c].name }

// CounterCount returns the size of the fixed counter schema, so callers
// can walk every counter without knowing the schema.
func CounterCount() int { return int(numCounters) }

// phaseHist maps a stats phase name onto its histogram ID.
func phaseHist(phase string) (Hist, bool) {
	switch phase {
	case stats.PFlatten:
		return HPhaseFlatten, true
	case stats.PPreagg:
		return HPhasePreagg, true
	case stats.PExchange:
		return HPhaseExchange, true
	case stats.PComm:
		return HPhaseComm, true
	case stats.PIO:
		return HPhaseIO, true
	case stats.PServe:
		return HPhaseServe, true
	case stats.PCopy:
		return HPhaseCopy, true
	case stats.PBackoff:
		return HPhaseBackoff, true
	}
	return 0, false
}

// PhaseHists enumerates the (phase name, histogram ID) pairs of the
// per-phase family, for coherence checks against stats and traces.
func PhaseHists() map[string]Hist {
	return map[string]Hist{
		stats.PFlatten:  HPhaseFlatten,
		stats.PPreagg:   HPhasePreagg,
		stats.PExchange: HPhaseExchange,
		stats.PComm:     HPhaseComm,
		stats.PIO:       HPhaseIO,
		stats.PServe:    HPhaseServe,
		stats.PCopy:     HPhaseCopy,
		stats.PBackoff:  HPhaseBackoff,
	}
}

// Registry accumulates one rank's metrics. It is owned by that rank's
// goroutine and is not safe for concurrent use (exactly like the rank's
// stats.Recorder); cross-rank views are built with Set.Merged after a run.
// A nil *Registry is valid and records nothing.
type Registry struct {
	rank     int
	fr       *FlightRank
	counters [numCounters]int64
	gauges   [numGauges]float64
	hists    [numHists]stats.Histogram
}

// Rank returns the owning rank (-1 for merged views and nil registries).
func (r *Registry) Rank() int {
	if r == nil {
		return -1
	}
	return r.rank
}

// Add accumulates n into a counter.
func (r *Registry) Add(c Counter, n int64) {
	if r == nil {
		return
	}
	r.counters[c] += n
}

// Inc adds one to a counter.
func (r *Registry) Inc(c Counter) { r.Add(c, 1) }

// Counter returns a counter's value (zero on nil).
func (r *Registry) Counter(c Counter) int64 {
	if r == nil {
		return 0
	}
	return r.counters[c]
}

// SetGauge stores a gauge's latest value.
func (r *Registry) SetGauge(g Gauge, v float64) {
	if r == nil {
		return
	}
	r.gauges[g] = v
}

// Gauge returns a gauge's value (zero on nil).
func (r *Registry) Gauge(g Gauge) float64 {
	if r == nil {
		return 0
	}
	return r.gauges[g]
}

// Observe records one histogram sample.
func (r *Registry) Observe(h Hist, v float64) {
	if r == nil {
		return
	}
	r.hists[h].Observe(v)
}

// Hist returns the histogram (nil on a nil registry).
func (r *Registry) Hist(h Hist) *stats.Histogram {
	if r == nil {
		return nil
	}
	return &r.hists[h]
}

// ObservePhase records a phase duration into the per-phase histogram
// family; unknown phases are dropped. mpi.Proc.ChargeTime calls this next
// to stats.AddTime, so the summed per-phase histogram totals equal the
// stats time buckets by construction.
func (r *Registry) ObservePhase(phase string, d sim.Time) {
	if r == nil {
		return
	}
	if h, ok := phaseHist(phase); ok {
		r.hists[h].Observe(d.Seconds())
	}
}

// Flight returns this rank's flight-recorder handle (nil when disabled).
func (r *Registry) Flight() *FlightRank {
	if r == nil {
		return nil
	}
	return r.fr
}

// SetRealmContext records the realm layout of the current collective in the
// flight recorder: aggregator count, stripe size, requested alignment, and
// the realm start offsets. Unchanged contexts are recognized without
// copying, so steady-state (persistent-realm) calls stay allocation-free.
func (r *Registry) SetRealmContext(naggs int, stripe, align int64, disps []int64) {
	if r == nil || r.fr == nil {
		return
	}
	r.fr.f.setContext(naggs, stripe, align, disps)
}

// SetTopology records how many distinct nodes the world's node map spreads
// the ranks across, for the flight recorder's dump context.
func (r *Registry) SetTopology(nodes int) {
	if r == nil || r.fr == nil {
		return
	}
	r.fr.f.setTopology(nodes)
}

// NoteAbort marks a collective abort (ErrCollectiveAbort) at the given
// round with the agreed error class, counting it and flagging the flight
// recorder so its next dump carries the abort context.
func (r *Registry) NoteAbort(round int, class string) {
	if r == nil {
		return
	}
	r.counters[CAborts]++
	if r.fr != nil {
		r.fr.f.noteAbort(round, class)
	}
}

// NoteFailover records that this rank took part in a resumed collective
// whose realms were reassigned off the dead ranks: it counts the failover
// and publishes the (deterministic) dead set and realm count into the
// flight recorder, where canonical dumps pick it up.
func (r *Registry) NoteFailover(dead []int, realms int) {
	if r == nil {
		return
	}
	r.counters[CFailovers]++
	if r.fr != nil {
		r.fr.f.noteFailover(dead, realms)
	}
}

// NoteReplay records how a resume treated this aggregator's journalled
// rounds: replayed ones re-executed, skipped ones already durable from the
// failed attempt.
func (r *Registry) NoteReplay(replayed, skipped int64) {
	if r == nil {
		return
	}
	r.counters[CRoundsReplayed] += replayed
	r.counters[CRoundsSkipped] += skipped
	if r.fr != nil && replayed+skipped > 0 {
		r.fr.f.noteReplay(replayed, skipped)
	}
}

// NoteWireIntegrity records the outcome of one in-flight checksum failure:
// the mismatch is counted, a repaired delivery (bounded re-request
// succeeded) bumps the repair counter, and the flight recorder's integrity
// event accumulates both so dumps carry the corruption context.
func (r *Registry) NoteWireIntegrity(repaired bool) {
	if r == nil {
		return
	}
	r.counters[CIntegWireMismatch]++
	ev := IntegrityEvent{WireMismatches: 1}
	if repaired {
		r.counters[CIntegWireRepaired]++
		ev.WireRepaired = 1
	} else {
		r.counters[CIntegUnrepaired]++
		ev.Unrepaired = 1
	}
	if r.fr != nil {
		r.fr.f.noteIntegrity(ev)
	}
}

// NoteAtRestIntegrity records the outcome of one at-rest checksum failure
// observed by this rank's storage client: detection, quarantine, and
// either an inline ring repair or escalation to ErrDataIntegrity.
func (r *Registry) NoteAtRestIntegrity(quarantined, repaired bool) {
	if r == nil {
		return
	}
	r.counters[CIntegAtRestMismatch]++
	ev := IntegrityEvent{AtRestMismatches: 1}
	if quarantined {
		r.counters[CIntegQuarantined]++
		ev.Quarantined = 1
	}
	if repaired {
		r.counters[CIntegRepaired]++
		ev.Repaired = 1
	} else {
		r.counters[CIntegUnrepaired]++
		ev.Unrepaired = 1
	}
	if r.fr != nil {
		r.fr.f.noteIntegrity(ev)
	}
}

// RoundProbe snapshots the per-round-deltas' baseline at a round start.
// It is a value type: Begin/EndRound allocate nothing.
type RoundProbe struct {
	sieveSpan, sieveUseful     int64
	faults, retries, resumes   int64
	comm, io, copyT, exch, bko sim.Time
}

// BeginRound snapshots counters and phase times at a round boundary.
func (r *Registry) BeginRound(st *stats.Recorder) RoundProbe {
	if r == nil {
		return RoundProbe{}
	}
	return RoundProbe{
		sieveSpan:   r.counters[CSieveSpanBytes],
		sieveUseful: r.counters[CSieveUsefulBytes],
		faults:      r.counters[CFaults],
		retries:     r.counters[CRetries],
		resumes:     r.counters[CResumes],
		comm:        st.Time(stats.PComm),
		io:          st.Time(stats.PIO),
		copyT:       st.Time(stats.PCopy),
		exch:        st.Time(stats.PExchange),
		bko:         st.Time(stats.PBackoff),
	}
}

// EndRound closes a round: it counts the shuffle traffic, observes the
// per-round byte distributions, and appends one structured record (the
// deltas since BeginRound) to the flight recorder's bounded ring. agg says
// whether this rank aggregated this round; recvBytes is the merged byte
// total at the aggregator (ignored otherwise).
func (r *Registry) EndRound(st *stats.Recorder, pr RoundProbe, round int, agg bool, sendBytes, recvBytes int64) {
	if r == nil {
		return
	}
	r.counters[CRounds]++
	r.counters[CShuffleSendBytes] += sendBytes
	r.hists[HRoundSendBytes].Observe(float64(sendBytes))
	if agg {
		r.counters[CShuffleRecvBytes] += recvBytes
		r.hists[HRoundRecvBytes].Observe(float64(recvBytes))
	} else {
		recvBytes = 0
	}
	r.gauges[GLastRound] = float64(round)
	r.fr.Record(RoundRecord{
		Round:            round,
		Agg:              agg,
		SendBytes:        sendBytes,
		RecvBytes:        recvBytes,
		SieveSpanBytes:   r.counters[CSieveSpanBytes] - pr.sieveSpan,
		SieveUsefulBytes: r.counters[CSieveUsefulBytes] - pr.sieveUseful,
		Faults:           r.counters[CFaults] - pr.faults,
		Retries:          r.counters[CRetries] - pr.retries,
		Resumes:          r.counters[CResumes] - pr.resumes,
		CommSec:          (st.Time(stats.PComm) - pr.comm).Seconds(),
		IOSec:            (st.Time(stats.PIO) - pr.io).Seconds(),
		CopySec:          (st.Time(stats.PCopy) - pr.copyT).Seconds(),
		ExchangeSec:      (st.Time(stats.PExchange) - pr.exch).Seconds(),
		BackoffSec:       (st.Time(stats.PBackoff) - pr.bko).Seconds(),
	})
}

// reset zeroes the registry in place.
func (r *Registry) reset() {
	if r == nil {
		return
	}
	r.counters = [numCounters]int64{}
	r.gauges = [numGauges]float64{}
	for i := range r.hists {
		r.hists[i] = stats.Histogram{}
	}
}

// Set bundles one Registry per rank plus the shared flight recorder; it is
// what World.EnableMetrics attaches and what exposition and dumps consume.
// A nil *Set is valid: Registry returns nil, and the nil registry records
// nothing.
type Set struct {
	regs   []*Registry
	flight *Flight
}

// DefaultFlightRounds is the per-rank flight-recorder ring capacity: deep
// enough for every round of the repo's experiments, bounded so soak runs
// cannot grow without limit.
const DefaultFlightRounds = 512

// NewSet builds a Set for the given number of ranks with the default
// flight-recorder depth.
func NewSet(ranks int) *Set { return NewSetCap(ranks, DefaultFlightRounds) }

// NewSetCap is NewSet with an explicit per-rank flight ring capacity
// (non-positive means DefaultFlightRounds). All ring storage is allocated
// here, so recording stays allocation-free afterwards.
func NewSetCap(ranks, flightCap int) *Set {
	return NewSetSelective(ranks, flightCap, nil)
}

// NewSetSelective is NewSetCap with flight-recorder rings allocated only
// for the ranks keepFlight admits (nil admits every rank). Registries stay
// per-rank — they are small fixed arrays and must be lock-free for the
// owning goroutine — but the rings dominate the Set's memory (flightCap
// RoundRecords per rank), so a rollup deployment that keeps rings only on
// node leaders and trace-sampled ranks holds flight memory to
// O(nodes + sampled ranks) instead of O(ranks). Ranks without a ring still
// record rounds; FlightRank.Record on a zero-capacity ring is a no-op.
func NewSetSelective(ranks, flightCap int, keepFlight func(rank int) bool) *Set {
	if flightCap <= 0 {
		flightCap = DefaultFlightRounds
	}
	f := &Flight{ranks: make([]FlightRank, ranks)}
	s := &Set{regs: make([]*Registry, ranks), flight: f}
	for i := range s.regs {
		f.ranks[i] = FlightRank{f: f, rank: i}
		if keepFlight == nil || keepFlight(i) {
			f.ranks[i].recs = make([]RoundRecord, flightCap)
		}
		s.regs[i] = &Registry{rank: i, fr: &f.ranks[i]}
	}
	return s
}

// Ranks returns the number of per-rank registries (zero on nil).
func (s *Set) Ranks() int {
	if s == nil {
		return 0
	}
	return len(s.regs)
}

// Registry returns rank's registry (nil on a nil Set or out-of-range rank).
func (s *Set) Registry(rank int) *Registry {
	if s == nil || rank < 0 || rank >= len(s.regs) {
		return nil
	}
	return s.regs[rank]
}

// Flight returns the shared flight recorder (nil on nil).
func (s *Set) Flight() *Flight {
	if s == nil {
		return nil
	}
	return s.flight
}

// FlightRingRanks counts the ranks holding allocated flight rings. Under
// NewSetSelective this is the O(leaders + sampled ranks) bound the scale
// smoke test asserts; under NewSet it equals Ranks().
func (s *Set) FlightRingRanks() int {
	if s == nil {
		return 0
	}
	n := 0
	for i := range s.flight.ranks {
		if len(s.flight.ranks[i].recs) > 0 {
			n++
		}
	}
	return n
}

// MergeFrom folds another registry into this one: counters sum, gauges
// take the maximum, histograms merge. It is the single merge path both
// Merged and the per-node rollup tree (rollup.go) use, so cross-rank and
// per-node views agree by construction. Nil receivers and sources are
// no-ops.
func (r *Registry) MergeFrom(o *Registry) {
	if r == nil || o == nil {
		return
	}
	for c, v := range o.counters {
		r.counters[c] += v
	}
	for g, v := range o.gauges {
		if v > r.gauges[g] {
			r.gauges[g] = v
		}
	}
	for h := range o.hists {
		r.hists[h].MergeHist(&o.hists[h])
	}
}

// Merged folds every rank's registry into a fresh cross-rank view: counters
// sum, gauges take the maximum, histograms merge. The result has no flight
// handle and rank -1.
func (s *Set) Merged() *Registry {
	out := &Registry{rank: -1}
	if s == nil {
		return out
	}
	for _, r := range s.regs {
		out.MergeFrom(r)
	}
	return out
}

// NoteCritPath publishes the critical-path profiler's summary into the
// flight recorder (surfaced by full dumps) and sets each rank's
// critpath_seconds gauge from perRankSec, so Prometheus exposition carries
// the per-rank attribution. Entries beyond the rank count are ignored.
func (s *Set) NoteCritPath(cp CritPathSummary, perRankSec []float64) {
	if s == nil {
		return
	}
	s.flight.noteCritPath(cp)
	for i, r := range s.regs {
		if i < len(perRankSec) {
			r.SetGauge(GCritPathSec, perRankSec[i])
		}
	}
}

// Reset clears every registry and the flight recorder (for reuse across
// independent experiments; World.ResetClocks calls it).
func (s *Set) Reset() {
	if s == nil {
		return
	}
	for _, r := range s.regs {
		r.reset()
	}
	s.flight.reset()
}
