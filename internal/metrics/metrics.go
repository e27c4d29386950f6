// Package metrics is the one per-rank recording store of the I/O stack: a
// fixed-schema registry of counters, gauges, phase-time sums and
// log-bucketed histograms, allocation-free on the hot path. Every rank of a
// world owns one from the start (counters, gauges and phase sums, well
// under 1 KiB); enabling metrics attaches histograms and flight-recorder
// rings to the same registries. Every method on a nil *Registry records
// nothing, like a nil trace.Tracer.
//
// Counters and phases are dense integer IDs into fixed arrays, so the
// collective datapath updates them every round without allocating. Each
// counter carries its exposition name and, where the stats tables print it,
// its table name; the stats package is a name-keyed read view of a
// registry. A Set bundles the registries of a world plus a shared flight
// recorder (flight.go) and exports them in Prometheus text exposition
// format (prom.go).
package metrics

import (
	"fmt"

	"flexio/internal/sim"
)

// Counter identifies one monotonically increasing count in the registry.
type Counter int

// The counter schema. counterMeta names each entry for the exposition and,
// where the stats tables print it, for the tables.
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
	CMemoHits    // collective calls served from the layout memo
	CMemoMisses  // collective calls that computed intersections afresh
	CMemoRebases // collective calls that shifted a memoized plan to a moved access

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

	// Table-only counters: printed by the stats tables, not exposed.
	CPairsProcessed // offset/length pairs evaluated
	CReqBytes       // bytes of access-description metadata exchanged
	CCacheHits      // client cache hits: read pages and page locks already held
	CDegradedRounds // collective rounds re-issued with naive I/O after a sieve fault
	CStormRevokes   // extra lock revokes charged by revoke storms
	CBrownoutServes // OST requests served slower due to a brownout

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

// Phase identifies one bucket of attributed virtual time. Its name is the
// trace span name and the stats table row.
type Phase int

const (
	PFlatten  Phase = iota // datatype flattening / request generation
	PPreagg                // node-local request/payload pre-aggregation
	PExchange              // access-description exchange
	PComm                  // data shuffle between clients and aggregators
	PIO                    // file system access (client-observed, incl. queueing)
	PServe                 // raw OST service time consumed by this client's requests
	PCopy                  // pack/unpack and buffer copies
	PBackoff               // virtual time spent backing off between retries
	numPhases
)

var phaseNames = [numPhases]string{"flatten", "preagg", "exchange", "comm", "io", "ost_service", "copy", "backoff"}

// String returns the phase's name.
func (ph Phase) String() string { return phaseNames[ph] }

// PhaseCount returns the size of the phase enum.
func PhaseCount() int { return int(numPhases) }

// PhaseNamed returns the phase called name.
func PhaseNamed(name string) (Phase, bool) {
	for ph, n := range phaseNames {
		if n == name {
			return Phase(ph), true
		}
	}
	return 0, false
}

// Hist identifies one log-bucketed histogram. The first PhaseCount are the
// per-phase family, one sample per charge, in Phase order (ph.Hist()).
type Hist int

const (
	// Per-round byte distributions.
	HRoundSendBytes Hist = Hist(numPhases) + iota // bytes a rank contributed per round
	HRoundRecvBytes                               // bytes an aggregator merged per round

	numHists
)

// Hist returns the phase's histogram.
func (ph Phase) Hist() Hist { return Hist(ph) }

// meta describes one metric: its exposition name and help text, and for a
// counter the stats table name ("" where the tables do not print it; a
// table-only counter has no exposition name).
type meta struct {
	name  string
	help  string
	table string
}

var counterMeta = [numCounters]meta{
	CShuffleSendBytes:      {"shuffle_send_bytes", "bytes shipped toward aggregators during two-phase exchanges", ""},
	CShuffleRecvBytes:      {"shuffle_recv_bytes", "bytes merged while acting as an aggregator", ""},
	CShuffleInterNodeBytes: {"shuffle_internode_bytes", "shuffle bytes sent across a node boundary under the installed node map", ""},
	CShuffleIntraNodeBytes: {"shuffle_intranode_bytes", "shuffle bytes sent within the sender's node under the installed node map", ""},
	CRounds:                {"rounds", "two-phase rounds executed", ""},
	CCommBytes:             {"comm_bytes", "bytes moved through the MPI transport", "bytes_comm"},
	CIOCalls:               {"io_calls", "file-system calls issued", "io_calls"},
	CIOBytes:               {"io_bytes", "bytes moved to or from the file system", "bytes_io"},
	CSieveSpanBytes:        {"sieve_span_bytes", "contiguous span bytes touched by data-sieving windows", ""},
	CSieveUsefulBytes:      {"sieve_useful_bytes", "useful data bytes inside sieve spans", ""},
	CRMWPages:              {"rmw_pages", "read-modify-write page penalties", "rmw_pages"},
	CStripeConflicts:       {"stripe_conflicts", "stripe extent-lock transfers between writers", "stripe_conflicts"},
	CLockGrants:            {"lock_grants", "page-lock extents granted", "lock_grants"},
	CLockRevokes:           {"lock_revokes", "page locks revoked from other clients", "lock_revokes"},
	CCacheFlushes:          {"cache_flushes", "dirty pages flushed on lock revocation", "cache_flushes"},
	CPageCacheHits:         {"page_cache_hits", "read pages served from the client page cache", ""},
	CPageCacheMisses:       {"page_cache_misses", "read pages fetched from the storage server", ""},
	CMemoHits:              {"memo_hits", "collective calls served from the layout memo", "isect_cache_hits"},
	CMemoMisses:            {"memo_misses", "collective calls that computed intersections afresh", "isect_cache_misses"},
	CMemoRebases:           {"memo_rebases", "collective calls that shifted a memoized plan to a moved access", "isect_cache_rebases"},
	CRetries:               {"io_retries", "transient-error retries issued", "io_retries"},
	CResumes:               {"io_resumes", "partial-transfer tail resumptions", "io_resumes"},
	CGiveups:               {"io_giveups", "operations abandoned after exhausting the retry policy", "io_giveups"},
	CFaults:                {"faults_injected", "faults the schedule injected into this rank's operations", "faults_injected"},
	CAborts:                {"collective_aborts", "collective operations aborted by error agreement", ""},
	CRealmsAssigned:        {"realms_assigned", "file realms handed out by the assigner", ""},
	CRealmsMisaligned:      {"realms_misaligned", "file realms whose start offset is not stripe-aligned", ""},
	CDeadlineTrips:         {"deadline_trips", "failed peers detected via the collective deadline guard", ""},
	CFailovers:             {"failovers", "collectives resumed with realms reassigned off dead ranks", ""},
	CRoundsReplayed:        {"rounds_replayed", "journalled two-phase rounds re-executed during a resume", ""},
	CRoundsSkipped:         {"rounds_skipped", "journalled two-phase rounds skipped during a resume", ""},
	CRedelivered:           {"msg_redeliveries", "messages dropped and redelivered by rank-fault injection", "msg_redeliveries"},
	CIntegWireMismatch:     {"integrity_wire_mismatches", "in-flight payloads whose checksum failed at the receiver", ""},
	CIntegWireRepaired:     {"integrity_wire_repaired", "corrupted payloads recovered by bounded re-request", ""},
	CIntegAtRestMismatch:   {"integrity_atrest_mismatches", "stored stripe blocks whose checksum failed on read", ""},
	CIntegQuarantined:      {"integrity_quarantined", "stripe blocks quarantined after an at-rest mismatch", ""},
	CIntegRepaired:         {"integrity_repairs", "stripe blocks repaired inline from retained images", ""},
	CIntegUnrepaired:       {"integrity_unrepaired", "integrity failures that escalated to a collective abort", ""},
	CPairsProcessed:        {"", "", "pairs_processed"},
	CReqBytes:              {"", "", "req_bytes"},
	CCacheHits:             {"", "", "cache_hits"},
	CDegradedRounds:        {"", "", "degraded_rounds"},
	CStormRevokes:          {"", "", "storm_revokes"},
	CBrownoutServes:        {"", "", "brownout_serves"},
}

var gaugeMeta = [numGauges]meta{
	GNAggs:       {"naggs", "aggregator count of the most recent collective", ""},
	GLastRound:   {"last_round", "last two-phase round index executed", ""},
	GCritPathSec: {"critpath_seconds", "virtual seconds of the critical path attributed to this rank", ""},
}

// histMeta names the per-round histograms; the per-phase family shares one
// Prometheus metric name under a phase label (writePromHists).
var histMeta = [numHists]meta{
	HRoundSendBytes: {"round_send_bytes", "bytes a rank contributed per two-phase round", ""},
	HRoundRecvBytes: {"round_recv_bytes", "bytes an aggregator merged per two-phase round", ""},
}

// CounterName returns the exposition name of a counter ("" for a
// table-only counter).
func CounterName(c Counter) string { return counterMeta[c].name }

// TableName returns the stats table name of a counter ("" for a counter
// the tables do not print).
func TableName(c Counter) string { return counterMeta[c].table }

// CounterCount returns the size of the fixed counter schema, so callers
// can walk every counter without knowing the schema.
func CounterCount() int { return int(numCounters) }

// Registry accumulates one rank's counters, gauges and phase-time sums,
// plus its histograms and flight ring once a Set is attached. It is owned
// by that rank's goroutine and is not safe for concurrent use; cross-rank
// views are built with Merge after a run. A nil *Registry is valid and
// records nothing.
type Registry struct {
	rank     int
	fr       *FlightRank
	hists    *[numHists]Histogram // nil until a Set is attached
	counters [numCounters]int64
	gauges   [numGauges]float64
	phases   [numPhases]sim.Time
	// seen marks the counters (bit c) and phases (bit 63-ph) ever added to,
	// zero amounts included: the stats tables print exactly those rows.
	seen uint64
}

// seen's bits hold every counter and phase: this fails to compile otherwise.
const _ = uint64(64 - int(numCounters) - int(numPhases))

// NewRegistry returns rank's empty registry, with no histograms or ring.
func NewRegistry(rank int) *Registry { return &Registry{rank: rank} }

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
	r.seen |= 1 << c
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

// Charge books d of virtual time to a phase: its sum and, when attached,
// its histogram (one sample per charge), so the two agree by construction.
// mpi.Proc's intervals charge through it.
func (r *Registry) Charge(ph Phase, d sim.Time) {
	if r == nil {
		return
	}
	r.phases[ph] += d
	r.seen |= 1 << (63 - ph)
	if r.hists != nil {
		r.hists[ph].Observe(d.Seconds())
	}
}

// ObservePhase is Charge by phase name; an unknown name is a programming
// error and panics.
func (r *Registry) ObservePhase(name string, d sim.Time) {
	ph, ok := PhaseNamed(name)
	if !ok {
		panic(fmt.Sprintf("metrics: unknown phase %q", name))
	}
	r.Charge(ph, d)
}

// Phase returns a phase's summed virtual time (zero on nil).
func (r *Registry) Phase(ph Phase) sim.Time {
	if r == nil {
		return 0
	}
	return r.phases[ph]
}

// Seen reports whether counter c was ever passed to Add, zero amounts
// included.
func (r *Registry) Seen(c Counter) bool { return r != nil && r.seen&(1<<c) != 0 }

// PhaseSeen reports whether phase ph was ever charged, zero charges
// included.
func (r *Registry) PhaseSeen(ph Phase) bool { return r != nil && r.seen&(1<<(63-ph)) != 0 }

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

// Observe records one histogram sample (nothing without histograms).
func (r *Registry) Observe(h Hist, v float64) {
	if r == nil || r.hists == nil {
		return
	}
	r.hists[h].Observe(v)
}

// Hist returns the histogram (nil on a registry without histograms).
func (r *Registry) Hist(h Hist) *Histogram {
	if r == nil || r.hists == nil {
		return nil
	}
	return &r.hists[h]
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
}

// NoteWireIntegrity counts the outcome of one in-flight checksum failure:
// the mismatch, and either a repaired delivery (bounded re-request
// succeeded) or an unrepaired one.
func (r *Registry) NoteWireIntegrity(repaired bool) {
	if r == nil {
		return
	}
	r.counters[CIntegWireMismatch]++
	if repaired {
		r.counters[CIntegWireRepaired]++
	} else {
		r.counters[CIntegUnrepaired]++
	}
}

// NoteAtRestIntegrity counts the outcome of one at-rest checksum failure
// observed by this rank's storage client: detection, quarantine, and
// either an inline ring repair or escalation to ErrDataIntegrity.
func (r *Registry) NoteAtRestIntegrity(quarantined, repaired bool) {
	if r == nil {
		return
	}
	r.counters[CIntegAtRestMismatch]++
	if quarantined {
		r.counters[CIntegQuarantined]++
	}
	if repaired {
		r.counters[CIntegRepaired]++
	} else {
		r.counters[CIntegUnrepaired]++
	}
}

// RoundProbe snapshots the per-round-deltas' baseline at a round start.
// It is a value type: Begin/EndRound allocate nothing.
type RoundProbe struct {
	sieveSpan, sieveUseful   int64
	faults, retries, resumes int64
}

// BeginRound snapshots the counters a round record takes deltas of.
func (r *Registry) BeginRound() RoundProbe {
	if r == nil {
		return RoundProbe{}
	}
	return RoundProbe{
		sieveSpan:   r.counters[CSieveSpanBytes],
		sieveUseful: r.counters[CSieveUsefulBytes],
		faults:      r.counters[CFaults],
		retries:     r.counters[CRetries],
		resumes:     r.counters[CResumes],
	}
}

// EndRound closes a round: it counts the shuffle traffic, observes the
// per-round byte distributions, and appends one structured record (the
// deltas since BeginRound) to the flight recorder's bounded ring. agg says
// whether this rank aggregated this round; recvBytes is the merged byte
// total at the aggregator (ignored otherwise).
func (r *Registry) EndRound(pr RoundProbe, round int, agg bool, sendBytes, recvBytes int64) {
	if r == nil {
		return
	}
	r.counters[CRounds]++
	r.counters[CShuffleSendBytes] += sendBytes
	r.Observe(HRoundSendBytes, float64(sendBytes))
	if agg {
		r.counters[CShuffleRecvBytes] += recvBytes
		r.Observe(HRoundRecvBytes, float64(recvBytes))
	} else {
		recvBytes = 0
	}
	r.gauges[GLastRound] = float64(round)
	if r.fr == nil {
		return
	}
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
	})
}

// Reset zeroes the registry in place, histograms included.
func (r *Registry) Reset() {
	if r == nil {
		return
	}
	hists := r.hists
	*r = Registry{rank: r.rank, fr: r.fr, hists: hists}
	if hists != nil {
		*hists = [numHists]Histogram{}
	}
}

// MergeFrom folds another registry into this one: counters and phase sums
// add, gauges take the maximum, histograms merge (when this registry has
// them). It is the one merge path: Merge, Set.Merged and the per-node
// rollup tree (rollup.go) all use it, so their views agree by
// construction. Nil receivers and sources are no-ops.
func (r *Registry) MergeFrom(o *Registry) {
	if r == nil || o == nil {
		return
	}
	for c, v := range o.counters {
		r.counters[c] += v
	}
	for ph, v := range o.phases {
		r.phases[ph] += v
	}
	r.seen |= o.seen
	for g, v := range o.gauges {
		if v > r.gauges[g] {
			r.gauges[g] = v
		}
	}
	if r.hists != nil && o.hists != nil {
		for h := range o.hists {
			r.hists[h].MergeHist(&o.hists[h])
		}
	}
}

// Merge folds registries, in order, into a fresh cross-rank view (rank -1,
// no flight handle) that has histograms when any source has them.
func Merge(regs ...*Registry) *Registry {
	out := NewRegistry(-1)
	for _, r := range regs {
		if r != nil && r.hists != nil {
			out.hists = new([numHists]Histogram)
			break
		}
	}
	for _, r := range regs {
		out.MergeFrom(r)
	}
	return out
}

// Set bundles a world's registries plus the shared flight recorder; it is
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

// NewSet builds a standalone Set of fresh registries for the given number
// of ranks with the default flight-recorder depth.
func NewSet(ranks int) *Set {
	regs := make([]*Registry, ranks)
	for i := range regs {
		regs[i] = NewRegistry(i)
	}
	return Attach(regs, DefaultFlightRounds, nil)
}

// Attach gives each registry (regs[i] is rank i's) its histograms and, for
// the ranks keepFlight admits (nil admits every rank), a flight-recorder
// ring of flightCap rounds (non-positive means DefaultFlightRounds), and
// returns the Set over them. All of that storage is allocated here, so
// recording stays allocation-free afterwards. The rings dominate a Set's
// memory, so a rollup deployment that keeps them only on node leaders and
// trace-sampled ranks holds flight memory to O(nodes + sampled ranks)
// instead of O(ranks); ranks without a ring still record rounds, and
// FlightRank.Record on a zero-capacity ring is a no-op.
func Attach(regs []*Registry, flightCap int, keepFlight func(rank int) bool) *Set {
	if flightCap <= 0 {
		flightCap = DefaultFlightRounds
	}
	f := &Flight{ranks: make([]FlightRank, len(regs))}
	hists := make([][numHists]Histogram, len(regs))
	for i, r := range regs {
		f.ranks[i] = FlightRank{f: f, rank: i}
		if keepFlight == nil || keepFlight(i) {
			f.ranks[i].recs = make([]RoundRecord, flightCap)
		}
		r.fr, r.hists = &f.ranks[i], &hists[i]
	}
	return &Set{regs: regs, flight: f}
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
// a keepFlight filter this is the O(leaders + sampled ranks) bound the
// scale smoke test asserts; under NewSet it equals Ranks().
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

// Merged folds every rank's registry into a fresh cross-rank view: counters
// sum, gauges take the maximum, histograms merge. The result has no flight
// handle and rank -1.
func (s *Set) Merged() *Registry {
	if s == nil {
		return NewRegistry(-1)
	}
	return Merge(s.regs...)
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
