package metrics

import (
	"encoding/json"
	"io"
	"sync"
)

// RoundRecord is one structured flight-recorder entry: what a single rank
// did in a single two-phase round. Every field is a function of the program
// order of the workload and fault schedule only, so records are
// deterministic across runs with the same seed. Phase times are not kept
// per round: the registry's phase sums and histograms hold them.
type RoundRecord struct {
	Round            int
	Agg              bool
	SendBytes        int64
	RecvBytes        int64
	SieveSpanBytes   int64
	SieveUsefulBytes int64
	Faults           int64
	Retries          int64
	Resumes          int64
}

// Flight is the shared, bounded flight recorder: one RoundRecord ring per
// rank plus what no counter holds: the realm context of the current
// collective, the first abort observed, the first failover's dead set and
// the critical-path summary. Per-rank recording is lock-free (each ring is
// owned by its rank's goroutine); only the shared fields take the mutex,
// and those are written once per collective or per failure.
type Flight struct {
	mu       sync.Mutex
	ranks    []FlightRank
	naggs    int
	nodes    int
	stripe   int64
	align    int64
	disps    []int64
	abort    *AbortInfo // nil while no abort has been observed
	dead     []int      // the first failover's dead set and realm count
	realms   int
	critpath *CritPathSummary
}

// CritPathSummary is the critical-path profiler's condensed verdict for one
// run, published into the flight recorder by Set.NoteCritPath. Its fields
// are virtual-time durations, which can vary with goroutine scheduling on
// contended workloads, so the summary appears in full dumps only.
type CritPathSummary struct {
	Collectives int     `json:"collectives"`
	TotalSec    float64 `json:"total_sec"`   // virtual wall time of the profiled window
	CoveredSec  float64 `json:"covered_sec"` // critical-path time attributed to rank/phase buckets
	TopRank     int     `json:"top_rank"`    // rank holding the largest share
	TopPhase    string  `json:"top_phase"`   // phase holding the largest share on that rank
	TopSec      float64 `json:"top_sec"`     // that largest share, virtual seconds
	BlockedSec  float64 `json:"blocked_sec"` // time the path sat in message transfer or rendezvous waits
}

// noteCritPath publishes the profiler summary (last writer wins: a re-run
// of the profiler over a longer window supersedes the earlier one).
func (f *Flight) noteCritPath(cp CritPathSummary) {
	f.mu.Lock()
	f.critpath = &cp
	f.mu.Unlock()
}

// FailoverEvent records an aggregator failover: which ranks were dead when
// the collective was resumed, how many realms the reassignment produced,
// and how the journal split the rounds between replay and skip. All fields
// are functions of the workload and fault schedule, so the event is part
// of canonical dumps.
type FailoverEvent struct {
	DeadRanks      []int `json:"dead_ranks"`
	Realms         int   `json:"realms"`
	RoundsReplayed int64 `json:"rounds_replayed,omitempty"`
	RoundsSkipped  int64 `json:"rounds_skipped,omitempty"`
}

// noteFailover records the first failover's dead set and realm count;
// repeat calls (every rank reports the same resume) keep the first.
func (f *Flight) noteFailover(dead []int, realms int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.realms == 0 {
		f.dead, f.realms = append(f.dead[:0], dead...), realms
	}
}

// IntegrityEvent is the run's corruption story: how many checksums failed
// in flight and at rest, and how each failure resolved (re-request,
// quarantine + repair, or escalation). A dump reads it from the CInteg*
// counters, so it is part of canonical dumps like FailoverEvent.
type IntegrityEvent struct {
	WireMismatches   int64 `json:"wire_mismatches,omitempty"`
	WireRepaired     int64 `json:"wire_repaired,omitempty"`
	AtRestMismatches int64 `json:"atrest_mismatches,omitempty"`
	Quarantined      int64 `json:"quarantined,omitempty"`
	Repaired         int64 `json:"repaired,omitempty"`
	Unrepaired       int64 `json:"unrepaired,omitempty"`
}

// FlightRank is one rank's bounded ring of round records. A nil
// *FlightRank records nothing.
type FlightRank struct {
	f       *Flight
	rank    int
	recs    []RoundRecord
	head    int // next slot to overwrite
	n       int // live records, <= len(recs)
	dropped int64
}

// Record appends one round record, overwriting the oldest once the ring is
// full. It never allocates.
func (fr *FlightRank) Record(rec RoundRecord) {
	if fr == nil || len(fr.recs) == 0 {
		return
	}
	fr.recs[fr.head] = rec
	fr.head++
	if fr.head == len(fr.recs) {
		fr.head = 0
	}
	if fr.n < len(fr.recs) {
		fr.n++
	} else {
		fr.dropped++
	}
}

// Len returns the number of live records (zero on nil).
func (fr *FlightRank) Len() int {
	if fr == nil {
		return 0
	}
	return fr.n
}

// Dropped returns how many records were overwritten after the ring filled.
func (fr *FlightRank) Dropped() int64 {
	if fr == nil {
		return 0
	}
	return fr.dropped
}

// at returns the i-th oldest live record.
func (fr *FlightRank) at(i int) RoundRecord {
	start := fr.head - fr.n
	if start < 0 {
		start += len(fr.recs)
	}
	j := start + i
	if j >= len(fr.recs) {
		j -= len(fr.recs)
	}
	return fr.recs[j]
}

// setContext records the realm layout of the current collective. The
// common steady-state case — persistent realms, identical layout every
// call — is recognized by comparing against the stored context, so no copy
// (and no allocation) happens after the first call.
func (f *Flight) setContext(naggs int, stripe, align int64, disps []int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.naggs == naggs && f.stripe == stripe && f.align == align && len(f.disps) == len(disps) {
		same := true
		for i, d := range disps {
			if f.disps[i] != d {
				same = false
				break
			}
		}
		if same {
			return
		}
	}
	f.naggs = naggs
	f.stripe = stripe
	f.align = align
	f.disps = append(f.disps[:0], disps...)
}

// setTopology records the node count of the world's installed node map, so
// a dump relates the inter/intra-node shuffle split to ranks-per-node.
// Compare-and-skip keeps steady-state calls lock-cheap and allocation-free.
func (f *Flight) setTopology(nodes int) {
	f.mu.Lock()
	if f.nodes != nodes {
		f.nodes = nodes
	}
	f.mu.Unlock()
}

// noteAbort records the first collective abort (later ones keep the first
// context, which is the round the failure actually surfaced at).
func (f *Flight) noteAbort(round int, class string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.abort == nil {
		f.abort = &AbortInfo{Round: round, Class: class}
	}
}

// Reset clears all rings and the shared context (nil-safe).
func (f *Flight) Reset() {
	if f == nil {
		return
	}
	f.mu.Lock()
	f.naggs, f.nodes, f.stripe, f.align = 0, 0, 0, 0
	f.disps = f.disps[:0]
	f.abort = nil
	f.dead, f.realms = f.dead[:0], 0
	f.critpath = nil
	f.mu.Unlock()
	for i := range f.ranks {
		fr := &f.ranks[i]
		fr.head, fr.n, fr.dropped = 0, 0, 0
	}
}

// AbortInfo is the abort context carried by a dump. Round is -1 for an abort
// agreed before round 0 (an unusable request, a corrupted access exchange).
type AbortInfo struct {
	Round int    `json:"round"`
	Class string `json:"class"`
}

// RoundSummary is one cross-rank row of a dump: the flight records of all
// ranks at the same ring position, with derived aggregate health numbers.
// Collectives are bulk-synchronous, so position i holds the same logical
// round on every rank (Round restarts per collective call, hence both the
// position Index and the in-collective Round are kept).
type RoundSummary struct {
	Index            int     `json:"index"`
	Round            int     `json:"round"`
	SendBytes        []int64 `json:"send_bytes"`
	RecvBytes        []int64 `json:"recv_bytes"`
	TotalBytes       int64   `json:"total_bytes"`
	Imbalance        float64 `json:"imbalance"`
	SieveSpanBytes   int64   `json:"sieve_span_bytes,omitempty"`
	SieveUsefulBytes int64   `json:"sieve_useful_bytes,omitempty"`
	Faults           int64   `json:"faults,omitempty"`
	Retries          int64   `json:"retries,omitempty"`
	Resumes          int64   `json:"resumes,omitempty"`
}

// Dump is the serializable snapshot of a Set: flight-recorder rounds with
// realm context, plus (full mode) merged counters. Canonical dumps hold
// only run-deterministic fields, so a fixed seed yields identical bytes.
type Dump struct {
	Schema     string           `json:"schema"`
	Ranks      int              `json:"ranks"`
	NAggs      int              `json:"naggs"`
	Nodes      int              `json:"nodes,omitempty"`
	StripeSize int64            `json:"stripe_size"`
	Align      int64            `json:"align,omitempty"`
	RealmDisps []int64          `json:"realm_disps,omitempty"`
	Abort      *AbortInfo       `json:"abort,omitempty"`
	Failover   *FailoverEvent   `json:"failover,omitempty"`
	Integrity  *IntegrityEvent  `json:"integrity,omitempty"`
	Dropped    int64            `json:"dropped_records,omitempty"`
	Rounds     []RoundSummary   `json:"rounds"`
	Counters   map[string]int64 `json:"counters,omitempty"`
	// CritPath carries the critical-path profiler summary; full dumps only
	// (its virtual-time fields are excluded from the canonical form).
	CritPath *CritPathSummary `json:"critpath,omitempty"`
}

// DumpSchema identifies the dump layout for downstream consumers.
const DumpSchema = "flexio-flight-v1"

// Dump assembles a snapshot. full=true additionally includes the
// scheduling-dependent critical-path summary and this set's merged
// counters (never the process-wide bufpool totals, which other worlds move
// too); pass false for the canonical (byte-deterministic for a fixed seed)
// form. The failover and integrity events are read from the merged
// counters.
func (s *Set) Dump(full bool) *Dump {
	d := &Dump{Schema: DumpSchema, Rounds: []RoundSummary{}}
	if s == nil {
		return d
	}
	m := s.Merged()
	if ie := (IntegrityEvent{
		WireMismatches:   m.Counter(CIntegWireMismatch),
		WireRepaired:     m.Counter(CIntegWireRepaired),
		AtRestMismatches: m.Counter(CIntegAtRestMismatch),
		Quarantined:      m.Counter(CIntegQuarantined),
		Repaired:         m.Counter(CIntegRepaired),
		Unrepaired:       m.Counter(CIntegUnrepaired),
	}); ie != (IntegrityEvent{}) {
		d.Integrity = &ie
	}
	replayed, skipped := m.Counter(CRoundsReplayed), m.Counter(CRoundsSkipped)
	failover := m.Counter(CFailovers) > 0 || replayed+skipped > 0
	f := s.flight
	f.mu.Lock()
	d.Ranks = len(f.ranks)
	d.NAggs = f.naggs
	d.Nodes = f.nodes
	d.StripeSize = f.stripe
	d.Align = f.align
	if len(f.disps) > 0 {
		d.RealmDisps = append([]int64(nil), f.disps...)
	}
	if f.abort != nil {
		abort := *f.abort
		d.Abort = &abort
	}
	if failover {
		d.Failover = &FailoverEvent{DeadRanks: append([]int(nil), f.dead...), Realms: f.realms,
			RoundsReplayed: replayed, RoundsSkipped: skipped}
	}
	if full && f.critpath != nil {
		cp := *f.critpath
		d.CritPath = &cp
	}
	f.mu.Unlock()

	depth := 0
	for i := range f.ranks {
		d.Dropped += f.ranks[i].Dropped()
		if n := f.ranks[i].Len(); n > depth {
			depth = n
		}
	}
	for i := 0; i < depth; i++ {
		rs := RoundSummary{
			Index:     i,
			SendBytes: make([]int64, len(f.ranks)),
			RecvBytes: make([]int64, len(f.ranks)),
		}
		var aggTotals []int64
		for r := range f.ranks {
			fr := &f.ranks[r]
			// Ranks with shallower rings (records already overwritten)
			// contribute zeros for the missing oldest rounds.
			j := i - (depth - fr.Len())
			if j < 0 {
				continue
			}
			rec := fr.at(j)
			rs.Round = rec.Round
			rs.SendBytes[r] = rec.SendBytes
			rs.RecvBytes[r] = rec.RecvBytes
			rs.TotalBytes += rec.SendBytes
			rs.SieveSpanBytes += rec.SieveSpanBytes
			rs.SieveUsefulBytes += rec.SieveUsefulBytes
			rs.Faults += rec.Faults
			rs.Retries += rec.Retries
			rs.Resumes += rec.Resumes
			if rec.Agg {
				aggTotals = append(aggTotals, rec.RecvBytes)
			}
		}
		rs.Imbalance = Imbalance(aggTotals)
		d.Rounds = append(d.Rounds, rs)
	}
	if full {
		d.Counters = map[string]int64{}
		for c := Counter(0); c < numCounters; c++ {
			if v := m.Counter(c); v != 0 && counterMeta[c].name != "" {
				d.Counters[counterMeta[c].name] = v
			}
		}
	}
	return d
}

// Imbalance is max/mean over the positive entries (the load-skew factor of
// the active aggregators); 0 with fewer than one active entry, 1 when
// perfectly balanced.
func Imbalance(loads []int64) float64 {
	var sum, max int64
	n := 0
	for _, v := range loads {
		if v <= 0 {
			continue
		}
		sum += v
		n++
		if v > max {
			max = v
		}
	}
	if n == 0 || sum == 0 {
		return 0
	}
	return float64(max) * float64(n) / float64(sum)
}

// WriteJSON writes the dump as indented JSON. encoding/json sorts map keys,
// so canonical dumps (Set.Dump(false)) are byte-deterministic for a fixed
// workload and chaos seed.
func (d *Dump) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}
