package main

import (
	"flexio/internal/critpath"
	"flexio/internal/metrics"
	"flexio/internal/stats"
)

// metricDef names one metric the benchmark emits. BENCHMARK.json carries
// name, unit and better (and bound for end-to-end metrics); moves is the
// prediction written down before measuring: which end-to-end metric the
// layer metric should move, and where.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	moves  string
}

var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower", ""},
	{"virt_mb_per_s", "MB/s", "higher", ""},
	{"host_us_per_op", "us", "lower", ""},
	{"host_cpu_us_per_op", "us", "lower", ""},
	{"allocs_per_op", "count", "lower", ""},
	{"alloc_kb_per_op", "KiB", "lower", ""},
	{"live_heap_mb", "MiB", "lower", ""},
}

// Predictions shared by several layer metrics.
const (
	movesPfsVirt   = "virt_mb_per_s on sieve-write, romio-write, ckpt-write; not on net-shuffle-write"
	movesPfsHost   = "host_us_per_op, host_cpu_us_per_op on sieve-write, romio-write"
	movesPfsRead   = "host_us_per_op on sieve-read"
	movesLayout    = "host_us_per_op, allocs_per_op on ckpt-write, and virt_mb_per_s there via core.virt_flatten_ms; not on sieve-* (memo hits)"
	movesRequest   = "host_us_per_op, virt_mb_per_s on tiny-enum-write"
	movesNet       = "virt_mb_per_s, host_us_per_op on net-shuffle-write"
	movesIntegrity = "host_us_per_op, host_cpu_us_per_op on integrity-write only, and its virt_mb_per_s gap to sieve-write"
	movesPool      = "allocs_per_op, alloc_kb_per_op on romio-write, tiny-enum-write"
	movesNothing   = "no untraced metric"
	movesTail      = "host_us_per_op where the tail widens before the median moves"
)

// recorderDefs are read per workload from the layers' public recorders
// after the untraced repeats. Phase times are mean per-rank virtual
// milliseconds per op.
var recorderDefs = []metricDef{
	{"core.virt_flatten_ms", "ms", "lower", movesLayout},
	{"core.virt_exchange_ms", "ms", "lower", movesRequest},
	{"core.virt_comm_ms", "ms", "lower", movesNet},
	{"core.virt_io_ms", "ms", "lower", movesPfsVirt},
	{"core.virt_copy_ms", "ms", "lower", "virt_mb_per_s where pack/unpack is on the path: sieve-read, net-shuffle-write"},
	{"core.virt_preagg_ms", "ms", "lower", "nothing today: no workload turns pre-aggregation on"},
	{"core.pairs_per_op", "count", "lower", movesLayout},
	{"core.req_bytes_per_op", "B", "lower", movesRequest},
	{"core.rounds_per_op", "count", "lower", "virt_mb_per_s everywhere: each round is one exchange and one buffer access"},
	{"core.memo_hit_ratio", "ratio", "higher", movesLayout},
	{"core.agg_imbalance", "ratio", "lower", "virt_mb_per_s on ckpt-write, where aligned realms leave aggregators idle"},
	{"mpi.comm_bytes_per_op", "B", "lower", movesNet},
	{"mpi.msgs_per_op", "count", "lower", movesNet},
	{"mpi.shuffle_internode_frac", "ratio", "lower", movesNet},
	{"pfs.io_calls_per_op", "count", "lower", movesPfsVirt},
	{"pfs.io_bytes_per_op", "B", "lower", movesPfsVirt},
	{"pfs.sieve_amp", "ratio", "lower", movesPfsVirt},
	{"pfs.rmw_pages_per_op", "count", "lower", movesPfsVirt},
	{"pfs.lock_grants_per_op", "count", "lower", movesPfsVirt},
	{"pfs.lock_revokes_per_op", "count", "lower", movesPfsVirt},
	{"pfs.stripe_conflicts_per_op", "count", "lower", movesPfsVirt},
	{"pfs.cache_flushes_per_op", "count", "lower", movesPfsVirt},
	{"pfs.page_cache_hit_ratio", "ratio", "higher", "virt_mb_per_s on sieve-read"},
	{"pfs.virt_ost_service_ms", "ms", "lower", movesPfsVirt},
	{"pfs.ost_busy_imbalance", "ratio", "lower", movesPfsVirt},
	{"bufpool.gets_per_op", "count", "lower", movesPool},
	{"bufpool.hit_ratio", "ratio", "higher", movesPool},
	{"op.host_p95_us", "us", "lower", movesTail},
	{"op.host_p99_us", "us", "lower", movesTail},
	{"op.virt_spread", "ratio", "lower", "the noise floor of virt_mb_per_s: 0 on sieve-read and net-shuffle-write"},
}

// tracedDefs come from one extra repeat with World.EnableTracing.
var tracedDefs = []metricDef{
	{"trace.host_overhead_frac", "ratio", "lower", movesNothing},
	{"trace.alloc_overhead_per_op", "count", "lower", movesNothing},
	{"trace.events_per_op", "count", "lower", movesNothing},
	{"critpath.analyze_ms", "ms", "lower", movesNothing},
	{"critpath.coverage", "ratio", "higher", movesNothing},
	{"critpath.share_io", "ratio", "lower", movesPfsVirt},
	{"critpath.share_comm", "ratio", "lower", movesNet},
	{"critpath.share_exchange", "ratio", "lower", movesRequest},
	{"critpath.share_flatten", "ratio", "lower", movesLayout},
	{"critpath.share_copy", "ratio", "lower", "virt_mb_per_s where pack/unpack is on the path"},
	{"critpath.share_blocked", "ratio", "lower", movesNet},
	{"critpath.share_other", "ratio", "lower", "nothing: what the named shares leave of the window"},
}

// perLayerDefs is every per-layer metric in the order BENCHMARK.json lists
// them.
func perLayerDefs() []metricDef {
	out := append([]metricDef(nil), recorderDefs...)
	for _, t := range isolated {
		out = append(out, t.metricDef)
	}
	return append(out, tracedDefs...)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// maxOverMean is the load-skew factor of the positive entries (1 = even).
func maxOverMean(v []float64) float64 {
	var sum, max float64
	n := 0
	for _, x := range v {
		if x <= 0 {
			continue
		}
		sum += x
		n++
		if x > max {
			max = x
		}
	}
	if n == 0 {
		return 0
	}
	return max * float64(n) / sum
}

// recorderMetrics derives recorderDefs from the untraced repeats of one
// workload.
func recorderMetrics(reps []*repeatResult, ranks int, userBytes int64) map[string]float64 {
	var work counters
	var ops float64
	var host, virt []float64
	for _, r := range reps {
		work.addDelta(counters{}, r.work)
		ops += float64(len(r.opNS))
		host = append(host, opMicros(r.opNS)...)
		virt = append(virt, r.endToEnd(userBytes)["virt_mb_per_s"])
	}
	sc := work.scalar
	phaseMS := func(ph string) float64 { return sc["t."+ph] / float64(ranks) / ops * 1e3 }
	reg := func(c metrics.Counter) float64 { return sc["m."+metrics.CounterName(c)] }
	perOp := func(v float64) float64 { return v / ops }
	lo, hi := virt[0], virt[0]
	for _, v := range virt {
		lo, hi = min(lo, v), max(hi, v)
	}
	return map[string]float64{
		"core.virt_flatten_ms":  phaseMS(stats.PFlatten),
		"core.virt_exchange_ms": phaseMS(stats.PExchange),
		"core.virt_comm_ms":     phaseMS(stats.PComm),
		"core.virt_io_ms":       phaseMS(stats.PIO),
		"core.virt_copy_ms":     phaseMS(stats.PCopy),
		"core.virt_preagg_ms":   phaseMS(stats.PPreagg),
		"core.pairs_per_op":     perOp(sc["n."+stats.CPairsProcessed]),
		"core.req_bytes_per_op": perOp(sc["n."+stats.CReqBytes]),
		// Every rank counts the rounds it took part in.
		"core.rounds_per_op":          perOp(reg(metrics.CRounds)) / float64(ranks),
		"core.memo_hit_ratio":         ratio(reg(metrics.CMemoHits), reg(metrics.CMemoHits)+reg(metrics.CMemoMisses)),
		"core.agg_imbalance":          maxOverMean(work.aggLoad),
		"mpi.comm_bytes_per_op":       perOp(sc["comm.bytes"]),
		"mpi.msgs_per_op":             perOp(sc["comm.msgs"]),
		"mpi.shuffle_internode_frac":  ratio(sc["comm.inter"], sc["comm.inter"]+sc["comm.intra"]),
		"pfs.io_calls_per_op":         perOp(reg(metrics.CIOCalls)),
		"pfs.io_bytes_per_op":         perOp(reg(metrics.CIOBytes)),
		"pfs.sieve_amp":               ratio(reg(metrics.CSieveSpanBytes), reg(metrics.CSieveUsefulBytes)),
		"pfs.rmw_pages_per_op":        perOp(reg(metrics.CRMWPages)),
		"pfs.lock_grants_per_op":      perOp(reg(metrics.CLockGrants)),
		"pfs.lock_revokes_per_op":     perOp(reg(metrics.CLockRevokes)),
		"pfs.stripe_conflicts_per_op": perOp(reg(metrics.CStripeConflicts)),
		"pfs.cache_flushes_per_op":    perOp(reg(metrics.CCacheFlushes)),
		"pfs.page_cache_hit_ratio": ratio(reg(metrics.CPageCacheHits),
			reg(metrics.CPageCacheHits)+reg(metrics.CPageCacheMisses)),
		"pfs.virt_ost_service_ms": phaseMS(stats.PServe),
		"pfs.ost_busy_imbalance":  maxOverMean(work.ostBusy),
		"bufpool.gets_per_op":     perOp(sc["pool.gets"]),
		"bufpool.hit_ratio":       ratio(sc["pool.gets"]-sc["pool.news"], sc["pool.gets"]),
		"op.host_p95_us":          quantile(host, 0.95),
		"op.host_p99_us":          quantile(host, 0.99),
		"op.virt_spread":          ratio(hi-lo, median(virt)),
	}
}

// tracedMetrics derives tracedDefs from the traced repeat and the untraced
// end-to-end medians it is compared with.
func tracedMetrics(tr *repeatResult, untraced map[string]float64, userBytes int64) map[string]float64 {
	e2e := tr.endToEnd(userBytes)
	rep := tr.report
	share := make(map[string]float64)
	for _, e := range rep.Entries {
		share[e.Phase] += e.Sec
	}
	part := func(phases ...string) float64 {
		var sec float64
		for _, ph := range phases {
			sec += share[ph]
		}
		return ratio(sec, rep.WindowSec)
	}
	out := map[string]float64{
		"trace.host_overhead_frac":    e2e["host_us_per_op"]/untraced["host_us_per_op"] - 1,
		"trace.alloc_overhead_per_op": e2e["allocs_per_op"] - untraced["allocs_per_op"],
		"trace.events_per_op":         float64(tr.events) / float64(len(tr.opNS)),
		"critpath.analyze_ms":         float64(tr.analyzeNS) / 1e6,
		"critpath.coverage":           rep.Coverage(),
		"critpath.share_io":           part(stats.PIO),
		"critpath.share_comm":         part(stats.PComm),
		"critpath.share_exchange":     part(stats.PExchange),
		"critpath.share_flatten":      part(stats.PFlatten),
		"critpath.share_copy":         part(stats.PCopy),
		"critpath.share_blocked":      part(critpath.PhaseTransfer, critpath.PhaseRendezvous),
	}
	named := 0.0
	for _, name := range []string{"io", "comm", "exchange", "flatten", "copy", "blocked"} {
		named += out["critpath.share_"+name]
	}
	// Every other phase, idle time and whatever a truncated trace left
	// unattributed, so the shares always sum to one.
	out["critpath.share_other"] = max(0, 1-named)
	return out
}
