// Package analyze turns a metrics flight dump into a ranked list of
// actionable findings about collective-I/O health: aggregator load skew,
// realm/stripe misalignment, sieve read-amplification, RMW and
// false-sharing pressure, retry storms, cold caches and pool imbalance.
// It operates purely on the serializable metrics.Dump, so it can run
// in-process after a collective, over a -metrics-out file, or over a
// flight-recorder artifact from a failed CI run.
package analyze

import (
	"fmt"
	"sort"
	"strings"

	"flexio/internal/metrics"
)

// Severity levels, most severe first.
const (
	SevCritical = "critical"
	SevWarning  = "warning"
	SevInfo     = "info"
)

// Finding is one diagnosed condition with the metric values that
// triggered it and a hint on what to change.
type Finding struct {
	Severity string  `json:"severity"`
	Code     string  `json:"code"`
	Summary  string  `json:"summary"`
	Hint     string  `json:"hint"`
	Score    float64 `json:"score"`
}

func sevBase(sev string) float64 {
	switch sev {
	case SevCritical:
		return 300
	case SevWarning:
		return 200
	default:
		return 100
	}
}

// finding builds a Finding with a score derived from severity plus a
// bounded magnitude term, so ranking is severity-major, magnitude-minor.
func finding(sev, code, summary, hint string, magnitude float64) Finding {
	if magnitude < 0 {
		magnitude = 0
	}
	if magnitude > 99 {
		magnitude = 99
	}
	return Finding{Severity: sev, Code: code, Summary: summary, Hint: hint, Score: sevBase(sev) + magnitude}
}

// Analyze inspects a dump and returns findings ranked most severe first
// (ties broken by code for deterministic output). An empty slice means
// nothing looked unhealthy.
func Analyze(d *metrics.Dump) []Finding {
	if d == nil {
		return nil
	}
	var fs []Finding
	c := func(name string) int64 { return d.Counters[name] }

	// Collective abort: always the headline if present.
	if d.Abort != nil {
		where := fmt.Sprintf("in round %d", d.Abort.Round)
		if d.Abort.Round < 0 {
			where = "before round 0"
		}
		fs = append(fs, finding(SevCritical, "abort",
			fmt.Sprintf("collective aborted %s (error class %q)", where, d.Abort.Class),
			"inspect the flight-recorder rounds leading up to the abort; retries/faults columns show which rank's I/O path degraded first",
			50))
	}

	// Aggregator failover: a collective was resumed with realms reassigned
	// off dead ranks. The recovery itself worked (the resume completed and
	// produced this dump), so this is a warning about the cluster, not the
	// I/O stack — but the replay/skip split shows how much work the journal
	// saved.
	if fo := d.Failover; fo != nil {
		total := fo.RoundsReplayed + fo.RoundsSkipped
		detail := "no write journal was active, so the resume re-ran every round"
		if total > 0 {
			detail = fmt.Sprintf("the write journal skipped %d already-durable rounds and replayed %d", fo.RoundsSkipped, fo.RoundsReplayed)
		}
		fs = append(fs, finding(SevWarning, "failover",
			fmt.Sprintf("aggregator failover occurred: %d dead rank(s) %v demoted, realms reassigned over %d survivors; %s",
				len(fo.DeadRanks), fo.DeadRanks, fo.Realms, detail),
			"the ranks in the dead set crashed or were partitioned; check their hosts, and if failovers recur, journal every collective (core.Options.Journal) so resumes stay cheap",
			float64(len(fo.DeadRanks))*10+float64(fo.RoundsReplayed)))
	}

	// Straggler ranks: the collective deadline guard flagged peers that
	// fell behind a rendezvous by more than the configured deadline. Trips
	// without an abort mean the stragglers caught up — latent slowness.
	if trips := c("deadline_trips"); trips > 0 {
		sev := SevWarning
		if d.Abort != nil || d.Failover != nil {
			sev = SevInfo // the abort/failover finding is the headline
		}
		fs = append(fs, finding(sev, "straggler",
			fmt.Sprintf("deadline guard tripped %d time(s): some rank(s) lagged a collective rendezvous by more than the deadline", trips),
			"a slow or stalled rank holds every peer's collective hostage; profile the straggler's host, or raise the collective deadline if the skew is legitimate per-round I/O imbalance",
			float64(trips)))
	}

	// Aggregator load skew: sum each rank's aggregator-side receive bytes
	// across the recorded rounds and compare the heaviest against the
	// median active aggregator.
	if len(d.Rounds) > 0 && d.Ranks > 0 {
		totals := make([]int64, d.Ranks)
		for _, rs := range d.Rounds {
			for r, v := range rs.RecvBytes {
				totals[r] += v
			}
		}
		med := metrics.Median(totals)
		if med > 0 {
			maxRank, maxV := -1, int64(0)
			for r, v := range totals {
				if v > maxV {
					maxRank, maxV = r, v
				}
			}
			ratio := float64(maxV) / med
			imb := metrics.Imbalance(totals)
			if ratio >= 1.5 {
				sev := SevWarning
				if ratio >= 3 {
					sev = SevCritical
				}
				fs = append(fs, finding(sev, "agg-skew",
					fmt.Sprintf("aggregator %d carries %.1f× the median shuffle bytes (%d vs median %.0f; imbalance %.2f over %d rounds)",
						maxRank, ratio, maxV, med, imb, len(d.Rounds)),
					"realm assignment is skewed: use the load-balanced assigner (realm.LoadBalanced splits by request bytes, not extent) or a cyclic assigner so dense regions are spread across aggregators",
					ratio))
			}
		}
	}

	// Realm/stripe misalignment: file-domain boundaries that cross stripes
	// force shared locks and read-modify-write at both edges.
	if d.StripeSize > 0 && len(d.RealmDisps) > 0 {
		mis := 0
		var example int64 = -1
		for _, disp := range d.RealmDisps {
			if disp%d.StripeSize != 0 {
				mis++
				if example < 0 {
					example = disp
				}
			}
		}
		if mis > 0 {
			sev := SevWarning
			if mis == len(d.RealmDisps) {
				sev = SevCritical
			}
			fs = append(fs, finding(sev, "realm-misaligned",
				fmt.Sprintf("%d of %d realm displacements are not stripe-aligned (e.g. disp %d %% stripe %d = %d)",
					mis, len(d.RealmDisps), example, d.StripeSize, example%d.StripeSize),
				"set the aligner to the stripe size (core.Options.Align / striping-aware assigner) so each file realm maps to whole stripes and locks stay private",
				float64(mis)/float64(len(d.RealmDisps))*10))
		}
	}

	// Sieve read-amplification: bytes touched by sieve spans vs bytes the
	// application actually asked for.
	if span := c("sieve_span_bytes"); span > 0 {
		useful := c("sieve_useful_bytes")
		waste := 1 - float64(useful)/float64(span)
		if waste >= 0.5 {
			sev := SevWarning
			if waste >= 0.9 {
				sev = SevCritical
			}
			fs = append(fs, finding(sev, "sieve-waste",
				fmt.Sprintf("data sieving moves %.0f%% padding: %d span bytes for %d useful bytes (%.1f× amplification)",
					waste*100, span, useful, float64(span)/float64(useful)),
				"the access pattern is too sparse for sieving: shrink the sieve buffer, switch the independent path to list I/O, or use collective buffering so holes are filled by peers instead of the disk",
				waste*10))
		}
	}

	// RMW pressure: unaligned writes forcing page read-modify-write.
	if rmw := c("rmw_pages"); rmw > 0 {
		sev := SevInfo
		if rmw >= 64 {
			sev = SevWarning
		}
		fs = append(fs, finding(sev, "rmw-pressure",
			fmt.Sprintf("%d page read-modify-writes across %d I/O calls", rmw, c("io_calls")),
			"write boundaries are not page-aligned: align collective buffer splits (and realm edges) to the page size so servers can write whole pages",
			float64(rmw)/64))
	}

	// False sharing: stripe conflicts and lock revocations mean multiple
	// clients fight over the same stripe's lock.
	if conf, rev := c("stripe_conflicts"), c("lock_revokes"); conf+rev > 0 {
		sev := SevInfo
		if conf+rev > c("io_calls") {
			sev = SevWarning
		}
		fs = append(fs, finding(sev, "false-sharing",
			fmt.Sprintf("%d stripe conflicts and %d lock revocations (%d grants, %d cache flushes)",
				conf, rev, c("lock_grants"), c("cache_flushes")),
			"multiple clients touch the same stripe: stripe-align realm boundaries or reduce the number of writers per stripe (fewer, larger realms)",
			float64(conf+rev)/10))
	}

	// Inter-node-heavy shuffle: ranks share nodes, yet most shuffle bytes
	// still cross node boundaries — the traffic node-local realm placement
	// keeps on the cheap intra-node transport (pre-aggregation alone moves
	// the same bytes to the same remote aggregators).
	if inter, intra := c("shuffle_internode_bytes"), c("shuffle_intranode_bytes"); d.Nodes > 0 && d.Nodes < d.Ranks && inter > intra && inter > 0 {
		frac := float64(inter) / float64(inter+intra)
		fs = append(fs, finding(SevWarning, "internode-heavy",
			fmt.Sprintf("%.0f%% of shuffle bytes cross node boundaries (%d inter vs %d intra) despite %d ranks sharing %d nodes",
				frac*100, inter, intra, d.Ranks, d.Nodes),
			"place realms where their bytes are accessed (the topology-aware assigner realm.NodeLocal; its price is an O(P·M) access gather per rank) so the shuffle stays on the node; node-local pre-aggregation (core.Options.Preagg, for core.New or core.ROMIO) then leaves one sender per node but does not by itself keep a byte off the wire",
			frac*10))
	}

	// Data corruption: the checksummed datapath caught bytes that changed
	// in flight or at rest. Repaired corruption is a warning about the
	// fabric/media; anything unrepaired already aborted a collective.
	if wm, am := c("integrity_wire_mismatches"), c("integrity_atrest_mismatches"); wm+am > 0 {
		unrep := c("integrity_unrepaired")
		sev := SevWarning
		if unrep > 0 {
			sev = SevCritical
		}
		fs = append(fs, finding(sev, "corruption-detected",
			fmt.Sprintf("checksum mismatches detected: %d in-flight and %d at-rest (%d payloads re-requested, %d blocks repaired, %d unrepairable)",
				wm, am, c("integrity_wire_repaired"), c("integrity_repairs"), unrep),
			"in-flight mismatches point at the interconnect (bounded re-request absorbs them); at-rest mismatches point at storage media — size the retained-image ring to the working set so the reads that find them repair them inline",
			float64(wm+am)/10+float64(unrep)*10))
	}

	// Scrub backlog: blocks quarantined by at-rest mismatches that no ring
	// image or rewrite has healed yet. Every one is a read that will fail
	// with ErrDataIntegrity until a journal-replay rewrite (or an overwrite)
	// repaves it.
	if backlog := c("integrity_quarantined") - c("integrity_repairs"); backlog > 0 {
		sev := SevWarning
		if backlog >= 16 {
			sev = SevCritical
		}
		fs = append(fs, finding(sev, "scrub-backlog",
			fmt.Sprintf("%d stripe block(s) remain quarantined (%d quarantined, %d repaired)",
				backlog, c("integrity_quarantined"), c("integrity_repairs")),
			"quarantined blocks fail every read until repaired: rewrite them (a journal-replay resume or a block-aligned overwrite), and size the retained-image ring to the working set so inline repairs hit",
			float64(backlog)))
	}

	// Retry pressure: transient I/O failures being absorbed by the
	// retry/backoff machinery — or not (giveups).
	if give := c("io_giveups"); give > 0 {
		fs = append(fs, finding(SevCritical, "retry-giveup",
			fmt.Sprintf("%d I/O operations exhausted their retry budget (%d retries, %d partial resumes, %d faults injected)",
				give, c("io_retries"), c("io_resumes"), c("faults_injected")),
			"raise the retry limit or the backoff ceiling; a giveup aborts the whole collective via the error agreement protocol",
			float64(give)))
	} else if ret := c("io_retries"); ret > 0 {
		sev := SevInfo
		if io := c("io_calls"); io > 0 && float64(ret) >= 0.1*float64(io) {
			sev = SevWarning
		}
		fs = append(fs, finding(sev, "retry-pressure",
			fmt.Sprintf("%d retries and %d partial resumes over %d I/O calls (%d faults injected)",
				ret, c("io_resumes"), c("io_calls"), c("faults_injected")),
			"transient server faults are being absorbed; if this is steady-state, check server health before tuning the client",
			float64(ret)))
	}

	// Page-cache effectiveness on the server side.
	if hits, misses := c("page_cache_hits"), c("page_cache_misses"); hits+misses > 100 {
		rate := float64(hits) / float64(hits+misses)
		if rate < 0.25 {
			fs = append(fs, finding(SevInfo, "page-cache-cold",
				fmt.Sprintf("server page cache hit rate %.0f%% (%d hits / %d misses)", rate*100, hits, misses),
				"reads mostly miss the server cache: persistent file realms keep aggregators re-reading the same stripes and warm the cache across collective calls",
				(0.25-rate)*10))
		}
	}

	// Layout-memo effectiveness: repeated collectives should hit the
	// flattening/assignment memo.
	if mh, mm := c("memo_hits"), c("memo_misses"); mm > mh && mm > 4 {
		fs = append(fs, finding(SevInfo, "memo-cold",
			fmt.Sprintf("layout memo missed %d times vs %d hits", mm, mh),
			"each collective re-flattens its datatypes: with a stable view, persistent file realms (core.Options.Persistent) make repeated calls reuse the cached layout",
			float64(mm-mh)))
	}

	// Buffer-pool balance: gets without matching puts mean buffers are
	// held (or leaked) past the collective.
	if gets, puts := c("bufpool_gets"), c("bufpool_puts"); gets > 0 && gets != puts {
		fs = append(fs, finding(SevInfo, "pool-imbalance",
			fmt.Sprintf("buffer pool gets/puts imbalanced: %d gets, %d puts (%d news, %d drops)",
				gets, puts, c("bufpool_news"), c("bufpool_drops")),
			"buffers outstanding at dump time; persistent per-file buffers are expected to be held, but a growing gap across steps is a leak (build with -tags bufpooldebug to trace)",
			float64(gets-puts)))
	}

	sort.Slice(fs, func(i, j int) bool {
		if fs[i].Score != fs[j].Score {
			return fs[i].Score > fs[j].Score
		}
		return fs[i].Code < fs[j].Code
	})
	return fs
}

// FormatReport renders findings as a human-readable report. With no
// findings it reports a healthy run.
func FormatReport(fs []Finding) string {
	var b strings.Builder
	if len(fs) == 0 {
		b.WriteString("collective I/O health: OK — no findings\n")
		return b.String()
	}
	fmt.Fprintf(&b, "collective I/O health: %d finding(s)\n", len(fs))
	for i, f := range fs {
		fmt.Fprintf(&b, "%2d. [%s] %s: %s\n", i+1, strings.ToUpper(f.Severity), f.Code, f.Summary)
		fmt.Fprintf(&b, "    hint: %s\n", f.Hint)
	}
	return b.String()
}
