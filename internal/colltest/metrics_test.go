package colltest

import (
	"bytes"
	"testing"

	"flexio/internal/core"
	"flexio/internal/metrics"
	"flexio/internal/mpiio"
	"flexio/internal/sim"
	"flexio/internal/stats"
)

// TestMetricsMatchStatsAndTrace: the registry's per-phase histogram totals
// must agree with the stats time buckets (exactly — both are fed by the
// same ChargeTime calls) and with the trace span sums to <1% (the bar the
// trace subsystem already meets against stats). Counters recorded in both
// systems must agree exactly.
func TestMetricsMatchStatsAndTrace(t *testing.T) {
	wl := Workload{Ranks: 5, RegionSize: 64, RegionCount: 40, Spacing: 16, MemNoncontig: true, MemGap: 3}
	for _, coll := range []mpiio.Collective{core.ROMIO(core.Options{}), core.New(core.Options{Validate: true})} {
		res, err := RunWrite(sim.DefaultConfig(), wl, mpiio.Info{Collective: coll, CollBufSize: 1 << 10})
		if err != nil {
			t.Fatalf("%s: %v", coll.Name(), err)
		}
		if res.Metrics == nil {
			t.Fatalf("%s: harness did not enable metrics", coll.Name())
		}
		flat := stats.Merge(res.World.Recorders()...)
		merged := res.Metrics.Merged()

		// Metrics vs stats: identical call sites, so the sums must agree
		// to floating-point noise across every phase including PServe and
		// PBackoff.
		for phase, h := range metrics.PhaseHists() {
			ref := flat.Time(phase).Seconds()
			got := merged.Hist(h).Sum()
			diff := got - ref
			if diff < 0 {
				diff = -diff
			}
			if ref == 0 {
				if got != 0 {
					t.Errorf("%s: phase %q: metrics sum %v but stats bucket is zero", coll.Name(), phase, got)
				}
				continue
			}
			if diff/ref > 1e-9 {
				t.Errorf("%s: phase %q: metrics sum %v, stats bucket %v", coll.Name(), phase, got, ref)
			}
		}

		// Metrics vs trace: the same <1% bar the trace/stats check uses,
		// over the phases the breakdown covers.
		bd := res.Trace.Breakdown()
		for _, phase := range []string{stats.PFlatten, stats.PExchange, stats.PComm, stats.PIO, stats.PCopy} {
			ref := bd.PhaseTotal(phase).Seconds()
			got := merged.Hist(metrics.PhaseHists()[phase]).Sum()
			diff := got - ref
			if diff < 0 {
				diff = -diff
			}
			if ref == 0 {
				continue
			}
			if diff/ref > 0.01 {
				t.Errorf("%s: phase %q: metrics sum %v, trace spans %v (>1%% apart)",
					coll.Name(), phase, got, ref)
			}
		}

		// Counters recorded by both systems must agree exactly.
		pairs := []struct {
			name string
			st   string
			met  metrics.Counter
		}{
			{"io calls", stats.CIOCalls, metrics.CIOCalls},
			{"io bytes", stats.CBytesIO, metrics.CIOBytes},
			{"comm bytes", stats.CBytesComm, metrics.CCommBytes},
			{"rmw pages", stats.CRMWPages, metrics.CRMWPages},
			{"stripe conflicts", stats.CStripeConflicts, metrics.CStripeConflicts},
			{"lock grants", stats.CLockGrants, metrics.CLockGrants},
			{"lock revokes", stats.CLockRevokes, metrics.CLockRevokes},
			{"cache flushes", stats.CCacheFlushes, metrics.CCacheFlushes},
			{"faults", stats.CFaultsInjected, metrics.CFaults},
			{"retries", stats.CRetries, metrics.CRetries},
			{"resumes", stats.CPartialResumes, metrics.CResumes},
			{"giveups", stats.CGiveups, metrics.CGiveups},
		}
		for _, pr := range pairs {
			if st, met := flat.Counter(pr.st), merged.Counter(pr.met); st != met {
				t.Errorf("%s: %s: stats %d, metrics %d", coll.Name(), pr.name, st, met)
			}
		}

		// The engines shuffled every user byte somewhere; the flight
		// recorder must have seen rounds with traffic.
		if merged.Counter(metrics.CRounds) == 0 {
			t.Errorf("%s: no rounds recorded", coll.Name())
		}
		if merged.Counter(metrics.CShuffleRecvBytes) == 0 {
			t.Errorf("%s: no aggregator shuffle bytes recorded", coll.Name())
		}
		if merged.Counter(metrics.CRealmsAssigned) == 0 {
			t.Errorf("%s: no realms recorded", coll.Name())
		}
		d := res.Metrics.Dump(false)
		if len(d.Rounds) == 0 {
			t.Errorf("%s: empty flight dump", coll.Name())
		}

		// And the exposition must round-trip.
		var buf bytes.Buffer
		if err := res.Metrics.WriteProm(&buf); err != nil {
			t.Fatalf("%s: WriteProm: %v", coll.Name(), err)
		}
		if _, err := metrics.ParseProm(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatalf("%s: exposition does not parse: %v", coll.Name(), err)
		}
	}
}
