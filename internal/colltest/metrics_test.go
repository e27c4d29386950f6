package colltest

import (
	"bytes"
	"math"
	"testing"

	"flexio/internal/core"
	"flexio/internal/metrics"
	"flexio/internal/mpiio"
	"flexio/internal/sim"
	"flexio/internal/stats"
)

// TestMetricsMatchStats: the per-phase histogram totals must agree with the
// stats table's time buckets, the registry's phase sums, to 1e-9, relative:
// every charged interval feeds its phase sum and its histogram from one
// Registry.Charge (TestIntervalBooksPhaseAndSpan in internal/mpi pins the
// interval itself).
func TestMetricsMatchStats(t *testing.T) {
	wl := Workload{Ranks: 5, RegionSize: 64, RegionCount: 40, Spacing: 16, MemNoncontig: true, MemGap: 3}
	for _, coll := range []mpiio.Collective{core.ROMIO(core.Options{}), core.New(core.Options{Validate: true})} {
		w := NewWorld(sim.DefaultConfig(), wl)
		met := w.EnableMetrics()
		res, err := Write(w, wl, mpiio.Info{Collective: coll, CollBufSize: 1 << 10}, 1)
		if err != nil {
			t.Fatalf("%s: %v", coll.Name(), err)
		}
		merged := met.Merged()

		flat := stats.Merge(res.World.Recorders()...)
		for _, ph := range []metrics.Phase{metrics.PFlatten, metrics.PExchange, metrics.PComm, metrics.PIO, metrics.PCopy} {
			ref := flat.Time(ph.String()).Seconds()
			got := merged.Hist(ph.Hist()).Sum()
			if ref == 0 {
				if got != 0 {
					t.Errorf("%s: phase %q: histogram sum %v but stats bucket is zero", coll.Name(), ph, got)
				}
				continue
			}
			if diff := math.Abs(got - ref); diff/ref > 1e-9 {
				t.Errorf("%s: phase %q: histogram sum %v, stats bucket %v (>1e-9 apart)",
					coll.Name(), ph, got, ref)
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
		d := met.Dump(false)
		if len(d.Rounds) == 0 {
			t.Errorf("%s: empty flight dump", coll.Name())
		}

		// And the exposition must round-trip.
		var buf bytes.Buffer
		if err := met.WriteProm(&buf); err != nil {
			t.Fatalf("%s: WriteProm: %v", coll.Name(), err)
		}
		if _, err := metrics.ParseProm(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatalf("%s: exposition does not parse: %v", coll.Name(), err)
		}
	}
}

// TestResetClocksClearsEveryRecorder: after a read-back, whose harness
// seeds the file and then resets the world's clocks, every counter the
// tables and the exposition both name reads the same through stats.Merge
// and through the metrics set, and every phase sum equals its histogram's
// sum: a reset clears the one store, so nothing of the seeding survives in
// either view.
func TestResetClocksClearsEveryRecorder(t *testing.T) {
	wl := Workload{Ranks: 5, RegionSize: 64, RegionCount: 40, Spacing: 16, MemNoncontig: true, MemGap: 3}
	w := NewWorld(sim.DefaultConfig(), wl)
	met := w.EnableMetrics()
	res, err := ReadBack(w, wl, mpiio.Info{Collective: core.New(core.Options{}), CollBufSize: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	flat := stats.Merge(res.World.Recorders()...)
	merged := met.Merged()
	for c := metrics.Counter(0); int(c) < metrics.CounterCount(); c++ {
		table, expo := metrics.TableName(c), metrics.CounterName(c)
		if table == "" || expo == "" {
			continue
		}
		if st, met := flat.Counter(table), merged.Counter(c); st != met {
			t.Errorf("%s: stats %d, metrics %s %d", table, st, expo, met)
		}
	}
	for ph := metrics.Phase(0); int(ph) < metrics.PhaseCount(); ph++ {
		if sum, hist := flat.Time(ph.String()).Seconds(), merged.Hist(ph.Hist()).Sum(); sum != hist {
			t.Errorf("phase %s: sum %v, histogram sum %v", ph, sum, hist)
		}
	}
	if flat.Counter("io_calls") == 0 {
		t.Error("the read-back issued no I/O calls")
	}
}
