package colltest

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"flexio/internal/core"
	"flexio/internal/critpath"
	"flexio/internal/metrics"
	"flexio/internal/mpi"
	"flexio/internal/pfs"
	"flexio/internal/sim"
	"flexio/internal/trace"
)

// TestScaleTelemetrySmoke is the P=4096 acceptance check: with sampled
// tracing and per-node rollups on, telemetry memory is bounded by
// O(nodes + sampled ranks) rather than O(ranks), and the critical-path
// profile on the sampled ranks keeps near-full coverage while reporting —
// not hiding — its sampling blind spots.
//
// A full collective at this scale would dominate the test suite (Allgather
// alone materializes O(P^2) offset lists), so the smoke drives the real
// mpi/trace/metrics layers with a leader/member fan-in instead: every
// member sends one message to its node leader inside a traced span.
func TestScaleTelemetrySmoke(t *testing.T) {
	const (
		p       = 4096
		perNode = 64
		sampleK = 16
	)
	w := mpi.NewWorld(p, sim.DefaultConfig())
	w.SetNodeMap(mpi.BlockNodeMap(perNode))
	sink := w.EnableSampledTracing(0, trace.SamplePolicy{K: sampleK, Seed: 1})
	met, rollup := w.EnableMetricsRollup(8)
	comm := w.CommMatrix()

	leaders := p / perNode
	if got := sink.SampledCount(); got < leaders || got > leaders+sampleK {
		t.Fatalf("SampledCount = %d, want within [%d, %d]", got, leaders, leaders+sampleK)
	}
	// Trace memory: tracers exist only on sampled ranks.
	tracers := 0
	for r := 0; r < p; r++ {
		if sink.Tracer(r) != nil {
			tracers++
		}
	}
	if tracers != sink.SampledCount() {
		t.Fatalf("tracers = %d, SampledCount = %d", tracers, sink.SampledCount())
	}
	// Flight memory: rings only on node leaders and sampled ranks (the
	// leaders are always sampled, so the bound collapses to the sampled
	// set).
	if got := met.FlightRingRanks(); got != sink.SampledCount() {
		t.Fatalf("flight rings on %d rank(s), want %d (leaders+sampled)", got, sink.SampledCount())
	}
	if rollup.Nodes() != leaders {
		t.Fatalf("rollup nodes = %d, want %d", rollup.Nodes(), leaders)
	}

	buf := make([]byte, 64)
	w.Run(func(pr *mpi.Proc) {
		lead := pr.Rank() - pr.Rank()%perNode
		pr.Trace.Begin(pr.Clock(), "work")
		if pr.Rank() == lead {
			for i := 0; i < perNode-1; i++ {
				pr.Recv(mpi.Any, 0)
			}
		} else {
			pr.Send(lead, 0, buf)
		}
		pr.Trace.End(pr.Clock())
	})

	// The fan-in is all intra-node: every message sits on its member's one
	// cell, the edge to its leader, so the rows hold p-leaders cells in all.
	for r := 0; r < p; r++ {
		if lead := r - r%perNode; r != lead && comm.Cell(r, lead).Msgs != 1 {
			t.Fatalf("cell %d->%d = %+v, want one message", r, lead, comm.Cell(r, lead))
		}
	}
	if got := comm.TotalMsgs(); got != int64(p-leaders) {
		t.Fatalf("TotalMsgs = %d, want %d member->leader edges", got, p-leaders)
	}
	if got := comm.TotalBytes(); got != int64(64*(p-leaders)) {
		t.Fatalf("TotalBytes = %d, want %d", got, 64*(p-leaders))
	}

	// Rollup exposition is O(nodes): far smaller than the per-rank
	// exposition of the same registries.
	var ru, cw countWriter
	if err := rollup.WriteProm(&ru); err != nil {
		t.Fatal(err)
	}
	if err := met.WriteProm(&cw); err != nil {
		t.Fatal(err)
	}
	if ru.n == 0 || ru.n*4 > cw.n {
		t.Fatalf("rollup exposition %d B not O(nodes) vs per-rank %d B", ru.n, cw.n)
	}

	// Critical path on the sampled ranks: near-full coverage, honest
	// blind-spot accounting for the unsampled senders.
	rep := critpath.Analyze(sink)
	if rep.SampledRanks != sink.SampledCount() {
		t.Fatalf("report SampledRanks = %d, want %d", rep.SampledRanks, sink.SampledCount())
	}
	if cov := rep.Coverage(); cov < 0.99 {
		t.Fatalf("critpath coverage on sampled ranks = %v, want >= 0.99", cov)
	}
	if rep.BlindSteps == 0 {
		t.Fatal("leader receives from unsampled members must register blind steps")
	}
	if frac := rep.BlindSpotFrac(); frac <= 0 || frac > 1 {
		t.Fatalf("BlindSpotFrac = %v, want in (0, 1]", frac)
	}
}

// countWriter counts the bytes of an exposition without holding it in
// memory.
type countWriter struct{ n int }

func (c *countWriter) Write(b []byte) (int, error) {
	c.n += len(b)
	return len(b), nil
}

// telemetryPattern is wide enough (32 ranks, 8 per node) that sampling and
// the per-node rollup have something to cut.
var telemetryPattern = Workload{Ranks: 32, RegionSize: 256, RegionCount: 64, Spacing: 128,
	MemNoncontig: true, MemGap: 64}

// TestTelemetryColumnsDeterministic holds the scale-ready telemetry on both
// engines, writing and reading, at 32 ranks on 4 nodes. Sampled tracing
// keeps the 4 aggregators, the 4 node leaders (rank 0 is both) and 4
// reservoir members: exactly 11 ranks, the same ones in every session.
// The per-node rollup's exposition is O(nodes): every counter and gauge
// family of the schema has exactly one series per node, and no series names
// a rank. (The buffer-pool counters are process-wide: one series each.)
func TestTelemetryColumnsDeterministic(t *testing.T) {
	const nodes, perNode = 4, 8
	for _, row := range []steadyRow{
		{name: "core/write", opts: core.Options{Persistent: true}, write: true},
		{name: "core/read", opts: core.Options{Persistent: true}},
		{name: "twophase/write", romio: true, write: true},
		{name: "twophase/read", romio: true},
	} {
		t.Run(row.name, func(t *testing.T) {
			run := func() (*trace.Sink, *metrics.Rollup) {
				w := mpi.NewWorld(telemetryPattern.Ranks, sim.DefaultConfig())
				w.SetNodeMap(mpi.BlockNodeMap(perNode))
				info := row.info()
				always := make([]int, info.CbNodes)
				for a := range always {
					always[a] = a
				}
				sink := w.EnableSampledTracing(0, trace.SamplePolicy{Always: always, K: 4, Seed: 1})
				_, rollup := w.EnableMetricsRollup(0)
				s, err := NewSession(w, pfs.NewFileSystem(w.Config()), telemetryPattern, info, row.write)
				if err != nil {
					t.Fatal(err)
				}
				if err := s.Step(); err != nil {
					t.Fatal(err)
				}
				return sink, rollup
			}
			sink, rollup := run()
			again, _ := run()
			for r := 0; r < telemetryPattern.Ranks; r++ {
				if sink.Sampled(r) != again.Sampled(r) {
					t.Errorf("rank %d: sampled %t in one session, %t in the other", r, sink.Sampled(r), again.Sampled(r))
				}
			}
			if n := sink.SampledCount(); n != 11 {
				t.Errorf("%d sampled ranks, want 11", n)
			}
			if rollup.Nodes() != nodes {
				t.Fatalf("rollup folds %d nodes, want %d", rollup.Nodes(), nodes)
			}
			var expo bytes.Buffer
			if err := rollup.WriteProm(&expo); err != nil {
				t.Fatal(err)
			}
			if err := checkPerNode(expo.String(), nodes); err != nil {
				t.Error(err)
			}
		})
	}
}

// checkPerNode checks that every counter and gauge family of a rollup
// exposition has one series per node, node="0" to node="nodes-1" in order,
// and that no series carries a rank label. Only the process-wide buffer-pool
// counters have a single unlabelled series.
func checkPerNode(expo string, nodes int) error {
	kind, next, families := "", 0, 0
	for _, line := range strings.Split(strings.TrimSpace(expo), "\n") {
		if strings.Contains(line, "rank=") {
			return fmt.Errorf("rollup series names a rank: %s", line)
		}
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			if (kind == "counter" || kind == "gauge") && next != 0 && next != nodes {
				return fmt.Errorf("a %s family before %s has %d node series, want %d", kind, f[2], next, nodes)
			}
			kind, next = f[3], 0
			continue
		}
		if strings.HasPrefix(line, "#") || (kind != "counter" && kind != "gauge") {
			continue
		}
		series := strings.Fields(line)[0]
		if !strings.Contains(series, "{") {
			if !strings.HasPrefix(series, "flexio_bufpool_") {
				return fmt.Errorf("series %s has no node label", series)
			}
			continue
		}
		if want := fmt.Sprintf(`{node="%d"}`, next); !strings.HasSuffix(series, want) {
			return fmt.Errorf("series %s, want label %s", series, want)
		}
		if next == 0 {
			families++
		}
		next++
	}
	if (kind == "counter" || kind == "gauge") && next != 0 && next != nodes {
		return fmt.Errorf("the last %s family has %d node series, want %d", kind, next, nodes)
	}
	if families == 0 {
		return fmt.Errorf("rollup exposition has no per-node family")
	}
	return nil
}
