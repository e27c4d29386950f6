package colltest

import (
	"bytes"
	"fmt"
	"testing"

	"flexio/internal/core"
	"flexio/internal/critpath"
	"flexio/internal/metrics"
	"flexio/internal/mpi"
	"flexio/internal/mpiio"
	"flexio/internal/pfs"
	"flexio/internal/sim"
)

// steadyPattern is the steady-state matrix's workload: interleaved regions,
// noncontiguous memory, a few two-phase rounds per call at 64 KiB.
var steadyPattern = Workload{Ranks: 8, RegionSize: 512, RegionCount: 256, Spacing: 256,
	MemNoncontig: true, MemGap: 64}

// steadyNodeRanks is the block node map the matrix runs under: every two
// consecutive ranks share a node, so shuffle traffic splits into inter- and
// intra-node bytes.
const steadyNodeRanks = 2

// steadyRow is one row of the steady-state matrix: an engine, its options
// and a direction.
type steadyRow struct {
	name  string
	romio bool
	opts  core.Options
	write bool
}

// steadyMatrix is both engines, both exchange strategies with and without
// persistent file realms, both directions.
func steadyMatrix() []steadyRow {
	var rows []steadyRow
	for _, pfr := range []bool{false, true} {
		for _, comm := range []core.CommStrategy{core.Nonblocking, core.Alltoallw} {
			for _, write := range []bool{true, false} {
				prefix := "core"
				if pfr {
					prefix = "core-pfr"
				}
				rows = append(rows, steadyRow{name: fmt.Sprintf("%s/%s/%s", prefix, comm, dir(write)),
					opts: core.Options{Comm: comm, Persistent: pfr}, write: write})
			}
		}
	}
	for _, write := range []bool{true, false} {
		rows = append(rows, steadyRow{name: "twophase/" + dir(write), romio: true, write: write})
	}
	return rows
}

func dir(write bool) string {
	if write {
		return "write"
	}
	return "read"
}

func steadyRowNamed(t testing.TB, name string) steadyRow {
	t.Helper()
	for _, row := range steadyMatrix() {
		if row.name == name {
			return row
		}
	}
	t.Fatalf("no steady-state row %q", name)
	return steadyRow{}
}

// info is the row's hints with a fresh engine: four aggregators, 64 KiB
// rounds.
func (row steadyRow) info() mpiio.Info {
	coll := mpiio.Collective(core.New(row.opts))
	if row.romio {
		coll = core.ROMIO(row.opts)
	}
	return mpiio.Info{Collective: coll, CbNodes: 4, CollBufSize: 64 << 10}
}

// arm configures a fresh world and file system before a session opens.
type arm func(w *mpi.World, fs *pfs.FileSystem)

func metered(w *mpi.World, _ *pfs.FileSystem) { w.EnableMetrics() }

func checksummed(w *mpi.World, fs *pfs.FileSystem) {
	w.EnableIntegrity(10)
	fs.EnableIntegrity(10, 0)
}

func traced(w *mpi.World, _ *pfs.FileSystem) { w.EnableTracing(0) }

// open builds a world of steadyPattern under the matrix's node map, applies
// arms in order and opens a warm session of the row on it.
func (row steadyRow) open(t testing.TB, arms ...arm) (*mpi.World, *Session) {
	t.Helper()
	cfg := sim.DefaultConfig()
	w, fs := mpi.NewWorld(steadyPattern.Ranks, cfg), pfs.NewFileSystem(cfg)
	w.SetNodeMap(mpi.BlockNodeMap(steadyNodeRanks))
	for _, a := range arms {
		a(w, fs)
	}
	s, err := NewSession(w, fs, steadyPattern, row.info(), row.write)
	if err != nil {
		t.Fatal(err)
	}
	return w, s
}

// callAllocs is what one steady-state call of s allocates, over 20 calls.
func callAllocs(t testing.TB, s *Session) float64 {
	t.Helper()
	return testing.AllocsPerRun(20, func() {
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestSteadyStateAllocs holds every row of the matrix to no allocation per
// call, with checksums off and armed: the ranks' goroutines, the vector
// collectives' tables and every engine buffer outlive the call, and hashing
// reuses the engines' buffers, so integrity buys no allocation. The race
// detector's own allocations void the count, so it skips under -race.
func TestSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	for _, row := range steadyMatrix() {
		for _, integrity := range []bool{false, true} {
			name, arms := row.name, []arm{metered}
			if integrity {
				name, arms = "integrity/"+row.name, []arm{checksummed, metered}
			}
			t.Run(name, func(t *testing.T) {
				_, s := row.open(t, arms...)
				got := callAllocs(t, s)
				t.Logf("%.0f allocs per call", got)
				if got != 0 {
					t.Errorf("%.0f allocs per call, want 0", got)
				}
				if err := s.Verify(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// virtPerCall is the mean virtual time of one steady-state call of the row.
// A read's is the same on every call of every session, so four calls of one
// session give it. A write's moves with the order the host runs ranks in:
// they reach the shared OST queues, stripe locks and server page cache in
// that order, and one call of a row costs anywhere in a band of about ±15%
// around its mean. Arming checksums changes the order, so a floor or a
// single call compares two draws from that band (floors over three sessions
// of four calls put a checksummed write at 0.92 to 1.06 of its clean twin).
// The mean over four sessions of sixteen calls puts the ratio within about
// 1.5% of its mean, which sits at 0.97 to 1.00.
func virtPerCall(t *testing.T, row steadyRow, arms ...arm) float64 {
	sessions, calls := 1, 4
	if row.write {
		sessions, calls = 4, 16
	}
	var sum float64
	for i := 0; i < sessions; i++ {
		w, s := row.open(t, arms...)
		start := w.MaxClock()
		for j := 0; j < calls; j++ {
			if err := s.Step(); err != nil {
				t.Fatal(err)
			}
		}
		sum += (w.MaxClock() - start).Seconds()
	}
	return sum / float64(sessions*calls)
}

// TestIntegrityVirtualOverhead holds the checksummed datapath (wire and
// at-rest checksums) to at most 5% more virtual time per call than its
// clean twin, measured in the same process, on every row of the matrix. A
// read row is deterministic, so it must also cost more than its twin: the
// checksum passes are charged. A write row takes 128 calls, which the race
// detector makes last about a minute, so write rows run in the regular pass
// only.
func TestIntegrityVirtualOverhead(t *testing.T) {
	for _, row := range steadyMatrix() {
		t.Run(row.name, func(t *testing.T) {
			if row.write && raceEnabled {
				t.Skip("128 calls under the race detector; the regular pass holds this row")
			}
			clean := virtPerCall(t, row, metered)
			armed := virtPerCall(t, row, checksummed, metered)
			ratio := armed / clean
			t.Logf("%.6f s per call checksummed, %.6f clean: %.4f", armed, clean, ratio)
			if ratio > 1.05 || (!row.write && ratio <= 1) {
				t.Errorf("checksummed call costs %.4f of its clean twin, budget 1.05", ratio)
			}
		})
	}
}

// TestEdgeRecordingZeroOverhead guards the always-on causal accounting:
// every send bumps an edge-id counter, classifies shuffle bytes against
// the node map, updates the comm matrix and issues (nil-safe) trace
// instants, and none of it may cost the steady-state PFR write an
// allocation. (An enabled event ring grows its buffer lazily by
// design and is exempt; the disabled-tracer path is what is held here.)
func TestEdgeRecordingZeroOverhead(t *testing.T) {
	row := steadyRowNamed(t, "core-pfr/nonblocking/write")
	w, s := row.open(t, metered)
	if got := callAllocs(t, s); got != 0 && !raceEnabled {
		t.Errorf("edge recording regressed the steady-state PFR path: %.1f allocs per call, want 0", got)
	}
	comm := w.CommMatrix()
	if comm.TotalBytes() == 0 {
		t.Fatal("session recorded no comm-matrix traffic")
	}
	if inter, intra := comm.NodeSplit(w.NodeMap()); inter == 0 || intra == 0 {
		t.Errorf("node split (%d, %d) should see traffic on both sides of the block map", inter, intra)
	}
}

// interNodeFrac is the fraction of w's shuffle bytes that crossed node
// boundaries.
func interNodeFrac(w *mpi.World) float64 {
	inter, intra := w.CommMatrix().NodeSplit(w.NodeMap())
	if inter+intra == 0 {
		return 0
	}
	return float64(inter) / float64(inter+intra)
}

// tracedSteps opens a traced, metered session of the row, issues two
// calls and analyzes the critical path over everything recorded.
func tracedSteps(t *testing.T, row steadyRow) (*mpi.World, *critpath.Report) {
	t.Helper()
	w, s := row.open(t, traced, metered)
	for i := 0; i < 2; i++ {
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
	return w, critpath.Analyze(w.TraceSink())
}

// TestCritPathCoverageMatrix is the acceptance gate for the profiler: on
// every row of the matrix, the backward walk's attribution must account
// for at least 99% of the collective's virtual wall time (it is 100% by
// construction unless the ring overflowed).
func TestCritPathCoverageMatrix(t *testing.T) {
	for _, row := range steadyMatrix() {
		t.Run(row.name, func(t *testing.T) {
			w, rep := tracedSteps(t, row)
			if rep.Truncated {
				t.Fatalf("trace ring overflowed (%d dropped); raise the capacity", rep.DroppedEvents)
			}
			if rep.WindowSec <= 0 {
				t.Fatal("empty profile window")
			}
			if cov := rep.Coverage(); cov < 0.99 {
				t.Errorf("critical-path coverage %.4f < 0.99 (covered %.6fs of %.6fs)",
					cov, rep.CoveredSec, rep.WindowSec)
			}
			if rep.Collectives == 0 {
				t.Error("no rendezvous generations seen in the trace")
			}
			if f := interNodeFrac(w); f <= 0 || f > 1 {
				t.Errorf("inter-node shuffle fraction %.4f outside (0, 1]", f)
			}
		})
	}
}

// TestObservabilityColumnsDeterministic: every schedule-independent
// observability output is byte-identical across two independent sessions of
// the same row: the comm-matrix JSON (traffic is counted, not timed), the
// critical path's coverage and the inter-node fraction. The critical path's
// virtual seconds are exempt by design: goroutine scheduling perturbs
// arrival order at the shared OST queues, so only the report's structure is
// pinned here; byte-determinism of the report for a fixed trace is pinned
// in internal/critpath.
func TestObservabilityColumnsDeterministic(t *testing.T) {
	row := steadyRowNamed(t, "core-pfr/alltoallw/write")
	type det struct {
		comm                []byte
		ranks, collectives  int
		coverage, interFrac float64
		truncated           bool
	}
	run := func() det {
		w, rep := tracedSteps(t, row)
		var buf bytes.Buffer
		if err := w.CommMatrix().WriteJSON(&buf, mpi.BlockNodeMap(steadyNodeRanks)); err != nil {
			t.Fatal(err)
		}
		return det{buf.Bytes(), rep.Ranks, rep.Collectives, rep.Coverage(), interNodeFrac(w), rep.Truncated}
	}
	a, b := run(), run()
	if !bytes.Equal(a.comm, b.comm) {
		t.Error("comm-matrix JSON differs across identical runs")
	}
	if a.ranks != b.ranks || a.collectives != b.collectives || a.truncated != b.truncated {
		t.Errorf("critical-path structure differs: %d/%d/%v vs %d/%d/%v",
			a.ranks, a.collectives, a.truncated, b.ranks, b.collectives, b.truncated)
	}
	if a.coverage != b.coverage {
		t.Errorf("coverage column differs: %v vs %v", a.coverage, b.coverage)
	}
	if a.interFrac != b.interFrac {
		t.Errorf("internode-frac column differs: %v vs %v", a.interFrac, b.interFrac)
	}
}

// TestMetricsZeroOverhead: the live metrics registry (counters, phase
// histograms, flight recorder) adds no allocation per steady-state call on
// the persistent-file-realm path.
func TestMetricsZeroOverhead(t *testing.T) {
	row := steadyRowNamed(t, "core-pfr/nonblocking/write")
	offWorld, off := row.open(t)
	onWorld, on := row.open(t, metered)
	if a, b := callAllocs(t, on), callAllocs(t, off); a > b && !raceEnabled {
		t.Errorf("metrics add allocations on the steady-state PFR path: %.1f allocs per call enabled vs %.1f disabled", a, b)
	}
	// The comparison means something only if the metered session recorded.
	if offWorld.MetricsSet() != nil {
		t.Error("unmetered session has a metrics set")
	}
	m := onWorld.MetricsSet()
	if m.Merged().Counter(metrics.CRounds) == 0 {
		t.Fatal("metered session recorded no rounds")
	}
	if len(m.Dump(false).Rounds) == 0 {
		t.Fatal("metered session has an empty flight recorder")
	}
}

// TestDeadlineZeroOverhead: arming the collective deadline on a healthy
// world, so that it never trips, adds no allocation per call.
func TestDeadlineZeroOverhead(t *testing.T) {
	row := steadyRowNamed(t, "core-pfr/nonblocking/write")
	_, off := row.open(t, metered)
	// Generous against any per-round skew of this workload: the guard is
	// armed on every rendezvous but must never fire.
	onWorld, on := row.open(t, metered, func(w *mpi.World, _ *pfs.FileSystem) { w.SetCollDeadline(1.0) })
	if a, b := callAllocs(t, on), callAllocs(t, off); a > b && !raceEnabled {
		t.Errorf("deadline guard adds allocations on the steady-state PFR path: %.1f allocs per call armed vs %.1f unarmed", a, b)
	}
	if trips := onWorld.MetricsSet().Merged().Counter(metrics.CDeadlineTrips); trips != 0 {
		t.Errorf("deadline guard tripped %d times on a healthy steady-state run", trips)
	}
}
