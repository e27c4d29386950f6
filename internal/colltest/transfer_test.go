package colltest

import (
	"testing"

	"flexio/internal/core"
	"flexio/internal/metrics"
	"flexio/internal/mpi"
	"flexio/internal/mpiio"
	"flexio/internal/pfs"
	"flexio/internal/sim"
)

// TestRunArmsNothing: a run records what its caller armed and nothing else;
// unarmed, the per-rank books still count and the image still verifies.
func TestRunArmsNothing(t *testing.T) {
	wl := Workload{Ranks: 4, RegionSize: 64, RegionCount: 32, Spacing: 64, NodeRanks: 2}
	res, err := RunWrite(sim.DefaultConfig(), wl, mpiio.Info{Collective: core.New(core.Options{}), CbNodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyImage(wl, res.Image); err != nil {
		t.Fatal(err)
	}
	if res.World.TraceSink() != nil || res.World.MetricsSet() != nil {
		t.Errorf("unarmed run recorded a trace (%v) or metrics (%v)", res.World.TraceSink() != nil, res.World.MetricsSet() != nil)
	}
	if res.World.Totals().Counter(metrics.CIOCalls) == 0 || res.World.CommMatrix().TotalBytes() == 0 {
		t.Error("an unarmed run booked no storage calls or no traffic")
	}
}

// TestTransferSetupError: a view a rank cannot install is the run's setup
// error, not a per-rank result.
func TestTransferSetupError(t *testing.T) {
	cfg := sim.DefaultConfig()
	errs, err := Transfer(mpi.NewWorld(2, cfg), pfs.NewFileSystem(cfg), File, mpiio.Info{}, true, 1,
		func(step, rank int) StepSpec {
			return StepSpec{} // nil filetype -> SetView error
		})
	if err == nil || errs != nil {
		t.Fatalf("nil filetype: setup error %v, rank errors %v", err, errs)
	}
}
