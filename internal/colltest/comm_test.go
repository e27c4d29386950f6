package colltest

import (
	"testing"

	"flexio/internal/core"
	"flexio/internal/metrics"
	"flexio/internal/mpi"
	"flexio/internal/mpiio"
	"flexio/internal/sim"
)

// commEngines lists the engine configurations the comm-matrix property is
// asserted on: both planners, and every exchange strategy for the flexible
// one (the blocking one under the access ROMIO pairs it with).
func commEngines() map[string]func() mpiio.Collective {
	return map[string]func() mpiio.Collective{
		"twophase": func() mpiio.Collective { return core.ROMIO(core.Options{}) },
		"core-nb":  func() mpiio.Collective { return core.New(core.Options{Comm: core.Nonblocking}) },
		"core-a2a": func() mpiio.Collective { return core.New(core.Options{Comm: core.Alltoallw}) },
		"core-blk": func() mpiio.Collective {
			return core.New(core.Options{Comm: core.Blocking, Method: mpiio.IntegratedSieve})
		},
	}
}

func commWorkload() Workload {
	return Workload{
		Ranks:        8,
		RegionSize:   256,
		RegionCount:  64,
		Spacing:      128,
		MemNoncontig: true,
		MemGap:       32,
	}
}

// TestCommMatrixMatchesShuffleCounters is the cross-layer accounting
// property: the transport-level comm matrix (bytes stamped shuffle at every
// Send/collective row while a round is open) must agree, per rank, with the
// engine-level shuffle counters the flight recorder reports. On a write the
// data flows client→aggregator, so each rank's shuffle row sum is its
// shuffle_send_bytes and each column sum the aggregator's
// shuffle_recv_bytes; a read reverses the flow.
func TestCommMatrixMatchesShuffleCounters(t *testing.T) {
	wl := commWorkload()
	for name, mk := range commEngines() {
		for _, write := range []bool{true, false} {
			dir := "write"
			if !write {
				dir = "read"
			}
			t.Run(name+"/"+dir, func(t *testing.T) {
				info := mpiio.Info{Collective: mk(), CbNodes: 4, CollBufSize: 16 << 10}
				var res Result
				var err error
				if write {
					res, err = RunWrite(sim.DefaultConfig(), wl, info)
				} else {
					res, err = RunReadBack(sim.DefaultConfig(), wl, info)
				}
				if err != nil {
					t.Fatal(err)
				}
				comm := res.World.CommMatrix()
				if comm.TotalBytes() == 0 {
					t.Fatal("comm matrix recorded no traffic")
				}
				for r := 0; r < wl.Ranks; r++ {
					reg := res.World.Proc(r).Metrics
					sent := reg.Counter(metrics.CShuffleSendBytes)
					recv := reg.Counter(metrics.CShuffleRecvBytes)
					row := comm.ShuffleRowBytes(r)
					col := comm.ShuffleColBytes(r)
					if write {
						if row != sent {
							t.Errorf("rank %d: shuffle row sum %d != shuffle_send_bytes %d", r, row, sent)
						}
						if col != recv {
							t.Errorf("rank %d: shuffle col sum %d != shuffle_recv_bytes %d", r, col, recv)
						}
					} else {
						if row != recv {
							t.Errorf("rank %d: shuffle row sum %d != shuffle_recv_bytes %d", r, row, recv)
						}
						if col != sent {
							t.Errorf("rank %d: shuffle col sum %d != shuffle_send_bytes %d", r, col, sent)
						}
					}
				}
			})
		}
	}
}

// TestCommMatrixNodeSplit checks the node-mapping hook: under a block node
// map the inter/intra split partitions the shuffle bytes exactly, and the
// identity map (nil) calls everything inter-node.
func TestCommMatrixNodeSplit(t *testing.T) {
	wl := commWorkload()
	info := mpiio.Info{Collective: core.New(core.Options{}), CbNodes: 4, CollBufSize: 16 << 10}
	res, err := RunWrite(sim.DefaultConfig(), wl, info)
	if err != nil {
		t.Fatal(err)
	}
	comm := res.World.CommMatrix()
	var shuffle int64
	for r := 0; r < wl.Ranks; r++ {
		shuffle += comm.ShuffleRowBytes(r)
	}
	inter, intra := comm.NodeSplit(mpi.BlockNodeMap(2))
	if inter+intra != shuffle {
		t.Errorf("node split %d+%d does not partition shuffle bytes %d", inter, intra, shuffle)
	}
	if intra == 0 {
		t.Error("block node map of width 2 found no intra-node traffic")
	}
	// Under the identity map only the diagonal (self-delivery) is
	// intra-node.
	var diag int64
	for r := 0; r < wl.Ranks; r++ {
		diag += comm.Cell(r, r).ShuffleBytes
	}
	interAll, intraAll := comm.NodeSplit(nil)
	if intraAll != diag || interAll != shuffle-diag {
		t.Errorf("identity node map split = (%d, %d), want (%d, %d)", interAll, intraAll, shuffle-diag, diag)
	}
}
