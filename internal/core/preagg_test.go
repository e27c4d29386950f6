package core_test

import (
	"bytes"
	"fmt"
	"testing"

	"flexio/internal/colltest"
	"flexio/internal/core"
	"flexio/internal/metrics"
	"flexio/internal/mpiio"
	"flexio/internal/realm"
	"flexio/internal/sim"
)

// preaggImage runs one collective write of wl with the given options and
// returns the resulting file image (verified against the workload
// reference) plus the full result for accounting checks.
func preaggImage(t *testing.T, wl colltest.Workload, o core.Options, info mpiio.Info) (colltest.Result, []byte) {
	t.Helper()
	info.Collective = core.New(o)
	res, err := colltest.RunWrite(sim.DefaultConfig(), wl, info)
	if err != nil {
		t.Fatal(err)
	}
	if err := colltest.VerifyImage(wl, res.Image); err != nil {
		t.Fatal(err)
	}
	return res, res.Image
}

// TestPreaggWriteByteIdentical is the property the tentpole promises: with
// pre-aggregation on, the written file is byte-identical to the per-rank
// exchange, across comm strategies, node sizes, and assigners (including
// the topology-aware NodeLocal partition).
func TestPreaggWriteByteIdentical(t *testing.T) {
	for _, nodeRanks := range []int{2, 4, 8} {
		for _, cm := range []core.CommStrategy{core.Nonblocking, core.Alltoallw} {
			for _, as := range []realm.Assigner{nil, realm.NodeLocal{}} {
				name := fmt.Sprintf("nodes%d/%v", nodeRanks, cm)
				if as != nil {
					name += "/" + as.Name()
				}
				t.Run(name, func(t *testing.T) {
					wl := baseWorkload()
					wl.NodeRanks = nodeRanks
					base := core.Options{Assigner: as, Comm: cm, Validate: true}
					pre := base
					pre.Preagg = true
					_, plain := preaggImage(t, wl, base, mpiio.Info{})
					_, merged := preaggImage(t, wl, pre, mpiio.Info{})
					if !bytes.Equal(plain, merged) {
						t.Fatalf("pre-aggregated image differs from per-rank image")
					}
				})
			}
		}
	}
}

// TestPreaggReadMatrix verifies collective reads with pre-aggregation
// return the exact bytes an independent write produced, across comm
// strategies and node sizes (the harness checks every rank's buffer).
func TestPreaggReadMatrix(t *testing.T) {
	for _, nodeRanks := range []int{2, 4} {
		for _, cm := range []core.CommStrategy{core.Nonblocking, core.Alltoallw} {
			for _, as := range []realm.Assigner{nil, realm.NodeLocal{}} {
				name := fmt.Sprintf("nodes%d/%v", nodeRanks, cm)
				if as != nil {
					name += "/" + as.Name()
				}
				t.Run(name, func(t *testing.T) {
					wl := baseWorkload()
					wl.NodeRanks = nodeRanks
					impl := core.New(core.Options{Assigner: as, Comm: cm, Preagg: true, Validate: true})
					if _, err := colltest.RunReadBack(sim.DefaultConfig(), wl, mpiio.Info{Collective: impl}); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}

// TestPreaggVariants exercises the wrinkles that interact with the merge:
// noncontiguous memory, many rounds (small collective buffer), heap-merge
// intersections, persistent realms, fewer aggregators than ranks.
func TestPreaggVariants(t *testing.T) {
	cases := []struct {
		name string
		tune func(*colltest.Workload, *core.Options, *mpiio.Info)
	}{
		{"mem-noncontig", func(wl *colltest.Workload, o *core.Options, in *mpiio.Info) {
			wl.MemNoncontig = true
			wl.MemGap = 48
		}},
		{"many-rounds", func(wl *colltest.Workload, o *core.Options, in *mpiio.Info) {
			in.CollBufSize = 256
		}},
		{"heap-merge", func(wl *colltest.Workload, o *core.Options, in *mpiio.Info) {
			o.HeapMerge = true
		}},
		{"persistent", func(wl *colltest.Workload, o *core.Options, in *mpiio.Info) {
			o.Persistent = true
		}},
		{"few-aggs", func(wl *colltest.Workload, o *core.Options, in *mpiio.Info) {
			in.CbNodes = 3
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wl := baseWorkload()
			wl.NodeRanks = 4
			base := core.Options{Validate: true}
			info := mpiio.Info{}
			tc.tune(&wl, &base, &info)
			pre := base
			pre.Preagg = true
			_, plain := preaggImage(t, wl, base, info)
			_, merged := preaggImage(t, wl, pre, info)
			if !bytes.Equal(plain, merged) {
				t.Fatalf("pre-aggregated image differs from per-rank image")
			}
		})
	}
}

// TestPreaggShuffleAccounting checks the comm-matrix node split still
// equals the engines' shuffle counters when pre-aggregation is on: the
// preagg forwarding itself happens outside any round, so it must not leak
// into shuffle accounting on either side.
func TestPreaggShuffleAccounting(t *testing.T) {
	wl := baseWorkload()
	wl.NodeRanks = 4
	impl := core.New(core.Options{Assigner: realm.NodeLocal{}, Preagg: true, Validate: true})
	res, err := colltest.RunWrite(sim.DefaultConfig(), wl, mpiio.Info{Collective: impl})
	if err != nil {
		t.Fatal(err)
	}
	inter, intra := res.Comm.NodeSplit(res.World.NodeMap())
	m := res.Metrics.Merged()
	if got := m.Counter(metrics.CShuffleInterNodeBytes); got != inter {
		t.Fatalf("internode shuffle: matrix %d, counters %d", inter, got)
	}
	if got := m.Counter(metrics.CShuffleIntraNodeBytes); got != intra {
		t.Fatalf("intranode shuffle: matrix %d, counters %d", intra, got)
	}
	if inter+intra == 0 {
		t.Fatalf("no shuffle bytes recorded")
	}
}

// TestPreaggReducesInterNodeBytes is the perf claim at test scale: with
// multi-rank nodes, aggregators spread over the nodes, and the node-local
// realm partition, the two-level exchange keeps the shuffle on-node. The
// per-rank exchange under the default even partition sends most shuffle
// bytes across the node boundary; pre-aggregation plus NodeLocal must cut
// the inter-node volume by at least the node-size factor.
func TestPreaggReducesInterNodeBytes(t *testing.T) {
	wl := baseWorkload()
	wl.NodeRanks = 4
	info := mpiio.Info{CbNodes: 8}

	resBase, _ := preaggImage(t, wl, core.Options{Validate: true}, info)
	interBase, _ := resBase.Comm.NodeSplit(resBase.World.NodeMap())

	resPre, _ := preaggImage(t, wl, core.Options{Assigner: realm.NodeLocal{}, Preagg: true, Validate: true}, info)
	interPre, _ := resPre.Comm.NodeSplit(resPre.World.NodeMap())

	if interBase == 0 {
		t.Fatalf("baseline recorded no inter-node shuffle bytes")
	}
	if interPre*int64(wl.NodeRanks) > interBase {
		t.Fatalf("inter-node shuffle bytes %d not reduced by node-size factor vs %d", interPre, interBase)
	}
}
