package core_test

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"flexio/internal/bufpool"
	"flexio/internal/colltest"
	"flexio/internal/core"
	"flexio/internal/datatype"
	"flexio/internal/metrics"
	"flexio/internal/mpi"
	"flexio/internal/mpiio"
	"flexio/internal/pfs"
	"flexio/internal/realm"
	"flexio/internal/sim"
)

// preaggImage runs one collective write of wl through info (its
// collective is core.New(o), or core.ROMIO(o) when romio is set) and returns
// the full result, for accounting checks, and the file image, verified
// against the workload reference.
func preaggImage(t *testing.T, wl colltest.Workload, o core.Options, info mpiio.Info, romio bool) (colltest.Result, []byte) {
	t.Helper()
	info.Collective = core.New(o)
	if romio {
		info.Collective = core.ROMIO(o)
	}
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
					_, plain := preaggImage(t, wl, base, mpiio.Info{}, false)
					_, merged := preaggImage(t, wl, pre, mpiio.Info{}, false)
					if !bytes.Equal(plain, merged) {
						t.Fatalf("pre-aggregated image differs from per-rank image")
					}
				})
			}
		}
	}
	// The ROMIO baseline, at node sizes that do not all divide the world.
	for _, nodeRanks := range []int{2, 3, 4, 8} {
		t.Run(fmt.Sprintf("romio/nodes%d", nodeRanks), func(t *testing.T) {
			wl := baseWorkload()
			wl.NodeRanks = nodeRanks
			_, plain := preaggImage(t, wl, core.Options{}, mpiio.Info{}, true)
			_, merged := preaggImage(t, wl, core.Options{Preagg: true}, mpiio.Info{}, true)
			if !bytes.Equal(plain, merged) {
				t.Fatalf("pre-aggregated image differs from per-rank image")
			}
		})
	}
}

// TestPreaggLentStreamByteIdentical: a write whose gapped memory segments
// are long enough to be lent reaches pre-aggregation with no packed bytes: a
// member packs its buffer when it hands it over, and the leader must reach
// its own bytes the same way, or they merge as a hole. At 4 ranks a node,
// every request form and exchange strategy writes the image the same call
// writes with pre-aggregation off, and leaves every user buffer unchanged.
func TestPreaggLentStreamByteIdentical(t *testing.T) {
	wl := colltest.Workload{Ranks: 8, NodeRanks: 4, RegionSize: 192, RegionCount: 24, Spacing: 64,
		Disp: 100, MemNoncontig: true, MemGap: 32}
	engines := []struct {
		name string
		New  func(preagg bool) mpiio.Collective
	}{
		{"nonblocking", func(pre bool) mpiio.Collective { return core.New(core.Options{Preagg: pre}) }},
		{"alltoallw", func(pre bool) mpiio.Collective { return core.New(core.Options{Comm: core.Alltoallw, Preagg: pre}) }},
		{"romio", func(pre bool) mpiio.Collective { return core.ROMIO(core.Options{Preagg: pre}) }},
	}
	for _, eng := range engines {
		t.Run(eng.name, func(t *testing.T) {
			image := func(preagg bool) []byte {
				spec := colltest.Spec(wl)
				res, err := colltest.WriteSpec(colltest.NewWorld(sim.DefaultConfig(), wl),
					mpiio.Info{Collective: eng.New(preagg), CbNodes: 3, CollBufSize: 2048}, 2, spec)
				if err != nil {
					t.Fatal(err)
				}
				for r := range wl.Ranks {
					if !bytes.Equal(spec(0, r).Buf, wl.FillBuffer(r)) {
						t.Fatalf("preagg=%v: rank %d's user buffer changed", preagg, r)
					}
				}
				img := res.FS.Snapshot(colltest.File, wl.FileSize())
				if err := colltest.VerifyImage(wl, img); err != nil {
					t.Fatalf("preagg=%v: %v", preagg, err)
				}
				return img
			}
			if !bytes.Equal(image(true), image(false)) {
				t.Fatal("the pre-aggregated image differs from the per-rank one")
			}
		})
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
		t.Run(fmt.Sprintf("romio/nodes%d", nodeRanks), func(t *testing.T) {
			wl := baseWorkload()
			wl.NodeRanks = nodeRanks
			info := mpiio.Info{Collective: core.ROMIO(core.Options{Preagg: true})}
			if _, err := colltest.RunReadBack(sim.DefaultConfig(), wl, info); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestPreaggLeaderWithNothingToMove: a node leader whose own access is empty
// still carries its members' bytes, on both request forms. It plans its
// client side over the merged stream, not over its own empty one: planned
// over its own, the flat form's leader sent the aggregators nothing (a write
// hung) and placed nothing its member then read (a read returned stale bytes
// and no error).
func TestPreaggLeaderWithNothingToMove(t *testing.T) {
	cfg := sim.DefaultConfig()
	wl := colltest.Workload{Ranks: 4, RegionSize: 64, RegionCount: 16, Spacing: 32, NodeRanks: 2}
	indep := mpiio.Info{IndepMethod: mpiio.ListIO}
	for _, romio := range []bool{false, true} {
		for _, write := range []bool{true, false} {
			t.Run(fmt.Sprintf("romio=%v/write=%v", romio, write), func(t *testing.T) {
				full := colltest.Spec(wl)
				spec := func(step, rank int) colltest.StepSpec {
					sp := full(step, rank)
					if rank == 0 { // the leader of ranks 0 and 1
						sp.Count = 0
					}
					return sp
				}
				impl := core.New(core.Options{Preagg: true, Validate: true})
				if romio {
					impl = core.ROMIO(core.Options{Preagg: true})
				}
				w, fs := colltest.NewWorld(cfg, wl), pfs.NewFileSystem(cfg)
				if !write {
					if errs, err := colltest.Transfer(w, fs, colltest.File, indep, true, 1, full); err != nil || errors.Join(errs...) != nil {
						t.Fatalf("seeding the file: %v %v", err, errs)
					}
					for r := range wl.Ranks {
						clear(full(0, r).Buf)
					}
				}
				done := make(chan error, 1)
				go func() {
					errs, err := colltest.Transfer(w, fs, colltest.File, mpiio.Info{Collective: impl}, write, 1, spec)
					done <- errors.Join(append(errs, err)...)
				}()
				select {
				case err := <-done:
					if err != nil {
						t.Fatal(err)
					}
				case <-time.After(30 * time.Second):
					t.Fatal("collective hung")
				}
				if write {
					ref := pfs.NewFileSystem(cfg)
					if _, err := colltest.Transfer(colltest.NewWorld(cfg, wl), ref, colltest.File, indep, true, 1, spec); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(fs.Snapshot(colltest.File, wl.FileSize()), ref.Snapshot(colltest.File, wl.FileSize())) {
						t.Fatal("image differs from the independent write's")
					}
					return
				}
				for r := 1; r < wl.Ranks; r++ {
					if !colltest.ReadMatches(wl, r, full(0, r).Buf) {
						t.Fatalf("rank %d read other bytes than the file holds", r)
					}
				}
			})
		}
	}
}

// TestPreaggVariants exercises the wrinkles that interact with the merge:
// noncontiguous memory, many rounds (small collective buffer), heap-merge
// intersections, persistent realms, fewer aggregators than ranks, and on
// the ROMIO baseline a world without a node map (every rank leads itself).
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
		{"romio/mem-noncontig", func(wl *colltest.Workload, o *core.Options, in *mpiio.Info) {
			wl.MemNoncontig = true
			wl.MemGap = 48
		}},
		{"romio/many-rounds", func(wl *colltest.Workload, o *core.Options, in *mpiio.Info) {
			in.CollBufSize = 192
		}},
		{"romio/few-aggs", func(wl *colltest.Workload, o *core.Options, in *mpiio.Info) {
			in.CbNodes = 3
		}},
		{"romio/no-node-map", func(wl *colltest.Workload, o *core.Options, in *mpiio.Info) {
			wl.NodeRanks = 0
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
			romio := strings.HasPrefix(tc.name, "romio/")
			_, plain := preaggImage(t, wl, base, info, romio)
			_, merged := preaggImage(t, wl, pre, info, romio)
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
	for name, impl := range map[string]*core.Impl{
		"nodelocal": core.New(core.Options{Assigner: realm.NodeLocal{}, Preagg: true, Validate: true}),
		"romio":     core.ROMIO(core.Options{Preagg: true}),
	} {
		t.Run(name, func(t *testing.T) {
			res, err := colltest.RunWrite(sim.DefaultConfig(), wl, mpiio.Info{Collective: impl})
			if err != nil {
				t.Fatal(err)
			}
			inter, intra := res.World.CommMatrix().NodeSplit(res.World.NodeMap())
			m := res.World.Totals()
			if got := m.Counter(metrics.CShuffleInterNodeBytes); got != inter {
				t.Fatalf("internode shuffle: matrix %d, counters %d", inter, got)
			}
			if got := m.Counter(metrics.CShuffleIntraNodeBytes); got != intra {
				t.Fatalf("intranode shuffle: matrix %d, counters %d", intra, got)
			}
			if inter+intra == 0 {
				t.Fatalf("no shuffle bytes recorded")
			}
		})
	}
}

// netBoundSim is a congested commodity interconnect in front of a fast,
// flash-backed storage tier: cheap calls, no mechanical seeks, no stripe-lock
// revocation storms. Inter-node bytes are the bottleneck there, the regime
// the two-level exchange targets.
func netBoundSim() *sim.Config {
	c := sim.DefaultConfig()
	c.NetBandwidth = 10e6
	c.ServerBandwidth = 1e9
	c.IOCallOverhead = 20e-6
	c.SeekCost = 5e-6
	c.LockGrantCost = 5e-6
	c.LockRevokeCost = 20e-6
	c.StripeLockCost = 50e-6
	return c
}

// TestPreaggReducesInterNodeBytes: on a steady-state session of 8 ranks, 4
// per node, with persistent file realms and 8 aggregators, node-local
// pre-aggregation with NodeLocal realms moves no shuffle byte between nodes,
// on either cluster profile, either exchange strategy, writing and reading.
// The flat exchange over even realms moves 524,288 per call: half of each
// rank's 128 KiB goes to an aggregator on the other node.
func TestPreaggReducesInterNodeBytes(t *testing.T) {
	wl := colltest.Workload{Ranks: 8, RegionSize: 512, RegionCount: 256, Spacing: 256,
		MemNoncontig: true, MemGap: 64}
	for _, profile := range []struct {
		name string
		cfg  func() *sim.Config
	}{{"default", sim.DefaultConfig}, {"net-bound", netBoundSim}} {
		for _, comm := range []core.CommStrategy{core.Nonblocking, core.Alltoallw} {
			for _, write := range []bool{true, false} {
				name := fmt.Sprintf("%s/%s/%s", profile.name, comm, map[bool]string{true: "write", false: "read"}[write])
				t.Run(name, func(t *testing.T) {
					for _, tc := range []struct {
						preagg bool
						want   int64
					}{{false, 524288}, {true, 0}} {
						o := core.Options{Comm: comm, Persistent: true}
						if tc.preagg {
							o.Preagg, o.Assigner = true, realm.NodeLocal{}
						}
						cfg := profile.cfg()
						w, fs := mpi.NewWorld(wl.Ranks, cfg), pfs.NewFileSystem(cfg)
						w.SetNodeMap(mpi.BlockNodeMap(4))
						matrix := w.CommMatrix()
						info := mpiio.Info{Collective: core.New(o), CbNodes: 8, CollBufSize: 64 << 10}
						s, err := colltest.NewSession(w, fs, wl, info, write)
						if err != nil {
							t.Fatal(err)
						}
						before, _ := matrix.NodeSplit(w.NodeMap())
						if err := s.Step(); err != nil {
							t.Fatal(err)
						}
						if err := s.Verify(); err != nil {
							t.Fatal(err)
						}
						after, _ := matrix.NodeSplit(w.NodeMap())
						if got := after - before; got != tc.want {
							t.Errorf("preagg=%v: %d inter-node shuffle bytes in one call, want %d", tc.preagg, got, tc.want)
						}
					}
				})
			}
		}
	}
}

// TestPreaggLeaderCarriesRoundData: with pre-aggregation, only node
// leaders send payload in the write rounds — every member row of the comm
// matrix carries request traffic but no outgoing shuffle bytes. (Members
// still serve as aggregators, so their incoming cells stay busy.)
func TestPreaggLeaderCarriesRoundData(t *testing.T) {
	wl := baseWorkload()
	wl.NodeRanks = 4
	info := mpiio.Info{Collective: core.ROMIO(core.Options{Preagg: true})}
	res, err := colltest.RunWrite(sim.DefaultConfig(), wl, info)
	if err != nil {
		t.Fatal(err)
	}
	nodeOf := res.World.NodeMap()
	for r := 0; r < wl.Ranks; r++ {
		leader := r
		for c := 0; c < wl.Ranks; c++ {
			if nodeOf(c) == nodeOf(r) && c < leader {
				leader = c
			}
		}
		if leader == r {
			continue
		}
		if out := res.World.CommMatrix().ShuffleRowBytes(r); out != 0 {
			t.Fatalf("member rank %d sent %d shuffle bytes; leaders should carry the rounds", r, out)
		}
	}
}

// TestPreaggMalformedMemberAbortsUniformly: one bit of a member's request
// flips on its way to the node leader (integrity off), under both request
// forms of the one planner (core.New's flattened filetype, core.ROMIO's
// offset/length list) over the one stage, writing and reading. A request that
// is no access (it does not decode, a run lies outside the aggregate access
// region every rank agreed on before the stage, the payload is not the length
// the list asks for) counts as a member lost: the leader seeds the first
// agreement and every rank aborts alike; it never hangs the call or sizes a
// table by a damaged offset. Reading, a list of another length than the
// member's stream is refused by the member when its bytes come back. A flip
// that leaves a valid list for other bytes of the same length cannot be told
// without checksums: it, too, ends the same way on every rank, and how many
// seeds do is pinned (ROMIO's reads were 30 before the scatter checked).
// No pooled buffer is released twice, and none is lost except the payload
// behind a request the leader refused before taking it, which the abort drops.
// With the member the only rank that moves anything (alone), a refused
// request leaves no round to run: the no-rounds exit aborts alike too.
func TestPreaggMalformedMemberAbortsUniformly(t *testing.T) {
	wl := colltest.Workload{Ranks: 4, RegionSize: 64, RegionCount: 16, Spacing: 32, NodeRanks: 2}
	const seeds = 200
	for _, tc := range []struct {
		name   string
		engine func() mpiio.Collective
		write  bool
		silent int // seeds that return nil with other bytes moved
		alone  bool
	}{
		{"core/write", func() mpiio.Collective { return core.New(core.Options{Preagg: true}) }, true, 4, false},
		{"core/read", func() mpiio.Collective { return core.New(core.Options{Preagg: true}) }, false, 4, false},
		{"core/read/alone", func() mpiio.Collective { return core.New(core.Options{Preagg: true}) }, false, 4, true},
		{"twophase/write", func() mpiio.Collective { return core.ROMIO(core.Options{Preagg: true}) }, true, 12, false},
		{"twophase/read", func() mpiio.Collective { return core.ROMIO(core.Options{Preagg: true}) }, false, 12, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rejected, silent := 0, 0
			for seed := int64(1); seed <= seeds; seed++ {
				errs, exact, lost := malformedMemberCall(t, wl, tc.engine(), tc.write, tc.alone, seed)
				for r, err := range errs {
					if (err == nil) != (errs[0] == nil) || mpiio.ErrorClass(err) != mpiio.ErrorClass(errs[0]) {
						t.Fatalf("seed %d: rank %d returned %v, rank 0 %v", seed, r, err, errs[0])
					}
				}
				// The leader refuses the request, or the member refuses a
				// payload that is not its stream's length (the leader merged a
				// list that moved the member's bytes); either rank names it.
				refused := slices.ContainsFunc(errs, func(err error) bool {
					return err != nil && (strings.Contains(err.Error(), "bad request from member rank 1") ||
						strings.Contains(err.Error(), "rank 1: core: preagg scatter"))
				})
				switch {
				case refused:
					rejected++
				case errs[0] != nil:
					t.Fatalf("seed %d: aborted for something else: %v", seed, errs[0])
				case !exact:
					silent++
				}
				// The one buffer an abort may drop instead of recycling: the
				// payload behind a list refused before it was taken.
				if lost < 0 || lost > 1 || (lost == 1 && !(refused && tc.write)) {
					t.Fatalf("seed %d (%v): %d pooled buffer(s) not returned", seed, errs[0], lost)
				}
			}
			if rejected == 0 {
				t.Fatal("no flipped request was refused")
			}
			if silent != tc.silent {
				t.Errorf("%d of %d flips moved other bytes unnoticed, recorded %d", silent, seeds, tc.silent)
			}
		})
	}
}

// malformedMemberCall runs one collective call of wl with the first message
// of member 1 to its leader 0 damaged as seed says, and returns every rank's
// error, whether the data came out byte-exact, and how many pooled buffers the
// call took and did not give back. Alone, only member 1 reads.
func malformedMemberCall(t *testing.T, wl colltest.Workload, engine mpiio.Collective, write, alone bool, seed int64) (errs []error, exact bool, lost int64) {
	t.Helper()
	cfg := sim.DefaultConfig()
	w := mpi.NewWorld(wl.Ranks, cfg)
	w.SetNodeMap(mpi.BlockNodeMap(wl.NodeRanks))
	fs := pfs.NewFileSystem(cfg)
	info := mpiio.Info{Collective: engine, CbNodes: 2, CollBufSize: 1 << 10, IndepMethod: mpiio.ListIO}
	errs = make([]error, wl.Ranks)
	same := make([]bool, wl.Ranks)
	call := func(collective bool) {
		w.Run(func(p *mpi.Proc) {
			r := p.Rank()
			f, err := mpiio.Open(p, fs, "member.dat", info)
			if err != nil {
				errs[r] = err
				return
			}
			defer f.Close()
			ft, disp := wl.Filetype(r)
			if errs[r] = f.SetView(disp, datatype.Bytes(1), ft); errs[r] != nil {
				return
			}
			mt, bufLen := wl.Memtype()
			switch {
			case !collective:
				errs[r] = f.WriteIndependent(wl.FillBuffer(r), mt, wl.RegionCount)
			case write:
				errs[r] = f.WriteAll(wl.FillBuffer(r), mt, wl.RegionCount)
			default:
				count := wl.RegionCount
				if alone && r != 1 {
					count = 0
				}
				buf := make([]byte, bufLen)
				errs[r] = f.ReadAll(buf, mt, count)
				got, _ := datatype.Pack(buf, mt, 0, count)
				want, _ := datatype.Pack(wl.FillBuffer(r), mt, 0, count)
				same[r] = bytes.Equal(got, want)
			}
		})
	}
	if !write {
		call(false) // seed the file through the trusted independent path
		for r, err := range errs {
			if err != nil {
				t.Fatalf("seeding the file, rank %d: %v", r, err)
			}
		}
	}
	w.SetRankFaults(mpi.NewRankFaultSchedule(seed).Corrupt(1, 0, 1, 1))
	before := bufpool.Snapshot()
	done := make(chan struct{})
	go func() {
		defer close(done)
		call(true)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("seed %d: collective hung", seed)
	}
	after := bufpool.Snapshot()
	lost = (after.Gets - before.Gets) - (after.Puts - before.Puts) - (after.Drops - before.Drops)
	if write {
		exact = colltest.VerifyImage(wl, fs.Snapshot("member.dat", wl.FileSize())) == nil
	} else {
		exact = !slices.Contains(same, false)
	}
	return errs, exact, lost
}
