package core_test

import (
	"fmt"
	"testing"

	"flexio/internal/colltest"
	"flexio/internal/core"
	"flexio/internal/mpiio"
	"flexio/internal/realm"
	"flexio/internal/sim"
	"flexio/internal/stats"
)

func baseWorkload() colltest.Workload {
	return colltest.Workload{
		Ranks:       8,
		RegionSize:  64,
		RegionCount: 40,
		Spacing:     32,
		Disp:        100,
	}
}

func TestWriteAllMatrix(t *testing.T) {
	wl := baseWorkload()
	cfg := sim.DefaultConfig()
	assigners := []realm.Assigner{
		nil, // default even
		realm.Even{Align: 4096},
		realm.Cyclic{Block: 512},
		realm.LoadBalanced{},
	}
	methods := []mpiio.Method{mpiio.DataSieve, mpiio.Naive, mpiio.ListIO}
	comms := []core.CommStrategy{core.Nonblocking, core.Alltoallw}
	for _, as := range assigners {
		for _, m := range methods {
			for _, cm := range comms {
				name := fmt.Sprintf("%v/%v", m, cm)
				if as != nil {
					name = as.Name() + "/" + name
				}
				t.Run(name, func(t *testing.T) {
					impl := core.New(core.Options{
						Assigner: as, Method: m, Comm: cm, Validate: true,
					})
					res, err := colltest.RunWrite(cfg, wl, mpiio.Info{Collective: impl})
					if err != nil {
						t.Fatal(err)
					}
					if err := colltest.VerifyImage(wl, res.Image); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
	// The ROMIO baseline: core's planner with ROMIO's request form.
	for _, tc := range []struct {
		name string
		tune func(*colltest.Workload, *mpiio.Info)
	}{
		{"plain", func(*colltest.Workload, *mpiio.Info) {}},
		{"naggs=1", func(_ *colltest.Workload, in *mpiio.Info) { in.CbNodes = 1 }},
		{"naggs=2", func(_ *colltest.Workload, in *mpiio.Info) { in.CbNodes = 2 }},
		{"naggs=5", func(_ *colltest.Workload, in *mpiio.Info) { in.CbNodes = 5 }},
		{"naggs=8", func(_ *colltest.Workload, in *mpiio.Info) { in.CbNodes = 8 }},
		{"many-rounds", func(_ *colltest.Workload, in *mpiio.Info) { in.CollBufSize = 192 }},
		{"enumerated", func(wl *colltest.Workload, _ *mpiio.Info) { wl.Enumerate = true }},
		{"mem-noncontig", func(wl *colltest.Workload, _ *mpiio.Info) { wl.MemNoncontig, wl.MemGap = true, 24 }},
		{"single-rank", func(wl *colltest.Workload, _ *mpiio.Info) {
			*wl = colltest.Workload{Ranks: 1, RegionSize: 100, RegionCount: 17, Spacing: 28}
		}},
	} {
		t.Run("romio/"+tc.name, func(t *testing.T) {
			wl, info := baseWorkload(), mpiio.Info{Collective: core.ROMIO(core.Options{})}
			tc.tune(&wl, &info)
			res, err := colltest.RunWrite(cfg, wl, info)
			if err != nil {
				t.Fatal(err)
			}
			if err := colltest.VerifyImage(wl, res.Image); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestReadAllMatrix(t *testing.T) {
	wl := baseWorkload()
	cfg := sim.DefaultConfig()
	for _, cm := range []core.CommStrategy{core.Nonblocking, core.Alltoallw} {
		for _, m := range []mpiio.Method{mpiio.DataSieve, mpiio.Naive, mpiio.ListIO} {
			t.Run(fmt.Sprintf("%v/%v", m, cm), func(t *testing.T) {
				impl := core.New(core.Options{Method: m, Comm: cm, Validate: true})
				if _, err := colltest.RunReadBack(cfg, wl, mpiio.Info{Collective: impl}); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
	t.Run("romio", func(t *testing.T) {
		if _, err := colltest.RunReadBack(cfg, wl, mpiio.Info{Collective: core.ROMIO(core.Options{})}); err != nil {
			t.Fatal(err)
		}
	})
}

func TestWriteAllNoncontigMemory(t *testing.T) {
	wl := baseWorkload()
	wl.MemNoncontig = true
	wl.MemGap = 48
	impl := core.New(core.Options{Validate: true})
	res, err := colltest.RunWrite(sim.DefaultConfig(), wl, mpiio.Info{Collective: impl})
	if err != nil {
		t.Fatal(err)
	}
	if err := colltest.VerifyImage(wl, res.Image); err != nil {
		t.Fatal(err)
	}
}

func TestWriteAllFewAggregators(t *testing.T) {
	wl := baseWorkload()
	for _, naggs := range []int{1, 3, 8} {
		impl := core.New(core.Options{Validate: true})
		res, err := colltest.RunWrite(sim.DefaultConfig(), wl,
			mpiio.Info{Collective: impl, CbNodes: naggs})
		if err != nil {
			t.Fatalf("naggs=%d: %v", naggs, err)
		}
		if err := colltest.VerifyImage(wl, res.Image); err != nil {
			t.Fatalf("naggs=%d: %v", naggs, err)
		}
	}
}

func TestWriteAllSmallCollBuffer(t *testing.T) {
	// Force many two-phase rounds.
	wl := baseWorkload()
	impl := core.New(core.Options{Validate: true})
	res, err := colltest.RunWrite(sim.DefaultConfig(), wl,
		mpiio.Info{Collective: impl, CollBufSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	if err := colltest.VerifyImage(wl, res.Image); err != nil {
		t.Fatal(err)
	}
}

func TestWriteAllPartialFinalInstance(t *testing.T) {
	// A region count that leaves the last filetype instance partially
	// filled on some ranks is exercised via an uneven buffer: use a
	// region size that does not divide the collective buffer.
	wl := colltest.Workload{Ranks: 4, RegionSize: 7, RegionCount: 33, Spacing: 5, Disp: 3}
	impl := core.New(core.Options{Validate: true})
	res, err := colltest.RunWrite(sim.DefaultConfig(), wl,
		mpiio.Info{Collective: impl, CollBufSize: 100})
	if err != nil {
		t.Fatal(err)
	}
	if err := colltest.VerifyImage(wl, res.Image); err != nil {
		t.Fatal(err)
	}
}

func TestWriteAllSingleRank(t *testing.T) {
	wl := colltest.Workload{Ranks: 1, RegionSize: 128, RegionCount: 20, Spacing: 64}
	impl := core.New(core.Options{Validate: true})
	res, err := colltest.RunWrite(sim.DefaultConfig(), wl, mpiio.Info{Collective: impl})
	if err != nil {
		t.Fatal(err)
	}
	if err := colltest.VerifyImage(wl, res.Image); err != nil {
		t.Fatal(err)
	}
}

func TestHeapMergeMatchesBase(t *testing.T) {
	// The heap pays off for enumerated filetypes, where the base path
	// re-scans the access once per aggregator (O(M·A)); it needs enough
	// aggregators and pairs for the log-factor to win.
	wl := colltest.Workload{
		Ranks: 16, RegionSize: 64, RegionCount: 256, Spacing: 32,
		Enumerate: true,
	}
	cfg := sim.DefaultConfig()
	a, err := colltest.RunWrite(cfg, wl, mpiio.Info{
		Collective: core.New(core.Options{Validate: true})})
	if err != nil {
		t.Fatal(err)
	}
	b, err := colltest.RunWrite(cfg, wl, mpiio.Info{
		Collective: core.New(core.Options{HeapMerge: true, Validate: true})})
	if err != nil {
		t.Fatal(err)
	}
	if err := colltest.VerifyImage(wl, b.Image); err != nil {
		t.Fatal(err)
	}
	// Same bytes written either way.
	for i := range a.Image {
		if a.Image[i] != b.Image[i] {
			t.Fatalf("heap merge image differs at byte %d", i)
		}
	}
	// The heap path must process fewer pairs on the client side.
	pa := stats.Merge(a.World.Recorders()...).Counter(stats.CPairsProcessed)
	pb := stats.Merge(b.World.Recorders()...).Counter(stats.CPairsProcessed)
	if pb >= pa {
		t.Errorf("heap merge pairs %d not below per-aggregator pairs %d", pb, pa)
	}
}

func TestPersistentAlignedRealmsAvoidRevocation(t *testing.T) {
	wl := baseWorkload()
	cfg := sim.DefaultConfig()

	// PFRs plus page-aligned boundaries: no page is ever shared between
	// aggregators, and realms never move, so zero revocations.
	impl := core.New(core.Options{Persistent: true, Align: cfg.PageSize, Validate: true})
	res, err := colltest.RunWriteSteps(cfg, wl, mpiio.Info{Collective: impl}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := colltest.VerifyImage(wl, res.Image); err != nil {
		t.Fatal(err)
	}
	if revokes := stats.Merge(res.World.Recorders()...).Counter(stats.CLockRevokes); revokes != 0 {
		t.Errorf("persistent aligned realms still caused %d revocations", revokes)
	}

	// Unaligned realms share boundary pages between neighbouring
	// aggregators: the lock manager must be visibly engaged.
	plain := core.New(core.Options{Validate: true})
	res2, err := colltest.RunWriteSteps(cfg, wl, mpiio.Info{Collective: plain}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if revokes := stats.Merge(res2.World.Recorders()...).Counter(stats.CLockRevokes); revokes == 0 {
		t.Error("unaligned realms caused no revocations; lock model inert")
	}
}

func TestConditionalSieving(t *testing.T) {
	cfg := sim.DefaultConfig()
	// Small extent (96B < threshold): conditional should behave like
	// data sieving; large extent (64KB > 16KB): like naive.
	small := colltest.Workload{Ranks: 4, RegionSize: 64, RegionCount: 64, Spacing: 32}
	large := colltest.Workload{Ranks: 4, RegionSize: 16 << 10, RegionCount: 8, Spacing: 48 << 10}

	elapsed := func(wl colltest.Workload, o core.Options) sim.Time {
		res, err := colltest.RunWrite(cfg, wl, mpiio.Info{Collective: core.New(o)})
		if err != nil {
			t.Fatal(err)
		}
		if err := colltest.VerifyImage(wl, res.Image); err != nil {
			t.Fatal(err)
		}
		return res.Elapsed
	}

	// Conditional adds one allreduce (agreeing on the extent), so allow a
	// few percent over the fixed-method runs.
	condSmall := elapsed(small, core.Options{Conditional: true})
	sieveSmall := elapsed(small, core.Options{Method: mpiio.DataSieve})
	naiveSmall := elapsed(small, core.Options{Method: mpiio.Naive})
	if condSmall > sieveSmall*1.05 {
		t.Errorf("conditional on small extent (%v) did not match sieve (%v); naive was %v",
			condSmall, sieveSmall, naiveSmall)
	}
	if condSmall > naiveSmall {
		t.Errorf("conditional on small extent (%v) slower than naive (%v)", condSmall, naiveSmall)
	}

	condLarge := elapsed(large, core.Options{Conditional: true})
	naiveLarge := elapsed(large, core.Options{Method: mpiio.Naive})
	if condLarge > naiveLarge*1.05 {
		t.Errorf("conditional on large extent (%v) did not match naive (%v)", condLarge, naiveLarge)
	}
}

func TestRequestExchangeIsCompact(t *testing.T) {
	// The new implementation ships O(D) request bytes; with a succinct
	// filetype D == 1, so request traffic must be tiny even for many
	// regions.
	wl := colltest.Workload{Ranks: 4, RegionSize: 8, RegionCount: 2048, Spacing: 8}
	res, err := colltest.RunWrite(sim.DefaultConfig(), wl,
		mpiio.Info{Collective: core.New(core.Options{})})
	if err != nil {
		t.Fatal(err)
	}
	req := stats.Merge(res.World.Recorders()...).Counter(stats.CReqBytes)
	// 4 ranks x 4 aggregators x ~60-byte flat.
	if req > 4*4*128 {
		t.Errorf("request bytes = %d, want O(D) per rank-aggregator pair", req)
	}
	if err := colltest.VerifyImage(wl, res.Image); err != nil {
		t.Fatal(err)
	}
}

func TestNameIncludesPolicy(t *testing.T) {
	impl := core.New(core.Options{Assigner: realm.Cyclic{Block: 1024}, Comm: core.Alltoallw})
	want := "flexio(cyclic/block=1024,alltoallw)"
	if impl.Name() != want {
		t.Errorf("Name = %q, want %q", impl.Name(), want)
	}
	if got := core.ROMIO(core.Options{}).Name(); got != "romio-twophase" {
		t.Errorf("ROMIO's Name = %q, want romio-twophase", got)
	}
}

// TestOldAndNewProduceIdenticalFiles is the central cross-implementation
// check: the ROMIO baseline and the new planner write byte-identical files.
func TestOldAndNewProduceIdenticalFiles(t *testing.T) {
	wl := colltest.Workload{Ranks: 6, RegionSize: 48, RegionCount: 57, Spacing: 80, Disp: 13}
	cfg := sim.DefaultConfig()
	old, err := colltest.RunWrite(cfg, wl, mpiio.Info{Collective: core.ROMIO(core.Options{}), CollBufSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	niu, err := colltest.RunWrite(cfg, wl, mpiio.Info{
		Collective: core.New(core.Options{Validate: true}), CollBufSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if len(old.Image) != len(niu.Image) {
		t.Fatalf("image sizes differ: %d vs %d", len(old.Image), len(niu.Image))
	}
	for i := range old.Image {
		if old.Image[i] != niu.Image[i] {
			t.Fatalf("images differ at byte %d: old=%d new=%d", i, old.Image[i], niu.Image[i])
		}
	}
	if err := colltest.VerifyImage(wl, old.Image); err != nil {
		t.Fatal(err)
	}
}

// TestRequestVolumeOldVsNew verifies the paper's §5.3 tradeoff: the old
// implementation exchanges O(M) request bytes, the new one O(D·A); with a
// succinct filetype and many regions the new code's request traffic must
// be orders of magnitude smaller.
func TestRequestVolumeOldVsNew(t *testing.T) {
	wl := colltest.Workload{Ranks: 4, RegionSize: 8, RegionCount: 4096, Spacing: 120}
	cfg := sim.DefaultConfig()
	old, err := colltest.RunWrite(cfg, wl, mpiio.Info{Collective: core.ROMIO(core.Options{})})
	if err != nil {
		t.Fatal(err)
	}
	niu, err := colltest.RunWrite(cfg, wl, mpiio.Info{Collective: core.New(core.Options{})})
	if err != nil {
		t.Fatal(err)
	}
	oldReq := stats.Merge(old.World.Recorders()...).Counter(stats.CReqBytes)
	newReq := stats.Merge(niu.World.Recorders()...).Counter(stats.CReqBytes)
	if newReq*20 > oldReq {
		t.Errorf("request bytes old=%d new=%d; expected >20x reduction", oldReq, newReq)
	}
	// And the computation tradeoff goes the other way.
	oldPairs := stats.Merge(old.World.Recorders()...).Counter(stats.CPairsProcessed)
	newPairs := stats.Merge(niu.World.Recorders()...).Counter(stats.CPairsProcessed)
	if newPairs <= oldPairs {
		t.Logf("note: new pairs %d <= old pairs %d (succinct skipping very effective)", newPairs, oldPairs)
	}
}

// TestIntegratedSieveSingleCopy: the old implementation passes data through
// one buffer; the new one (sieve mode) passes it through two. The copy
// phase accounting must reflect that.
func TestIntegratedSieveSingleCopy(t *testing.T) {
	wl := baseWorkload()
	cfg := sim.DefaultConfig()
	old, err := colltest.RunWrite(cfg, wl, mpiio.Info{Collective: core.ROMIO(core.Options{})})
	if err != nil {
		t.Fatal(err)
	}
	niu, err := colltest.RunWrite(cfg, wl, mpiio.Info{
		Collective: core.New(core.Options{Method: mpiio.DataSieve})})
	if err != nil {
		t.Fatal(err)
	}
	oldCopy := stats.Merge(old.World.Recorders()...).Time(stats.PCopy)
	newCopy := stats.Merge(niu.World.Recorders()...).Time(stats.PCopy)
	if !(oldCopy < newCopy) {
		t.Errorf("double buffering not visible: old copy %v, new copy %v", oldCopy, newCopy)
	}
}
