package twophase_test

import (
	"bytes"
	"fmt"
	"testing"

	"flexio/internal/colltest"
	"flexio/internal/core"
	"flexio/internal/datatype"
	"flexio/internal/mpi"
	"flexio/internal/mpiio"
	"flexio/internal/pfs"
	"flexio/internal/sim"
	"flexio/internal/stats"
	"flexio/internal/twophase"
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

func TestWriteAll(t *testing.T) {
	wl := baseWorkload()
	res, err := colltest.RunWrite(sim.DefaultConfig(), wl, mpiio.Info{Collective: twophase.New()})
	if err != nil {
		t.Fatal(err)
	}
	if err := colltest.VerifyImage(wl, res.Image); err != nil {
		t.Fatal(err)
	}
}

func TestReadAll(t *testing.T) {
	wl := baseWorkload()
	if _, err := colltest.RunReadBack(sim.DefaultConfig(), wl, mpiio.Info{Collective: twophase.New()}); err != nil {
		t.Fatal(err)
	}
}

func TestWriteAllAggregatorCounts(t *testing.T) {
	wl := baseWorkload()
	for _, naggs := range []int{1, 2, 5, 8} {
		t.Run(fmt.Sprintf("naggs=%d", naggs), func(t *testing.T) {
			res, err := colltest.RunWrite(sim.DefaultConfig(), wl,
				mpiio.Info{Collective: twophase.New(), CbNodes: naggs})
			if err != nil {
				t.Fatal(err)
			}
			if err := colltest.VerifyImage(wl, res.Image); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestWriteAllManyRounds(t *testing.T) {
	wl := baseWorkload()
	res, err := colltest.RunWrite(sim.DefaultConfig(), wl,
		mpiio.Info{Collective: twophase.New(), CollBufSize: 192})
	if err != nil {
		t.Fatal(err)
	}
	if err := colltest.VerifyImage(wl, res.Image); err != nil {
		t.Fatal(err)
	}
}

func TestWriteAllEnumeratedFiletype(t *testing.T) {
	wl := baseWorkload()
	wl.Enumerate = true
	res, err := colltest.RunWrite(sim.DefaultConfig(), wl, mpiio.Info{Collective: twophase.New()})
	if err != nil {
		t.Fatal(err)
	}
	if err := colltest.VerifyImage(wl, res.Image); err != nil {
		t.Fatal(err)
	}
}

func TestWriteAllNoncontigMemory(t *testing.T) {
	wl := baseWorkload()
	wl.MemNoncontig = true
	wl.MemGap = 24
	res, err := colltest.RunWrite(sim.DefaultConfig(), wl, mpiio.Info{Collective: twophase.New()})
	if err != nil {
		t.Fatal(err)
	}
	if err := colltest.VerifyImage(wl, res.Image); err != nil {
		t.Fatal(err)
	}
}

func TestSingleRank(t *testing.T) {
	wl := colltest.Workload{Ranks: 1, RegionSize: 100, RegionCount: 17, Spacing: 28}
	res, err := colltest.RunWrite(sim.DefaultConfig(), wl, mpiio.Info{Collective: twophase.New()})
	if err != nil {
		t.Fatal(err)
	}
	if err := colltest.VerifyImage(wl, res.Image); err != nil {
		t.Fatal(err)
	}
}

// TestOldAndNewProduceIdenticalFiles is the central cross-implementation
// check: both collective engines must write byte-identical files.
func TestOldAndNewProduceIdenticalFiles(t *testing.T) {
	wl := colltest.Workload{Ranks: 6, RegionSize: 48, RegionCount: 57, Spacing: 80, Disp: 13}
	cfg := sim.DefaultConfig()
	old, err := colltest.RunWrite(cfg, wl, mpiio.Info{Collective: twophase.New(), CollBufSize: 1024})
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
	old, err := colltest.RunWrite(cfg, wl, mpiio.Info{Collective: twophase.New()})
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
	old, err := colltest.RunWrite(cfg, wl, mpiio.Info{Collective: twophase.New()})
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

func TestName(t *testing.T) {
	if twophase.New().Name() != "romio-twophase" {
		t.Fatal("unexpected name")
	}
}

// TestMemoHitsAtScale: the plan memo is per rank, so a world of more than
// 128 ranks keeps its steady state (one map of 128 entries per world kept
// nobody's): every call after the first hits on both sides.
func TestMemoHitsAtScale(t *testing.T) {
	const steps, aggs = 4, 16
	for _, ranks := range []int{256, 1024} {
		for _, enumerate := range []bool{false, true} {
			t.Run(fmt.Sprintf("P=%d/enumerate=%v", ranks, enumerate), func(t *testing.T) {
				wl := colltest.Workload{Ranks: ranks, RegionSize: 16, RegionCount: 32, Spacing: 128,
					NodeRanks: 16, Enumerate: enumerate}
				res, err := colltest.RunWriteSteps(sim.DefaultConfig(), wl,
					mpiio.Info{Collective: twophase.New(), CbNodes: aggs}, steps)
				if err != nil {
					t.Fatal(err)
				}
				if err := colltest.VerifyImage(wl, res.Image); err != nil {
					t.Fatal(err)
				}
				agg := stats.Merge(res.World.Recorders()...)
				hits, misses := agg.Counter(stats.CIsectCacheHits), agg.Counter(stats.CIsectCacheMisses)
				if u := int64(ranks + aggs); misses != u || hits != (steps-1)*u {
					t.Fatalf("hits=%d misses=%d, want hits=%d misses=%d", hits, misses, (steps-1)*u, u)
				}
			})
		}
	}
}

// TestMemoKeepsEightShapes is core's test of the same name for this engine's
// plan memo: eight shapes in rotation hit the second time round, nine never
// do, and every call planned into an evicted slot passes Options.Validate's
// cross-check and lands its bytes.
func TestMemoKeepsEightShapes(t *testing.T) {
	wl := baseWorkload()
	u := int64(2 * wl.Ranks)
	for _, tc := range []struct {
		shapes, calls int
		wantMisses    int64
	}{{2, 6, 2 * u}, {8, 24, 8 * u}, {9, 27, 27 * u}} {
		t.Run(fmt.Sprint(tc.shapes, " shapes"), func(t *testing.T) {
			cfg := sim.DefaultConfig()
			w, fs := mpi.NewWorld(wl.Ranks, cfg), pfs.NewFileSystem(cfg)
			eng := core.ROMIO(core.Options{Validate: true})
			errs := make([]error, wl.Ranks)
			w.Run(func(p *mpi.Proc) {
				r := p.Rank()
				f, err := mpiio.Open(p, fs, "shapes.dat", mpiio.Info{Collective: eng})
				if err != nil {
					errs[r] = err
					return
				}
				ft, disp := wl.Filetype(r)
				mt, _ := wl.Memtype()
				buf := wl.FillBuffer(r)
				for c := 0; c < tc.calls && errs[r] == nil; c++ {
					if errs[r] = f.SetView(disp+int64(c%tc.shapes)*4096, datatype.Bytes(1), ft); errs[r] == nil {
						errs[r] = f.WriteAll(buf, mt, wl.RegionCount)
					}
				}
				f.Close()
			})
			for r, err := range errs {
				if err != nil {
					t.Fatalf("rank %d: %v", r, err)
				}
			}
			agg := stats.Merge(w.Recorders()...)
			hits, misses := agg.Counter(stats.CIsectCacheHits), agg.Counter(stats.CIsectCacheMisses)
			if misses != tc.wantMisses || hits != int64(tc.calls)*u-tc.wantMisses {
				t.Fatalf("hits=%d misses=%d, want %d misses of %d lookups", hits, misses, tc.wantMisses, int64(tc.calls)*u)
			}
			// The last shape written overlaps none that followed it.
			last := wl
			last.Disp += int64((tc.calls-1)%tc.shapes) * 4096
			img, want := fs.Snapshot("shapes.dat", last.FileSize()), last.Reference()
			for i := int64(0); i < wl.RegionCount; i++ {
				for r := 0; r < wl.Ranks; r++ {
					off := last.Disp + (i*int64(wl.Ranks)+int64(r))*(wl.RegionSize+wl.Spacing)
					if !bytes.Equal(img[off:off+wl.RegionSize], want[off:off+wl.RegionSize]) {
						t.Fatalf("region %d of rank %d is not in the file", i, r)
					}
				}
			}
		})
	}
}
