package twophase_test

// These tests keep the names they had before the ROMIO baseline's tests
// joined core's tables as romio rows. They exercise New, the one entry
// point the benchmark module still calls, and go with the package.

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

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

// TestMalformedRequestAbortsCollective is the repro the baseline's malformed
// requests were found with: integrity off, one bit of the sender's first
// request to rank 0 flipped in flight, in the shape of core's test of the
// same name (four ranks, two aggregators, one round), whose romio rows plant
// the damage in the sender's memo entry instead. Seeds 4 and 7 once panicked
// rank 0, seed 2 was caught only by the file system's span check, and the
// other five lost the sender's bytes without a word (the flip pushed a pair
// out of every round's window). Every rank must abort alike, and rank 0 must
// name the sender.
func TestMalformedRequestAbortsCollective(t *testing.T) {
	const bad = 2
	wl := colltest.Workload{Ranks: 4, RegionSize: 64, RegionCount: 16, Spacing: 32}
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprint("bit flip/seed ", seed), func(t *testing.T) {
			cfg := sim.DefaultConfig()
			w, fs := mpi.NewWorld(wl.Ranks, cfg), pfs.NewFileSystem(cfg)
			w.SetRankFaults(mpi.NewRankFaultSchedule(seed).Corrupt(bad, 0, 1.0, 1, 1))
			info := mpiio.Info{Collective: twophase.New(), CbNodes: 2, CollBufSize: 4 << 10}
			errs := make([]error, wl.Ranks)
			done := make(chan struct{})
			go func() {
				defer close(done)
				w.Run(func(p *mpi.Proc) {
					r := p.Rank()
					f, err := mpiio.Open(p, fs, "bad.dat", info)
					if err != nil {
						errs[r] = err
						return
					}
					defer f.Close()
					ft, disp := wl.Filetype(r)
					if errs[r] = f.SetView(disp, datatype.Bytes(1), ft); errs[r] == nil {
						mt, _ := wl.Memtype()
						errs[r] = f.WriteAll(wl.FillBuffer(r), mt, wl.RegionCount)
					}
				})
			}()
			select {
			case <-done:
			case <-time.After(30 * time.Second):
				t.Fatal("collective hung")
			}
			for r, err := range errs {
				if err == nil || mpiio.ErrorClass(err) != mpiio.ErrorClass(errs[0]) {
					t.Fatalf("rank %d returned %v, rank 0 %v", r, err, errs[0])
				}
			}
			if !strings.Contains(errs[0].Error(), fmt.Sprintf("bad request from rank %d", bad)) {
				t.Fatalf("rank 0's error does not name the sender: %v", errs[0])
			}
		})
	}
}

// preaggImage runs one collective write and returns the verified image.
func preaggImage(t *testing.T, wl colltest.Workload, info mpiio.Info) (colltest.Result, []byte) {
	t.Helper()
	res, err := colltest.RunWrite(sim.DefaultConfig(), wl, info)
	if err != nil {
		t.Fatal(err)
	}
	if err := colltest.VerifyImage(wl, res.Image); err != nil {
		t.Fatal(err)
	}
	return res, res.Image
}

// TestPreaggWriteByteIdentical: with pre-aggregation on, the baseline's
// written file is byte-identical to the per-rank exchange, across node
// sizes (including ones that do not divide the world).
func TestPreaggWriteByteIdentical(t *testing.T) {
	for _, nodeRanks := range []int{2, 3, 4, 8} {
		t.Run(fmt.Sprintf("nodes%d", nodeRanks), func(t *testing.T) {
			wl := baseWorkload()
			wl.NodeRanks = nodeRanks
			_, plain := preaggImage(t, wl, mpiio.Info{Collective: twophase.New()})
			_, merged := preaggImage(t, wl, mpiio.Info{Collective: core.ROMIO(core.Options{Preagg: true})})
			if !bytes.Equal(plain, merged) {
				t.Fatalf("pre-aggregated image differs from per-rank image")
			}
		})
	}
}

// TestPreaggReadMatrix: collective reads with pre-aggregation return the
// exact bytes an independent write produced (the harness checks every
// rank's buffer, so the leader scatter is fully exercised).
func TestPreaggReadMatrix(t *testing.T) {
	for _, nodeRanks := range []int{2, 4} {
		t.Run(fmt.Sprintf("nodes%d", nodeRanks), func(t *testing.T) {
			wl := baseWorkload()
			wl.NodeRanks = nodeRanks
			info := mpiio.Info{Collective: core.ROMIO(core.Options{Preagg: true})}
			if _, err := colltest.RunReadBack(sim.DefaultConfig(), wl, info); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestPreaggVariants exercises the wrinkles that interact with the merge:
// noncontiguous memory, many small rounds, and a capped aggregator count.
func TestPreaggVariants(t *testing.T) {
	cases := []struct {
		name string
		tune func(*colltest.Workload, *mpiio.Info)
	}{
		{"mem-noncontig", func(wl *colltest.Workload, in *mpiio.Info) {
			wl.MemNoncontig = true
			wl.MemGap = 48
		}},
		{"many-rounds", func(wl *colltest.Workload, in *mpiio.Info) {
			in.CollBufSize = 192
		}},
		{"few-aggs", func(wl *colltest.Workload, in *mpiio.Info) {
			in.CbNodes = 3
		}},
		{"no-node-map", func(wl *colltest.Workload, in *mpiio.Info) {
			wl.NodeRanks = 0 // identity map: every rank leads itself
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wl := baseWorkload()
			wl.NodeRanks = 4
			plainInfo := mpiio.Info{Collective: twophase.New()}
			preInfo := mpiio.Info{Collective: core.ROMIO(core.Options{Preagg: true})}
			tc.tune(&wl, &plainInfo)
			wl2 := baseWorkload()
			wl2.NodeRanks = 4
			tc.tune(&wl2, &preInfo)
			_, plain := preaggImage(t, wl, plainInfo)
			_, merged := preaggImage(t, wl2, preInfo)
			if !bytes.Equal(plain, merged) {
				t.Fatalf("pre-aggregated image differs from per-rank image")
			}
		})
	}
}
