package core_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"flexio/internal/colltest"
	"flexio/internal/core"
	"flexio/internal/datatype"
	"flexio/internal/metrics"
	"flexio/internal/mpi"
	"flexio/internal/mpiio"
	"flexio/internal/sim"
)

var byteType = datatype.Bytes(1)

// The memoization tests assert hit/miss counts exactly. Per collective
// call every rank does one client-side cache lookup and every aggregator
// one aggregator-side lookup, so with naggs == ranks a call where every
// lookup misses adds 2*ranks misses.

func cacheCounts(rs ...*metrics.Registry) (hits, misses int64) {
	agg := metrics.Merge(rs...)
	return agg.Counter(metrics.CMemoHits), agg.Counter(metrics.CMemoMisses)
}

// runScript opens one file per rank on a fresh world and runs the given
// per-rank script against it, so tests can change views between
// collective calls.
func runScript(t *testing.T, ranks int, info mpiio.Info, script func(p *mpi.Proc, f *mpiio.File) error) *mpi.World {
	t.Helper()
	w, _ := planWorld(t, ranks, 0, info, script)
	return w
}

// TestMemoSteadyStateHits: unchanged repeat calls must hit — the first
// call populates both cache sides, every later identical call hits both.
func TestMemoSteadyStateHits(t *testing.T) {
	wl := baseWorkload()
	u := int64(2 * wl.Ranks) // client + agg lookups per fully-missing call
	for _, tc := range []struct {
		name string
		opts core.Options
	}{
		{"nonblocking-pfr", core.Options{Persistent: true, Validate: true}},
		{"alltoallw", core.Options{Comm: core.Alltoallw, Validate: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const steps = 4
			res, err := colltest.RunWriteSteps(sim.DefaultConfig(), wl,
				mpiio.Info{Collective: core.New(tc.opts)}, steps)
			if err != nil {
				t.Fatal(err)
			}
			if err := colltest.VerifyImage(wl, res.Image); err != nil {
				t.Fatal(err)
			}
			hits, misses := cacheCounts(res.World.Totals())
			if misses != u || hits != (steps-1)*u {
				t.Fatalf("hits=%d misses=%d, want hits=%d misses=%d",
					hits, misses, (steps-1)*u, u)
			}
		})
	}
}

// TestMemoFiletypeChangeMisses: switching to a structurally different
// filetype must miss; switching back to an equal-but-fresh filetype
// object misses the identity-keyed client cache but hits the
// content-hashed aggregator cache.
func TestMemoFiletypeChangeMisses(t *testing.T) {
	wlA := baseWorkload()
	wlB := baseWorkload()
	wlB.RegionSize *= 2
	ranks := wlA.Ranks
	w := runScript(t, ranks, mpiio.Info{Collective: core.New(core.Options{Validate: true})},
		func(p *mpi.Proc, f *mpiio.File) error {
			write := func(wl colltest.Workload, times int) error {
				ft, disp := wl.Filetype(p.Rank())
				if err := f.SetView(disp, byteType, ft); err != nil {
					return err
				}
				mt, _ := wl.Memtype()
				buf := wl.FillBuffer(p.Rank())
				for i := 0; i < times; i++ {
					if err := f.WriteAll(buf, mt, wl.RegionCount); err != nil {
						return err
					}
				}
				return nil
			}
			if err := write(wlA, 2); err != nil { // miss, hit
				return err
			}
			if err := write(wlB, 2); err != nil { // miss, hit
				return err
			}
			return write(wlA, 1) // fresh ft object: client miss, agg hit
		})
	hits, misses := cacheCounts(w.Totals())
	r := int64(ranks)
	wantMisses := 2*2*r + r // two full-miss calls + one client-only miss
	wantHits := 2*2*r + r   // two full-hit calls + one agg-only hit
	if misses != wantMisses || hits != wantHits {
		t.Fatalf("hits=%d misses=%d, want hits=%d misses=%d",
			hits, misses, wantHits, wantMisses)
	}
}

// TestMemoOffsetChangeMisses: the same filetype object at a different view
// displacement must miss (the file offsets all shift).
func TestMemoOffsetChangeMisses(t *testing.T) {
	wl := baseWorkload()
	ranks := wl.Ranks
	w := runScript(t, ranks, mpiio.Info{Collective: core.New(core.Options{Validate: true})},
		func(p *mpi.Proc, f *mpiio.File) error {
			ft, disp := wl.Filetype(p.Rank())
			mt, _ := wl.Memtype()
			buf := wl.FillBuffer(p.Rank())
			for _, d := range []int64{disp, disp + 4096} {
				if err := f.SetView(d, byteType, ft); err != nil {
					return err
				}
				for i := 0; i < 2; i++ { // miss, hit per displacement
					if err := f.WriteAll(buf, mt, wl.RegionCount); err != nil {
						return err
					}
				}
			}
			return nil
		})
	hits, misses := cacheCounts(w.Totals())
	want := 2 * 2 * int64(ranks)
	if misses != want || hits != want {
		t.Fatalf("hits=%d misses=%d, want %d of each", hits, misses, want)
	}
}

// TestMemoRealmReassignmentMisses: a rank whose own key fields (filetype
// identity, displacement, transfer size, cb, naggs) are all unchanged must
// still miss when the realm assignment moves underneath it — here because
// another rank's access stretches the aggregate region and the Even
// assigner recomputes wider realms.
func TestMemoRealmReassignmentMisses(t *testing.T) {
	wl := baseWorkload()
	wlFar := baseWorkload()
	wlFar.Disp += 1 << 20
	ranks := wl.Ranks
	w := runScript(t, ranks, mpiio.Info{Collective: core.New(core.Options{Validate: true})},
		func(p *mpi.Proc, f *mpiio.File) error {
			ft, disp := wl.Filetype(p.Rank())
			mt, _ := wl.Memtype()
			buf := wl.FillBuffer(p.Rank())
			if err := f.SetView(disp, byteType, ft); err != nil {
				return err
			}
			for i := 0; i < 2; i++ { // miss, hit
				if err := f.WriteAll(buf, mt, wl.RegionCount); err != nil {
					return err
				}
			}
			// SetView is collective (it carries a barrier), so every rank
			// calls it — but only the last rank changes its access; the
			// others re-set the identical view (same filetype object, same
			// displacement), leaving their client keys — minus the realm
			// signature — untouched.
			newFt, newDisp := ft, disp
			if p.Rank() == ranks-1 {
				newFt, newDisp = wlFar.Filetype(p.Rank())
			}
			if err := f.SetView(newDisp, byteType, newFt); err != nil {
				return err
			}
			for i := 0; i < 2; i++ { // miss (realms moved), hit
				if err := f.WriteAll(buf, mt, wl.RegionCount); err != nil {
					return err
				}
			}
			return nil
		})
	// Rank 0 never changed anything about its own call, yet its client
	// lookups must go miss, hit, miss, hit.
	hits0, misses0 := cacheCounts(w.Proc(0).Metrics)
	if misses0 != 4 || hits0 != 4 {
		t.Fatalf("rank 0: hits=%d misses=%d, want 4 of each", hits0, misses0)
	}
	hits, misses := cacheCounts(w.Totals())
	want := 2 * 2 * int64(ranks)
	if misses != want || hits != want {
		t.Fatalf("total: hits=%d misses=%d, want %d of each", hits, misses, want)
	}
}

// TestMemoHitsAtScale: what a rank remembers must not depend on how many
// ranks there are. When the memo was one map of 128 entries per world, a
// world of more than 128 ranks evicted its whole steady state on every call
// (148 hits of 1,088 lookups at P=256, 115 of 8,320 at P=1024 over 8 steps);
// per rank, every call after the first hits on both sides, on every engine
// and filetype form.
func TestMemoHitsAtScale(t *testing.T) {
	const steps, aggs = 4, 16
	for _, ranks := range []int{256, 1024} {
		for _, e := range []struct {
			name      string
			engine    func() mpiio.Collective
			enumerate bool
		}{
			{"nonblocking", func() mpiio.Collective { return core.New(core.Options{Comm: core.Nonblocking}) }, false},
			{"alltoallw", func() mpiio.Collective { return core.New(core.Options{Comm: core.Alltoallw}) }, false},
			{"romio/enumerate=false", func() mpiio.Collective { return core.ROMIO(core.Options{}) }, false},
			{"romio/enumerate=true", func() mpiio.Collective { return core.ROMIO(core.Options{}) }, true},
		} {
			t.Run(fmt.Sprintf("P=%d/%s", ranks, e.name), func(t *testing.T) {
				wl := colltest.Workload{Ranks: ranks, RegionSize: 16, RegionCount: 32, Spacing: 128, NodeRanks: 16,
					Enumerate: e.enumerate}
				res, err := colltest.RunWriteSteps(sim.DefaultConfig(), wl,
					mpiio.Info{Collective: e.engine(), CbNodes: aggs}, steps)
				if err != nil {
					t.Fatal(err)
				}
				if err := colltest.VerifyImage(wl, res.Image); err != nil {
					t.Fatal(err)
				}
				hits, misses := cacheCounts(res.World.Totals())
				if u := int64(ranks + aggs); misses != u || hits != (steps-1)*u {
					t.Fatalf("hits=%d misses=%d, want hits=%d misses=%d", hits, misses, (steps-1)*u, u)
				}
			})
		}
	}
}

// shapeScript writes the workload through the given view displacements, one
// collective call each, with one filetype object for all of them.
func shapeScript(wl colltest.Workload, disps []int64) func(p *mpi.Proc, f *mpiio.File) error {
	return func(p *mpi.Proc, f *mpiio.File) error {
		ft, disp := wl.Filetype(p.Rank())
		mt, _ := wl.Memtype()
		buf := wl.FillBuffer(p.Rank())
		for _, d := range disps {
			if err := f.SetView(disp+d, byteType, ft); err != nil {
				return err
			}
			if err := f.WriteAll(buf, mt, wl.RegionCount); err != nil {
				return err
			}
		}
		return nil
	}
}

// TestMemoKeepsEightShapes: a rank remembers eight shapes per side, least
// recently used out first. Two alternating shapes hit from the third call
// on; eight in rotation all hit the second time round; nine in rotation never
// do (each call evicts the shape the next-but-seven needs), and every one of
// those calls, planned into the slot of the shape it evicted, still moves the
// right bytes under Validate's cross-checks. The ROMIO baseline's plans live
// in the same memo.
func TestMemoKeepsEightShapes(t *testing.T) {
	wl := baseWorkload()
	u := int64(2 * wl.Ranks) // lookups per call: naggs == ranks
	rotate := func(shapes, calls int) (disps []int64) {
		for c := 0; c < calls; c++ {
			disps = append(disps, int64(c%shapes)*4096)
		}
		return disps
	}
	for _, tc := range []struct {
		name          string
		shapes, calls int
		wantMisses    int64
	}{
		{"alternating", 2, 6, 2 * u},
		{"eight", 8, 24, 8 * u},
		{"nine", 9, 27, 27 * u},
		{"romio/2 shapes", 2, 6, 2 * u},
		{"romio/8 shapes", 8, 24, 8 * u},
		{"romio/9 shapes", 9, 27, 27 * u},
	} {
		t.Run(tc.name, func(t *testing.T) {
			engine := core.New
			if strings.HasPrefix(tc.name, "romio/") {
				engine = core.ROMIO
			}
			info := mpiio.Info{Collective: engine(core.Options{Validate: true})}
			w, fs := planWorld(t, wl.Ranks, 0, info, shapeScript(wl, rotate(tc.shapes, tc.calls)))
			hits, misses := cacheCounts(w.Totals())
			if misses != tc.wantMisses || hits != int64(tc.calls)*u-tc.wantMisses {
				t.Fatalf("hits=%d misses=%d, want %d misses of %d lookups", hits, misses, tc.wantMisses, int64(tc.calls)*u)
			}
			// The last call of every shape is in the file.
			for s := 0; s < tc.shapes; s++ {
				at := wl
				at.Disp += int64(s) * 4096
				img := fs.Snapshot("plan.dat", at.FileSize())
				want := at.Reference()
				for r := 0; r < wl.Ranks; r++ {
					off := at.Disp + int64(r)*(wl.RegionSize+wl.Spacing)
					if !bytes.Equal(img[off:off+wl.RegionSize], want[off:off+wl.RegionSize]) {
						t.Fatalf("shape %d: rank %d's first region is not in the file", s, r)
					}
				}
			}
		})
	}
}
