package core

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"testing"
	"unsafe"

	"flexio/internal/bufpool"
	"flexio/internal/colltest"
	"flexio/internal/datatype"
	"flexio/internal/hpio"
	"flexio/internal/metrics"
	"flexio/internal/mpi"
	"flexio/internal/mpiio"
	"flexio/internal/pfs"
	"flexio/internal/sim"
)

// An aggregator writes each batch where its clients' views left it: the
// plan's walk over the received view tables feeds pfs, which copies each
// piece once, into its page. These tests hold that walk to the gathered copy
// the aggregator made before, and hold what it keeps to one view per client
// run.

// gather is the gathered-copy reference: the batch's pieces in file order,
// each the next unread bytes of its client's views in its round, appended to
// one buffer, as the aggregator's host copy did.
func gather(b *batchData, n int64) []byte {
	out := make([]byte, 0, n)
	views := map[int][][]byte{}
	cur := map[int]*viewCursor{}
	e := 0
	for r := b.first; int64(len(out)) < n; r++ {
		rp := b.agg.Round(r)
		for _, pb := range rp.Peers {
			lo := 0
			if e > 0 {
				lo = b.ends[e-1]
			}
			views[pb.Client], cur[pb.Client] = b.views[lo:b.ends[e]], &viewCursor{}
			e++
		}
		for _, it := range rp.Order {
			for k := it.Len; k > 0; {
				v := cur[int(it.Run)].take(views[int(it.Run)], k)
				if v == nil {
					panic(fmt.Sprintf("payload of rank %d is short", it.Run))
				}
				out = append(out, v...)
				k -= int64(len(v))
			}
		}
	}
	return out
}

// inplaceRun is one collective write of every rank's (disp, filetype, data)
// with one aggregator, whose storage calls alone decide virtual time: two
// runs of it are equal to the bit.
type inplaceRun struct {
	ranks  int
	info   mpiio.Info
	engine func() mpiio.Collective
	views  func(rank int) (disp int64, ft datatype.Type, data []byte)
	// arm installs the case's faults on a fresh world and file system and
	// returns how many it injected once the call is done.
	arm func(w *mpi.World, fs *pfs.FileSystem) func() int64
}

type inplaceOutcome struct {
	image    []byte
	clocks   []uint64
	errs     []error
	injected int64
}

func (c inplaceRun) run(t *testing.T) inplaceOutcome {
	t.Helper()
	cfg := sim.DefaultConfig()
	w, fs := mpi.NewWorld(c.ranks, cfg), pfs.NewFileSystem(cfg)
	injected := func() int64 { return 0 }
	if c.arm != nil {
		injected = c.arm(w, fs)
	}
	info := c.info
	info.Collective, info.CbNodes = c.engine(), 1
	errs := make([]error, c.ranks)
	w.Run(func(p *mpi.Proc) {
		r := p.Rank()
		f, err := mpiio.Open(p, fs, "inplace.dat", info)
		if err != nil {
			errs[r] = err
			return
		}
		defer f.Close()
		disp, ft, data := c.views(r)
		if errs[r] = f.SetView(disp, datatype.Bytes(1), ft); errs[r] == nil {
			errs[r] = f.WriteAll(data, datatype.Bytes(int64(len(data))), 1)
		}
	})
	out := inplaceOutcome{errs: errs, injected: injected(),
		image: fs.Snapshot("inplace.dat", fs.Size("inplace.dat"))}
	for r := 0; r < c.ranks; r++ {
		out.clocks = append(out.clocks, math.Float64bits(float64(w.Proc(r).Clock())))
	}
	return out
}

// interleaved is four ranks' 48-byte regions, 16 bytes apart, 64 each.
func interleaved(rank int) (int64, datatype.Type, []byte) {
	wl := colltest.Workload{Ranks: 4, RegionSize: 48, RegionCount: 64, Spacing: 16}
	ft, disp := wl.Filetype(rank)
	return disp, datatype.Must(datatype.Contiguous(wl.RegionCount, ft)), wl.FillBuffer(rank)
}

// sparse is four ranks' 16-byte regions, 112 bytes apart, 64 each: one
// aggregator's 1 KiB rounds carry 128 data bytes, so under DataSieve a batch
// is eight rounds (two under a 2 KiB sieve buffer).
func sparse(rank int) (int64, datatype.Type, []byte) {
	wl := colltest.Workload{Ranks: 4, RegionSize: 16, RegionCount: 64, Spacing: 112}
	ft, disp := wl.Filetype(rank)
	return disp, datatype.Must(datatype.Contiguous(wl.RegionCount, ft)), wl.FillBuffer(rank)
}

// nested is four contiguous accesses where one contains the next: rank 0's
// [0, 3000) holds rank 1's [100, 300), and ranks 2 and 3 overlap at the ends.
func nested(rank int) (int64, datatype.Type, []byte) {
	at := [][2]int64{{0, 3000}, {100, 200}, {2900, 600}, {3400, 600}}[rank]
	return at[0], datatype.Bytes(at[1]), hpio.Fill(make([]byte, at[1]), rank, 0)
}

// TestInPlaceWriteMatchesGatheredCopy: every edge the view-fed write path
// has, against the gathered copy, under each exchange strategy: the file
// image and every rank's clock are identical to the bit. Sieve windows of
// 1000 bytes cut views (and pages) mid-way; nested segments cut at a window
// edge go through the staging buffer; sparse rounds batch, so the walk
// crosses rounds; a fault retried, resumed or degraded re-reads the batch
// from where the write left it or from its start.
func TestInPlaceWriteMatchesGatheredCopy(t *testing.T) {
	sieve := mpiio.Info{CollBufSize: 4096, SieveBufSize: 1000}
	batched := mpiio.Info{CollBufSize: 1024}
	rule := func(r pfs.Rule) func(w *mpi.World, fs *pfs.FileSystem) func() int64 {
		return func(w *mpi.World, fs *pfs.FileSystem) func() int64 {
			s := pfs.NewFaultSchedule(5).Add(r)
			fs.SetFaultSchedule(s)
			return s.Injected
		}
	}
	cases := []struct {
		name   string
		views  func(int) (int64, datatype.Type, []byte)
		info   mpiio.Info
		opts   Options
		romio  bool
		arm    func(w *mpi.World, fs *pfs.FileSystem) func() int64
		faults bool
	}{
		{name: "window-cuts-views", views: interleaved, info: sieve},
		{name: "nested-across-window-edge", views: nested, info: sieve},
		{name: "naive", views: interleaved, info: sieve, opts: Options{Method: mpiio.Naive}},
		{name: "listio", views: interleaved, info: sieve, opts: Options{Method: mpiio.ListIO}},
		{name: "integrated-sieve", views: interleaved, info: sieve, romio: true},
		{name: "partial-resumes-mid-view", views: interleaved, info: sieve, faults: true,
			arm: rule(pfs.Rule{Kind: "write", Class: pfs.ClassPartial, Frac: 0.37, Count: 3})},
		{name: "partial-listio", views: interleaved, info: sieve, opts: Options{Method: mpiio.ListIO}, faults: true,
			arm: rule(pfs.Rule{Kind: "write", Class: pfs.ClassPartial, Frac: 0.61, Count: 2})},
		{name: "transient-retry", views: interleaved, info: sieve, faults: true,
			arm: rule(pfs.Rule{Kind: "write", Class: pfs.ClassTransient, Count: 2})},
		{name: "degrade-rewalks", views: interleaved, faults: true,
			info: mpiio.Info{CollBufSize: 4096, SieveBufSize: 1000, RetryLimit: -1}, opts: Options{Degraded: true},
			arm: rule(pfs.Rule{Kind: "write", Class: pfs.ClassIO, Match: func(op pfs.Op) bool { return op.Sieve }})},
		{name: "batch-of-rounds", views: sparse, info: batched},
		{name: "batch-pairs-partial", views: sparse, faults: true,
			info: mpiio.Info{CollBufSize: 1024, SieveBufSize: 2048},
			arm:  rule(pfs.Rule{Kind: "write", Class: pfs.ClassPartial, Frac: 0.45, Count: 4})},
		{name: "batch-degrade-rewalks", views: sparse, faults: true,
			info: mpiio.Info{CollBufSize: 1024, RetryLimit: -1}, opts: Options{Degraded: true},
			arm: rule(pfs.Rule{Kind: "write", Class: pfs.ClassIO, Match: func(op pfs.Op) bool { return op.Sieve }})},
		{name: "corrupt-repaired", views: interleaved, info: sieve, faults: true,
			arm: func(w *mpi.World, _ *pfs.FileSystem) func() int64 {
				w.EnableIntegrity(9)
				w.SetRankFaults(mpi.NewRankFaultSchedule(9).Corrupt(2, 0, 1, 3))
				return func() int64 { return w.Totals().Counter(metrics.CIntegWireRepaired) }
			}},
	}
	for _, tc := range cases {
		for _, comm := range []CommStrategy{Nonblocking, Alltoallw, Blocking} {
			t.Run(tc.name+"/"+comm.String(), func(t *testing.T) {
				run := inplaceRun{ranks: 4, info: tc.info, views: tc.views, arm: tc.arm,
					engine: func() mpiio.Collective {
						o := tc.opts
						o.Comm = comm
						if tc.romio {
							return ROMIO(o)
						}
						return New(o)
					}}
				got := run.run(t)
				gatheredBatches = gather
				want := run.run(t)
				gatheredBatches = nil
				if err := errors.Join(want.errs...); err != nil {
					t.Fatalf("reference: %v", err)
				}
				if err := errors.Join(got.errs...); err != nil {
					t.Fatalf("in place: %v", err)
				}
				if tc.faults && (got.injected == 0 || got.injected != want.injected) {
					t.Errorf("%d faults injected in place, %d in the reference: want the same, and some", got.injected, want.injected)
				}
				if !bytes.Equal(got.image, want.image) {
					t.Errorf("file images differ (%d and %d bytes)", len(got.image), len(want.image))
				}
				for r := range got.clocks {
					if got.clocks[r] != want.clocks[r] {
						t.Errorf("rank %d clock %x, reference %x", r, got.clocks[r], want.clocks[r])
					}
				}
			})
		}
	}
}

// retainedBytes is what a rank's round executor keeps between calls: the
// capacity of the tables its scratch owns. A view table counts its headers,
// not the bytes they reference; the tables received from peers and the
// batch's per-round walk state alias peers' tables, the plan and the batch's
// own views.
func retainedBytes(scr *roundScratch) int64 {
	const hdr = int64(unsafe.Sizeof([]byte(nil)))
	b := &scr.batch
	n := int64(cap(b.views))*hdr + int64(cap(b.ends))*8 + int64(cap(b.tab))*hdr +
		int64(cap(b.cur))*int64(unsafe.Sizeof(viewCursor{})) +
		int64(cap(scr.recvIov)+cap(scr.waited)+cap(scr.pages))*hdr
	for k := range scr.iov {
		iov := scr.iov[k][:cap(scr.iov[k])]
		n += int64(len(iov))*hdr + int64(cap(scr.reqs[k]))*8
		for _, v := range iov {
			n += int64(cap(v)) * hdr
		}
	}
	return n
}

// TestWriteBatchKeepsNoPieceTable is a steady-state write shaped like the
// benchmark's tiny-enum-write (pieces of 16 B through an enumerated filetype,
// a 64 KiB collective buffer, DataSieve batches of four rounds) against the
// same bytes in pieces four times as long. What each rank's executor keeps is
// the same for both: one view per client run, never one per piece. And the
// pool sees one get per rank per call for a packed stream (memory segments of
// 16 B), none for dense memory and none for a lent stream (memory segments of
// 256 B): an aggregator takes none.
func TestWriteBatchKeepsNoPieceTable(t *testing.T) {
	const ranks, steps = 8, 3
	call := func(wl colltest.Workload) (retained []int64, gets int64) {
		cfg := sim.DefaultConfig()
		w, fs := mpi.NewWorld(ranks, cfg), pfs.NewFileSystem(cfg)
		eng := New(Options{})
		info := mpiio.Info{Collective: eng, CbNodes: 4, CollBufSize: 64 << 10}
		mt, _ := wl.Memtype()
		for step := 0; step < steps; step++ {
			before := bufpool.Snapshot()
			errs := make([]error, ranks)
			w.Run(func(p *mpi.Proc) {
				r := p.Rank()
				f, err := mpiio.Open(p, fs, "tiny.dat", info)
				if err != nil {
					errs[r] = err
					return
				}
				defer f.Close()
				ft, disp := wl.Filetype(r)
				if errs[r] = f.SetView(disp, datatype.Bytes(1), ft); errs[r] == nil {
					errs[r] = f.WriteAll(wl.FillBuffer(r), mt, wl.RegionCount)
				}
			})
			gets = bufpool.Snapshot().Gets - before.Gets
			if err := errors.Join(errs...); err != nil {
				t.Fatal(err)
			}
		}
		if err := colltest.VerifyImage(wl, fs.Snapshot("tiny.dat", wl.FileSize())); err != nil {
			t.Fatal(err)
		}
		for r := 0; r < ranks; r++ {
			retained = append(retained, retainedBytes(&eng.scratch.For(r, ranks).roundScratch))
		}
		return retained, gets
	}
	tiny := colltest.Workload{Ranks: ranks, RegionSize: 16, RegionCount: 1024, Spacing: 112,
		Enumerate: true, MemNoncontig: true, MemGap: 16}
	long := tiny
	long.RegionSize, long.RegionCount, long.Spacing = 64, 256, 448

	small, gets := call(tiny)
	if gets != ranks {
		t.Errorf("%d pooled buffers taken by a steady-state call, want %d: one packed stream a rank", gets, ranks)
	}
	large, _ := call(long)
	for r := range small {
		if small[r] > large[r] {
			t.Errorf("rank %d keeps %d bytes for 16-byte pieces, %d for 64-byte ones", r, small[r], large[r])
		}
	}
	if small[0] == 0 {
		t.Error("aggregator 0 kept no tables: the call wrote nothing")
	}
	dense := tiny
	dense.MemNoncontig, dense.MemGap = false, 0
	if _, gets := call(dense); gets != 0 {
		t.Errorf("%d pooled buffers taken by a steady-state call on dense memory, want 0", gets)
	}
	lent := tiny
	lent.RegionSize, lent.RegionCount, lent.Spacing = 256, 64, 1792
	if _, gets := call(lent); gets != 0 {
		t.Errorf("%d pooled buffers taken by a steady-state call on memory segments of 256 B, want 0", gets)
	}
}
