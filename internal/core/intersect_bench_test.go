package core

import (
	"testing"

	"flexio/internal/datatype"
	"flexio/internal/realm"
)

// BenchmarkHeapMerge measures the client-side binary-heap merge in
// isolation: one noncontiguous access cursor against an evenly
// partitioned realm set. The heap scratch and the realm cursors are
// reused across iterations (Reset instead of rebuild), mirroring what the
// engine's per-rank scratch does in steady state, so allocs/op reflects
// the merge itself rather than setup.
func BenchmarkHeapMerge(b *testing.B) {
	const (
		naggs    = 8
		blocks   = 4096
		blockLen = 64
		stride   = 256
		cb       = 64 << 10
	)
	vec, err := datatype.Vector(blocks, blockLen, stride, datatype.Bytes(1))
	if err != nil {
		b.Fatal(err)
	}
	realms, err := realm.Even{}.Assign(realm.Context{
		NAggs: naggs, Start: 0, End: vec.Extent(),
	})
	if err != nil {
		b.Fatal(err)
	}
	ac := datatype.NewCursor(vec, 0, 1)
	rcs := make([]*datatype.Cursor, naggs)
	for a := range realms {
		rcs[a] = realms[a].Cursor()
	}
	var h realmHeap
	perAgg := make([][]datatype.Piece, naggs)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ac.Reset()
		for _, rc := range rcs {
			rc.Reset()
		}
		for a := range perAgg {
			perAgg[a] = perAgg[a][:0]
		}
		heapMerge(&h, ac, rcs, cb, perAgg)
	}
	if len(perAgg[0]) == 0 {
		b.Fatal("heapMerge emitted no pieces")
	}
}

// BenchmarkPlanMiss measures what one collective call spends planning a
// layout the memo has never seen, at the scale of the benchmark's ckpt-write
// (16 ranks, 8 aggregators, 2 MiB-aligned persistent realms, 256 data points
// of 100 elements): every rank encodes its request, intersects its access
// with every realm and groups the rounds, every aggregator decodes the 16
// requests and builds its merge plans. No communication, no I/O; the rank scratch persists across
// iterations as it does across a checkpoint loop's calls. ns/piece divides
// by the pieces found on both sides.
func BenchmarkPlanMiss(b *testing.B) {
	const naggs, cb = 8, 4 << 20
	sh := ckptShape{ranks: 16, elem: 32, elems: 100, points: 256, slots: 32}
	eng := New(Options{Persistent: true, Align: 2 << 20})
	fileEnd := sh.points * sh.slots * sh.elems * sh.elem
	realms, err := realm.Even{}.Assign(realm.Context{NAggs: naggs, Start: 0, End: fileEnd, Align: 2 << 20})
	if err != nil {
		b.Fatal(err)
	}
	flats := make([]datatype.Flat, sh.ranks)
	msgs := make([][]byte, sh.ranks)
	for r := range flats {
		disp, ft := sh.view(r, 3)
		flats[r] = datatype.FlatOf(ft, disp, sh.points)
		flats[r].Limit = sh.points * ft.Size()
		msgs[r] = flats[r].Encode()
	}
	scratch := make([]planScratch, sh.ranks)
	var ce clientEntry
	var ae aggEntry
	var pieces int64

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pieces = 0
		for r := range flats {
			ms := &scratch[r]
			eng.planClient(ms, &ce, flats[r], realms, fileEnd, cb, flats[r].Limit)
			if len(ce.charges) != naggs {
				b.Fatal("client pieces missing")
			}
			if r >= naggs {
				continue
			}
			if err := eng.planAgg(ms, &ae, msgs, realms, r, 0, 1<<62, cb); err != nil || len(ae.Rounds) == 0 {
				b.Fatal("no rounds planned", err)
			}
			pieces += int64(len(ms.fileSegs))
		}
	}
	if pieces == 0 {
		b.Fatal("no pieces planned")
	}
	// Each piece is found twice: once by its client, once by its aggregator.
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(2*pieces), "ns/piece")
}

// BenchmarkPlanShift measures what planning costs per step of the checkpoint
// loop BenchmarkPlanMiss plans one call of: the 32 steps of one file, each
// the last moved by one slot, looked up through the memo as run does after
// an exact miss (the client by its request's shape, the aggregator by its
// requests' shape), so each side rebases the last step's plan or, where the
// move crosses a cut, plans afresh. Every loop starts from memos that hold
// no entry (a file's first step plans from scratch) but keep their blocks.
// ns/step is comparable with BenchmarkPlanMiss's ns/op.
func BenchmarkPlanShift(b *testing.B) {
	const naggs, cb, steps = 8, 4 << 20, 32
	sh := ckptShape{ranks: 16, elem: 32, elems: 100, points: 256, slots: steps}
	eng := New(Options{Persistent: true, Align: 2 << 20})
	fileEnd := sh.points * sh.slots * sh.elems * sh.elem
	realms, err := realm.Even{}.Assign(realm.Context{NAggs: naggs, Start: 0, End: fileEnd, Align: 2 << 20})
	if err != nil {
		b.Fatal(err)
	}
	flats := make([][]datatype.Flat, steps)
	msgs := make([][][]byte, steps)
	for s := range flats {
		flats[s], msgs[s] = make([]datatype.Flat, sh.ranks), make([][]byte, sh.ranks)
		for r := range flats[s] {
			disp, ft := sh.view(r, s)
			flats[s][r] = datatype.FlatOf(ft, disp, sh.points)
			flats[s][r].Limit = sh.points * ft.Size()
			msgs[s][r] = flats[s][r].Encode()
		}
	}
	scr := make([]rankScratch, sh.ranks)
	var rebased int

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := range scr {
			clear(scr[r].clients.used[:])
			clear(scr[r].aggs.used[:])
		}
		for s := range flats {
			for r := range scr {
				acc := flats[s][r]
				ck := clientKey{disp: acc.Disp, dataLen: acc.Limit, cb: cb, naggs: naggs}
				if _, o := eng.clientMiss(&scr[r], ck, acc, realms, fileEnd, cb, acc.Limit); o == memoRebase {
					rebased++
				}
				scr[r].clients.Keep(ck)
				if r >= naggs {
					continue
				}
				scr[r].msgs = msgs[s]
				ak := aggKey{cb: cb, naggs: naggs}
				ak.req, ak.at = requestKey(msgs[s], true)
				_, o, err := eng.aggMiss(&scr[r], ak, realms, r, 0, 1<<62, cb)
				if err != nil {
					b.Fatal(err)
				}
				if o == memoRebase {
					rebased++
				}
				scr[r].aggs.Keep(ak)
			}
		}
	}
	if rebased == 0 {
		b.Fatal("nothing rebased")
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/steps, "ns/step")
	b.ReportMetric(float64(rebased)/float64(b.N)/steps, "rebases/step")
}
