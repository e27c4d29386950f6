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
