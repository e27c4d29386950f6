package core

import (
	"math/rand"
	"testing"
	"time"

	"flexio/internal/datatype"
	"flexio/internal/realm"
	"flexio/internal/trace"
)

// randAccessType is a small filetype of the kinds checkpoints and HPIO
// patterns use: a block, a strided vector or an indexed list, resized to
// leave gaps between instances.
func randAccessType(rng *rand.Rand) datatype.Type {
	var t datatype.Type
	switch rng.Intn(3) {
	case 0:
		t = datatype.Bytes(int64(1 + rng.Intn(96)))
	case 1:
		elem, bl := int64(1+rng.Intn(16)), int64(1+rng.Intn(3))
		t = datatype.Must(datatype.Vector(int64(1+rng.Intn(4)), bl, bl*elem+int64(rng.Intn(64)), datatype.Bytes(elem)))
	default:
		n := 1 + rng.Intn(5)
		lens, displs := make([]int64, n), make([]int64, n)
		off := int64(rng.Intn(32))
		for k := range lens {
			lens[k], displs[k] = int64(1+rng.Intn(24)), off
			off += lens[k] + int64(1+rng.Intn(64))
		}
		t = datatype.Must(datatype.HIndexed(lens, displs, datatype.Bytes(1)))
	}
	return datatype.Must(datatype.Resized(t, t.Extent()+int64(rng.Intn(512))))
}

// randRealms is one of the realm sets the memo can rebase under, over a
// region starting at byte zero: even, stripe-aligned even (both end in an
// unbounded tail realm), even with a tail that tiles small runs, or cyclic.
func randRealms(rng *rand.Rand, naggs int, end int64) []realm.Realm {
	ctx := realm.Context{NAggs: naggs, Start: 0, End: end}
	var rs []realm.Realm
	var err error
	switch rng.Intn(4) {
	case 0:
		rs, err = realm.Even{}.Assign(ctx)
	case 1:
		rs, err = realm.Even{Align: int64(512 << rng.Intn(4))}.Assign(ctx)
	case 2:
		rs, err = realm.Even{}.Assign(ctx)
		last := &rs[len(rs)-1]
		last.Pattern = datatype.Bytes(int64(256 + rng.Intn(2048)))
	default:
		rs, err = realm.Cyclic{Block: int64(256 + rng.Intn(4096))}.Assign(ctx)
	}
	if err != nil {
		panic(err)
	}
	return rs
}

// bounds is the aggregate access region of flats: [first data byte, last+1).
func bounds(flats []datatype.Flat) (lo, hi int64) {
	lo, hi = 1<<62, 0
	for _, fl := range flats {
		if empty(fl) {
			continue
		}
		c := fl.Cursor()
		lo = min(lo, c.Offset())
		for {
			s, _, ok := c.Next(1 << 40)
			if !ok {
				break
			}
			hi = max(hi, s.End())
		}
	}
	return lo, hi
}

// TestRebaseEqualsFreshBuild: whenever the memo rebases a plan, the plan is
// exactly what a fresh build for the moved accesses gives: the aggregator's
// rounds (order, segments, peers, totals) and pair charges, and the client's
// request, piece lists and pair charges, with and without the heap merge. The
// cases are random access shapes (some partial, some empty), realm sets and
// cb values, moved by a random delta of either sign (now and then one client
// by another); the check must accept a fair share of them, or the property
// says little.
func TestRebaseEqualsFreshBuild(t *testing.T) {
	const cases = 2400
	start := time.Now()
	rng := rand.New(rand.NewSource(47))
	var aggRebased, clientRebased int
	for n := 0; n < cases; n++ {
		nclients, naggs := 1+rng.Intn(4), 1+rng.Intn(4)
		cb := int64(256 << rng.Intn(8))
		delta := int64(1 + rng.Intn(3000))
		if rng.Intn(2) == 0 {
			delta = -delta
		}
		ft := randAccessType(rng)
		olds, news := make([]datatype.Flat, nclients), make([]datatype.Flat, nclients)
		for c := range olds {
			count := int64(rng.Intn(12))
			fl := datatype.FlatOf(ft, 3000+int64(c)*int64(rng.Intn(64)), count)
			fl.Limit = count * ft.Size()
			if count > 0 && rng.Intn(4) == 0 {
				fl.Limit -= int64(rng.Intn(int(ft.Size())))
			}
			olds[c], news[c] = fl, fl
			news[c].Disp += delta
			if c > 0 && rng.Intn(8) == 0 {
				news[c].Disp += int64(1 + rng.Intn(64)) // moved apart: never one delta
			}
		}
		_, hiOld := bounds(olds)
		rs := randRealms(rng, naggs, hiOld+int64(rng.Intn(4096)))
		eng := New(Options{HeapMerge: rng.Intn(2) == 0})

		// Aggregator side, every aggregator: plan the old requests, then
		// look up the moved ones as run does.
		msgsOf := func(flats []datatype.Flat) [][]byte {
			msgs := make([][]byte, len(flats))
			for c := range flats {
				msgs[c] = flats[c].Encode()
			}
			return msgs
		}
		for a := range rs {
			scr := new(rankScratch)
			for k, flats := range [][]datatype.Flat{olds, news} {
				lo, hi := bounds(flats)
				scr.msgs = msgsOf(flats)
				ak := aggKey{cb: cb, naggs: naggs}
				ak.req, ak.at = requestKey(scr.msgs, true)
				ae, got, err := eng.aggMiss(scr, ak, rs, a, lo, hi, cb)
				if k == 0 {
					if err == nil {
						scr.aggs.Keep(ak)
					}
					continue
				}
				if got != memoRebase {
					continue
				}
				aggRebased++
				if err := eng.checkPlans(&scr.miss, scr.msgs, ae, rs, a, lo, hi, cb); err != nil {
					t.Fatalf("case %d aggregator %d (%s, cb %d, delta %d): %v", n, a, ft, cb, delta, err)
				}
			}
		}

		// Client side: each client's own access against every realm.
		for c := range olds {
			scr := new(rankScratch)
			key := clientKey{ft: ft, cb: cb, naggs: naggs}
			for k, acc := range []datatype.Flat{olds[c], news[c]} {
				ce, got := eng.clientMiss(scr, key, acc, rs, 1<<62, cb, acc.Limit)
				scr.clients.Keep(key)
				if k == 0 || got != memoRebase {
					continue
				}
				clientRebased++
				if err := eng.checkClient(&scr.miss, ce, acc, rs, 1<<62, cb, acc.Limit); err != nil {
					t.Fatalf("case %d client %d (%s, cb %d, delta %d): %v", n, c, ft, cb, delta, err)
				}
			}
		}
	}
	t.Logf("%d cases in %v: %d aggregator and %d client rebases", cases, time.Since(start), aggRebased, clientRebased)
	if aggRebased < cases/4 || clientRebased < cases/4 {
		t.Fatalf("only %d aggregator and %d client rebases in %d cases", aggRebased, clientRebased, cases)
	}
}

// TestRebaseCheckpointSteps: the Fig 7 checkpoint at the benchmark's shape
// (16 ranks, 8 aggregators, 256 points of 32-slot time steps, stripe-aligned
// persistent realms, 4 MiB collective buffer) moves every access by one slot
// per step, so after step 0 most aggregator calls rebase the last step's plan
// rather than plan afresh. Validate cross-checks every hit and rebase against
// a fresh build, so the run fails if a rebased plan is not exact.
func TestRebaseCheckpointSteps(t *testing.T) {
	sh := ckptShape{ranks: 16, elem: 32, elems: 100, points: 256, slots: 32}
	const naggs, steps = 8, 32
	s := newCkptSession(t, sh, New(Options{Persistent: true, Align: 2 << 20, Validate: true}), naggs, 4<<20, true)
	for step := 0; step < steps; step++ {
		s.writeStep(t)
	}
	// Every lookup leaves an isect_cache instant: count the rebased ones
	// per side, skipping each rank's step-0 lookups (an aggregator makes
	// two a call).
	rebased := map[string]int{}
	for r := 0; r < sh.ranks; r++ {
		looked, first := 0, 1
		if r < naggs {
			first = 2
		}
		for _, e := range s.w.TraceSink().Tracer(r).Events() {
			if e.Kind != trace.KindInstant || e.Name != "isect_cache" {
				continue
			}
			if looked++; looked > first && e.Tags[1].Str == "rebase" {
				rebased[e.Tags[0].Str]++
			}
		}
	}
	calls := naggs * (steps - 1)
	t.Logf("%d of %d aggregator calls and %d of %d client calls rebased", rebased["agg"], calls,
		rebased["client"], sh.ranks*(steps-1))
	if rebased["agg"]*10 < calls*8 {
		t.Fatalf("%d of %d aggregator calls after step 0 rebased, want at least 80%%", rebased["agg"], calls)
	}
}

// TestRebaseKeepsTheRegionCheck: a request that moved out of the aggregate
// access region the ranks agreed on (a damaged displacement, say) is refused
// by a fresh build; a rebase must not accept it either, even where no realm
// cut stands in its way, but plan afresh and report it.
func TestRebaseKeepsTheRegionCheck(t *testing.T) {
	rs, err := realm.Even{}.Assign(realm.Context{NAggs: 1, Start: 0, End: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	eng := New(Options{})
	scr := new(rankScratch)
	lookup := func(disp, lo, hi int64) (memoOutcome, error) {
		fl := datatype.FlatOf(datatype.Bytes(64), disp, 4)
		fl.Limit = 4 * 64
		scr.msgs = [][]byte{fl.Encode()}
		ak := aggKey{cb: 1 << 20, naggs: 1}
		ak.req, ak.at = requestKey(scr.msgs, true)
		_, got, err := eng.aggMiss(scr, ak, rs, 0, lo, hi, 1<<20)
		if err == nil {
			scr.aggs.Keep(ak)
		}
		return got, err
	}
	if got, err := lookup(100, 100, 356); got != memoMiss || err != nil {
		t.Fatalf("first call: %v, %v", got, err)
	}
	if got, err := lookup(164, 164, 420); got != memoRebase || err != nil {
		t.Fatalf("moved with its region: %v, %v; want a rebase", got, err)
	}
	if got, err := lookup(300, 164, 420); got != memoMiss || err == nil {
		t.Fatalf("moved out of its region: %v, %v; want a miss and an error", got, err)
	}
}
