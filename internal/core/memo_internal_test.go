package core

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"flexio/internal/datatype"
	"flexio/internal/mpi"
	"flexio/internal/mpiio"
	"flexio/internal/pfs"
	"flexio/internal/realm"
	"flexio/internal/sim"
)

// TestRealmSignatureAssignments: the signature must separate the realm
// sets the different assignment policies produce over one aggregate
// access region — Even, stripe-aligned Even, and a PFR-style assignment
// anchored at byte zero — while being stable across recomputation of the
// same assignment (assigners return fresh pattern objects each call, so
// only content hashing can hit).
func TestRealmSignatureAssignments(t *testing.T) {
	ctx := realm.Context{NAggs: 4, Start: 100, End: 1<<20 + 12345}
	assign := func(a realm.Assigner, c realm.Context) uint64 {
		rs, err := a.Assign(c)
		if err != nil {
			t.Fatal(err)
		}
		return realmSignature(rs)
	}
	even := assign(realm.Even{}, ctx)
	aligned := assign(realm.Even{Align: 4096}, ctx)
	// Persistent file realms anchor the partition at byte zero on the
	// first call, whatever the current access region is.
	pfr := assign(realm.Even{}, realm.Context{NAggs: 4, Start: 0, End: ctx.End})

	sigs := map[string]uint64{"even": even, "aligned": aligned, "pfr": pfr}
	for a, sa := range sigs {
		for b, sb := range sigs {
			if a != b && sa == sb {
				t.Fatalf("assignments %s and %s share signature %#x", a, b, sa)
			}
		}
	}
	if again := assign(realm.Even{}, ctx); again != even {
		t.Fatalf("recomputed even assignment changed signature: %#x != %#x", again, even)
	}
}

// TestRequestKeySeparatesRequests: the aggregator memo key is the only
// thing standing between a changed access and a stale merge plan. Equal
// messages must give equal keys; any single flipped byte (every position,
// so every lane, the whole-word loop and the padded tail are covered), any
// swapped pair of clients, and any length change must give a different one.
// Split at the displacements, moving every one by the same delta changes
// only the key's displacement; moving one alone, or changing any other byte,
// changes the hash.
func TestRequestKeySeparatesRequests(t *testing.T) {
	requestKey := func(msgs [][]byte) uint64 {
		req, _ := requestKey(msgs, false)
		return req
	}
	rng := rand.New(rand.NewSource(7))
	msgs := make([][]byte, 6)
	for c, n := range []int{0, 5, 8, 32, 77, 200} {
		msgs[c] = make([]byte, n)
		rng.Read(msgs[c])
	}
	clone := func() [][]byte {
		out := make([][]byte, len(msgs))
		for c := range msgs {
			out[c] = append([]byte{}, msgs[c]...)
		}
		return out
	}
	base := requestKey(msgs)
	if again := requestKey(clone()); again != base {
		t.Fatalf("same messages, different keys: %#x != %#x", again, base)
	}
	seen := map[uint64]string{base: "base"}
	distinct := func(what string, m [][]byte) {
		t.Helper()
		k := requestKey(m)
		if prev, dup := seen[k]; dup {
			t.Fatalf("%s shares key %#x with %s", what, k, prev)
		}
		seen[k] = what
	}
	for c := range msgs {
		for b := range msgs[c] {
			m := clone()
			m[c][b] ^= 1 << uint(rng.Intn(8))
			distinct(fmt.Sprintf("flip client %d byte %d", c, b), m)
		}
		for d := c + 1; d < len(msgs); d++ {
			m := clone()
			m[c], m[d] = m[d], m[c]
			distinct(fmt.Sprintf("swap clients %d and %d", c, d), m)
		}
		m := clone()
		m[c] = append(m[c], 0) // a zero byte: the padded tail alone cannot tell
		distinct(fmt.Sprintf("grow client %d", c), m)
		if len(msgs[c]) > 0 {
			m = clone()
			m[c] = m[c][:len(m[c])-1]
			distinct(fmt.Sprintf("shrink client %d", c), m)
		}
	}
	// Moving a byte across a client boundary keeps the concatenation equal.
	m := clone()
	m[3], m[4] = append(m[3], m[4][0]), m[4][1:]
	distinct("boundary shift", m)

	req0, at0 := keys(msgs, true)
	moved := clone()
	for c := range moved {
		if len(moved[c]) >= 8 {
			binary.LittleEndian.PutUint64(moved[c], binary.LittleEndian.Uint64(moved[c])+4096)
		}
	}
	if req, at := keys(moved, true); req != req0 || at != at0+4096 {
		t.Fatalf("every displacement moved by 4096: hash moved %v, displacement %d -> %d", req != req0, at0, at)
	}
	for c := range msgs {
		for b := range msgs[c] {
			m := clone()
			m[c][b] ^= 1
			if req, _ := keys(m, true); req == req0 {
				t.Fatalf("flip client %d byte %d: hash unchanged", c, b)
			}
		}
	}
}

// keys is requestKey under a name the test's own requestKey does not shadow.
var keys = requestKey

// grouped forms the rounds of one aggregator's pieces on their own, the way
// clientPieces does for each aggregator in turn.
func grouped(ps []datatype.Piece) *oneAgg {
	pl := &pieceLists{}
	pl.Start(1)
	pl.Add(ps)
	return &oneAgg{pl, 0}
}

// oneAgg is one aggregator's lists of a client's.
type oneAgg struct {
	*pieceLists
	a int
}

func (o *oneAgg) of(r int) []streamRun { return o.pieceLists.of(o.a, r) }
func (o *oneAgg) bytes(r int) int64    { return o.pieceLists.bytes(o.a, r) }

// TestClientAndMergerAgreeOnUnsortedRuns: a round's payload travels in
// file-offset order. Views are normalized today, so the intersection never
// emits an unsorted round; if one ever did, the client (PieceLists.Add) and
// the aggregator (RunMerger's fallback) must still walk the same sequence,
// or payload bytes would land at the wrong offsets.
func TestClientAndMergerAgreeOnUnsortedRuns(t *testing.T) {
	ps := []datatype.Piece{
		{Round: 0, File: datatype.Seg{Off: 40, Len: 4}, AStream: 0},
		{Round: 0, File: datatype.Seg{Off: 8, Len: 4}, AStream: 4},
		{Round: 0, File: datatype.Seg{Off: 40, Len: 2}, AStream: 8},
		{Round: 2, File: datatype.Seg{Off: 90, Len: 1}, AStream: 10},
		{Round: 2, File: datatype.Seg{Off: 80, Len: 1}, AStream: 11},
	}
	run0 := []datatype.Seg{ps[0].File, ps[1].File, ps[2].File}
	rp := grouped(ps)
	if rp.bytes(0) != 10 || rp.bytes(1) != 0 || rp.bytes(2) != 2 || rp.bytes(3) != 0 {
		t.Fatalf("round bytes %d %d %d %d, want 10 0 2 0", rp.bytes(0), rp.bytes(1), rp.bytes(2), rp.bytes(3))
	}
	var m datatype.RunMerger
	items, _, _ := m.Merge([][]datatype.Seg{run0}, nil, nil)
	got := rp.of(0)
	if len(got) != len(items) {
		t.Fatalf("client walks %d pieces, aggregator %d", len(got), len(items))
	}
	wantStream := []int64{4, 0, 8} // offset order, ties in emission order
	for k := range got {
		if got[k].n != items[k].Len || got[k].at != wantStream[k] {
			t.Fatalf("piece %d: client %+v, aggregator %+v, want stream pos %d", k, got[k], items[k], wantStream[k])
		}
	}
	if r2 := rp.of(2); r2[0] != (streamRun{at: 11, n: 1}) || r2[1] != (streamRun{at: 10, n: 1}) {
		t.Fatalf("round 2 not in offset order: %+v", r2)
	}
}

// TestGroupRoundsMergesStreamNeighbours: pieces that follow one another in
// the client's stream travel as one range, but never across a round
// boundary or a gap in the stream, and the byte counts stay per round.
func TestGroupRoundsMergesStreamNeighbours(t *testing.T) {
	seg := func(off, n int64) datatype.Seg { return datatype.Seg{Off: off, Len: n} }
	rp := grouped([]datatype.Piece{
		{Round: 0, File: seg(0, 16), AStream: 0},
		{Round: 0, File: seg(128, 16), AStream: 16},
		{Round: 0, File: seg(256, 16), AStream: 32},
		{Round: 1, File: seg(384, 16), AStream: 48}, // adjacent, but the next round
		{Round: 1, File: seg(512, 16), AStream: 80}, // a gap in the stream
		{Round: 1, File: seg(640, 8), AStream: 96},
	})
	want := [][]streamRun{{{0, 48}}, {{48, 16}, {80, 24}}}
	for r, w := range want {
		if got := rp.of(r); !slices.Equal(got, w) {
			t.Errorf("round %d runs %v, want %v", r, got, w)
		}
	}
	if rp.bytes(0) != 48 || rp.bytes(1) != 40 {
		t.Errorf("round bytes %d %d, want 48 40", rp.bytes(0), rp.bytes(1))
	}

	// A client entry's lists are grouped one aggregator after another into
	// the same blocks: the second aggregator's run must not merge into the
	// first's last (stream position 104 follows it), its rounds count from
	// its own first, the round it skips is empty, and a third aggregator
	// nobody added pieces for exchanges nothing.
	rp.naggs = 3
	rp.Add([]datatype.Piece{
		{Round: 1, File: seg(4096, 8), AStream: 104},
		{Round: 1, File: seg(4200, 8), AStream: 112},
	})
	for r, w := range want {
		if got := rp.of(r); !slices.Equal(got, w) {
			t.Errorf("first aggregator, round %d runs %v, want %v", r, got, w)
		}
	}
	second := &oneAgg{rp.pieceLists, 1}
	if got := second.of(1); second.bytes(0) != 0 || len(second.of(0)) != 0 ||
		!slices.Equal(got, []streamRun{{104, 16}}) || second.bytes(1) != 16 || second.bytes(2) != 0 {
		t.Errorf("second aggregator: round 0 %v, round 1 %v (%d bytes)", second.of(0), got, second.bytes(1))
	}
	if third := (&oneAgg{rp.pieceLists, 2}); third.bytes(0) != 0 || len(third.of(1)) != 0 {
		t.Errorf("third aggregator: %d bytes in round 0, round 1 %v", third.bytes(0), third.of(1))
	}
}

// TestValidateCatchesStalePlan proves the Validate cross-check is live: a
// cached plan that no longer matches what the requests would build must
// abort the next collective on every rank, before a byte moves. The client
// side is checked too: a tampered client entry aborts the same way.
func TestValidateCatchesStalePlan(t *testing.T) {
	t.Run("aggregator", func(t *testing.T) {
		staleCheck(t, "merge plan", func(scr *rankScratch) {
			scr.aggs.Each(func(_ aggKey, ae *aggEntry) {
				if n := len(ae.Rounds[0].Order); n > 1 {
					o := ae.Rounds[0].Order
					o[0], o[n-1] = o[n-1], o[0]
				}
			})
		})
	})
	t.Run("client", func(t *testing.T) {
		staleCheck(t, "client plan", func(scr *rankScratch) {
			scr.clients.Each(func(_ clientKey, ce *clientEntry) { ce.charges[0]++ })
		})
	})
}

// staleCheck writes once cleanly, applies tamper to every rank's memo and
// requires the next write to fail on every rank with an error naming what.
func staleCheck(t *testing.T, what string, tamper func(*rankScratch)) {
	const ranks, blk, count = 4, 32, 16
	cfg := sim.DefaultConfig()
	w := mpi.NewWorld(ranks, cfg)
	fs := pfs.NewFileSystem(cfg)
	eng := New(Options{Validate: true})
	// One filetype object for every call, so the client side finds its entry.
	ft := datatype.Must(datatype.Resized(datatype.Bytes(blk), blk*ranks))
	writeAll := func() []error {
		errs := make([]error, ranks)
		w.Run(func(p *mpi.Proc) {
			f, err := mpiio.Open(p, fs, "stale.dat", mpiio.Info{Collective: eng, CollBufSize: 256})
			if err != nil {
				errs[p.Rank()] = err
				return
			}
			if err := f.SetView(int64(p.Rank()*blk), datatype.Bytes(1), ft); err != nil {
				errs[p.Rank()] = err
				return
			}
			errs[p.Rank()] = f.WriteAll(make([]byte, blk*count), datatype.Bytes(blk), count)
			f.Close()
		})
		return errs
	}
	for r, err := range writeAll() {
		if err != nil {
			t.Fatalf("rank %d: clean write: %v", r, err)
		}
	}
	for r := 0; r < ranks; r++ {
		tamper(eng.scratch.For(r, ranks))
	}
	for r, err := range writeAll() {
		if err == nil || !strings.Contains(err.Error(), what) {
			t.Fatalf("rank %d: tampered plan went unnoticed: %v", r, err)
		}
	}
}

// TestMemoRing: the ring keeps memoSlots shapes per side, drops the least
// recently used, and rebuilds in the slot it dropped. An entry that was
// evicted into but never kept is not found and is the next to go.
func TestMemoRing(t *testing.T) {
	var m memo[int, []int]
	put := func(k int, keep bool) *[]int {
		e := m.Evict()
		*e = append((*e)[:0], k)
		if keep {
			m.Keep(k)
		}
		return e
	}
	if m.Get(0) != nil {
		t.Fatal("empty ring hit (a zero key must not match an empty slot)")
	}
	// Alternating shapes hit from their second use on.
	put(100, true)
	put(200, true)
	for call := 3; call <= 6; call++ {
		k := 100 + 100*((call+1)%2)
		if e := m.Get(k); e == nil || (*e)[0] != k {
			t.Fatalf("call %d: shape %d missed", call, k)
		}
	}
	// Fill up; touching 100 makes 200 the oldest.
	for k := 1; k <= memoSlots-2; k++ {
		put(k, true)
	}
	m.Get(100)
	victim := m.Get(200)
	m.Get(100)
	for k := 1; k <= memoSlots-2; k++ {
		m.Get(k)
	}
	if got := put(300, true); got != victim {
		t.Fatal("the least recently used slot was not the one rebuilt")
	}
	if m.Get(200) != nil {
		t.Fatal("evicted shape still found")
	}
	// An entry without a key is never found, and its slot goes first.
	m.Get(300)
	untrusted := put(999, false)
	if m.Get(999) != nil {
		t.Fatal("an entry that was never kept was found")
	}
	if put(400, true) != untrusted {
		t.Fatal("the unkept entry's slot was not the next to be rebuilt")
	}
	kept := 0
	m.Each(func(k int, e *[]int) {
		kept++
		if (*e)[0] != k {
			t.Errorf("key %d holds the entry of %d", k, (*e)[0])
		}
	})
	if kept != memoSlots {
		t.Fatalf("%d entries kept, want %d", kept, memoSlots)
	}
}

// TestMemoRecyclesEvictedSlots: a checkpoint loop plans a layout nobody has
// seen on every call. Once every slot of the rank's rings has held plans of
// the loop's sizes, planning the next one (request encoding, client
// intersections, request decoding, merge plans) allocates nothing: the
// evicted entry's blocks are truncated and refilled.
func TestMemoRecyclesEvictedSlots(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	const naggs, cb, steps = 8, 4 << 10, 5 * memoSlots
	sh := ckptShape{ranks: 16, elem: 32, elems: 40, points: 32, slots: 64}
	eng := New(Options{Persistent: true, Align: 8 << 10})
	realms, err := realm.Even{}.Assign(realm.Context{NAggs: naggs, Start: 0,
		End: sh.points * sh.slots * sh.elems * sh.elem, Align: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	// The views and the requests as received are the caller's and the
	// transport's: built outside the measurement.
	flats, msgs := make([][]datatype.Flat, steps), make([][][]byte, steps)
	for step := range flats {
		flats[step], msgs[step] = make([]datatype.Flat, sh.ranks), make([][]byte, sh.ranks)
		for r := range flats[step] {
			disp, ft := sh.view(r, step)
			fl := datatype.FlatOf(ft, disp, sh.points)
			fl.Limit = sh.points * ft.Size()
			flats[step][r], msgs[step][r] = fl, fl.Encode()
		}
	}
	scr := new(rankScratch) // rank 0: a client and an aggregator
	calls := 0
	plan := func() {
		step := calls % steps
		ce := scr.clients.Evict()
		eng.planClient(&scr.miss, ce, flats[step][0], realms, 1<<62, cb, flats[step][0].Limit)
		scr.clients.Keep(clientKey{disp: int64(calls)})

		ae := scr.aggs.Evict()
		if err := eng.planAgg(&scr.miss, ae, msgs[step], realms, 0, 0, 1<<62, cb); err != nil {
			t.Fatal(err)
		}
		scr.aggs.Keep(aggKey{req: uint64(calls)})
		if len(ae.Rounds) == 0 || len(ce.pieces.runs) == 0 {
			t.Fatal("nothing planned")
		}
		calls++
	}
	// The steps differ a little in size (rounds skipped, runs merged), so a
	// slot is warm once it has been through its share of the loop.
	for k := 0; k < steps; k++ {
		plan()
	}
	if got := testing.AllocsPerRun(steps-1, plan); got != 0 {
		t.Fatalf("%.1f allocs per planned call on a warm ring, want 0", got)
	}
}
