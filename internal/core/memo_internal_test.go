package core

import (
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

// requestKey hashes a set of request messages the way the aggregator does.
func requestKey(msgs [][]byte) uint64 {
	h := HashSeed
	for _, m := range msgs {
		h = HashBytes(h, m)
	}
	return h
}

// TestRequestKeySeparatesRequests: the aggregator memo key is the only
// thing standing between a changed access and a stale merge plan. Equal
// messages must give equal keys; any single flipped byte (every position,
// so every lane, the whole-word loop and the padded tail are covered), any
// swapped pair of clients, and any length change must give a different one.
func TestRequestKeySeparatesRequests(t *testing.T) {
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
}

// grouped forms the rounds of one aggregator's pieces on their own, the way
// clientPieces does for each aggregator in turn.
func grouped(ps []datatype.Piece) *RoundPieces {
	runs, rounds := groupRounds(ps, nil, nil)
	return &RoundPieces{runs: runs, rounds: rounds}
}

// TestClientAndMergerAgreeOnUnsortedRuns: a round's payload travels in
// file-offset order. Views are normalized today, so the intersection never
// emits an unsorted round; if one ever did, the client (groupRounds) and
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
	// the same scratch and cut apart afterwards: the second aggregator's run
	// must not merge into the first's last (stream position 104 follows it),
	// its spans count from its own first run, and the round it skips is
	// empty.
	runs, rounds := groupRounds([]datatype.Piece{
		{Round: 1, File: seg(4096, 8), AStream: 104},
		{Round: 1, File: seg(4200, 8), AStream: 112},
	}, rp.runs, rp.rounds)
	both := sealPieces(runs, rounds, []int{len(rp.runs), len(rp.rounds), len(runs), len(rounds)})
	for r, w := range want {
		if got := both[0].of(r); !slices.Equal(got, w) {
			t.Errorf("first aggregator, round %d runs %v, want %v", r, got, w)
		}
	}
	if got := both[1].of(1); both[1].bytes(0) != 0 || len(both[1].of(0)) != 0 ||
		!slices.Equal(got, []streamRun{{104, 16}}) || both[1].bytes(1) != 16 || both[1].bytes(2) != 0 {
		t.Errorf("second aggregator: round 0 %v, round 1 %v (%d bytes)", both[1].of(0), got, both[1].bytes(1))
	}
}

// TestValidateCatchesStalePlan proves the Validate cross-check is live: a
// cached plan that no longer matches what the requests would build must
// abort the next collective on every rank, before a byte moves.
func TestValidateCatchesStalePlan(t *testing.T) {
	const ranks, blk, count = 4, 32, 16
	cfg := sim.DefaultConfig()
	w := mpi.NewWorld(ranks, cfg)
	fs := pfs.NewFileSystem(cfg)
	eng := New(Options{Validate: true})
	writeAll := func() []error {
		errs := make([]error, ranks)
		w.Run(func(p *mpi.Proc) {
			f, err := mpiio.Open(p, fs, "stale.dat", mpiio.Info{Collective: eng, CollBufSize: 256})
			if err != nil {
				errs[p.Rank()] = err
				return
			}
			ft := datatype.Must(datatype.Resized(datatype.Bytes(blk), blk*ranks))
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
	for _, ae := range eng.memo.aggs.m {
		if n := len(ae.rounds[0].Order); n > 1 {
			o := ae.rounds[0].Order
			o[0], o[n-1] = o[n-1], o[0]
		}
	}
	for r, err := range writeAll() {
		if err == nil || !strings.Contains(err.Error(), "merge plan") {
			t.Fatalf("rank %d: tampered plan went unnoticed: %v", r, err)
		}
	}
}
