package core

import (
	"testing"

	"flexio/internal/datatype"
	"flexio/internal/mpi"
	"flexio/internal/mpiio"
	"flexio/internal/pfs"
	"flexio/internal/realm"
	"flexio/internal/sim"
)

// realmWorld is a world with one file open on every rank; the handles outlive
// the World.Run that opened them, so a test asks an engine for realms rank by
// rank (no assigner used here communicates unless it says so).
type realmWorld struct {
	w     *mpi.World
	files []*mpiio.File
}

func newRealmWorld(t *testing.T, ranks, nodeRanks int, eng *Impl) *realmWorld {
	t.Helper()
	cfg := sim.DefaultConfig()
	rw := &realmWorld{w: mpi.NewWorld(ranks, cfg), files: make([]*mpiio.File, ranks)}
	if nodeRanks > 0 {
		rw.w.SetNodeMap(mpi.BlockNodeMap(nodeRanks))
	}
	fs := pfs.NewFileSystem(cfg)
	errs := make([]error, ranks)
	rw.w.Run(func(p *mpi.Proc) {
		rw.files[p.Rank()], errs[p.Rank()] = mpiio.Open(p, fs, "realms.dat", mpiio.Info{Collective: eng})
	})
	for r, err := range errs {
		if err != nil {
			t.Fatalf("open on rank %d: %v", r, err)
		}
	}
	return rw
}

// all asks for rank after rank's realms of one call and checks that they are
// one assignment: one backing array, one signature.
func (rw *realmWorld) all(t *testing.T, eng *Impl, naggs, spread int, st, en int64) *realm.Assignment {
	t.Helper()
	var first *realm.Assignment
	for r, f := range rw.files {
		asg, err := eng.realms(f, naggs, spread, st, en, 0)
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
		if first == nil {
			first = asg
		}
		if &asg.Realms[0] != &first.Realms[0] || asg.Sig != first.Sig {
			t.Fatalf("rank %d got its own realms (sig %#x, rank 0 has %#x)", r, asg.Sig, first.Sig)
		}
		if asg.Sig != realmSignature(asg.Realms) {
			t.Fatalf("rank %d: carried signature %#x is not the realms' (%#x)", r, asg.Sig, realmSignature(asg.Realms))
		}
	}
	return first
}

// TestRealmsSharedPerCall: the realm set is computed once per call per world.
// The first rank to ask computes, the others receive the same immutable
// realms and their signature without allocating; a call over the same region
// reuses them; and nothing that changes what the assigner would answer (the
// region, the aggregator count, the spread width, the world's node map, a
// resume's dead set, an assigner that reads the accesses) is ever served a
// stale assignment.
func TestRealmsSharedPerCall(t *testing.T) {
	const ranks, naggs = 8, 4
	eng := New(Options{Align: 4096})
	rw := newRealmWorld(t, ranks, 4, eng)

	a := rw.all(t, eng, naggs, 0, 0, 1<<20)
	if again := rw.all(t, eng, naggs, 0, 0, 1<<20); &again.Realms[0] != &a.Realms[0] {
		t.Error("an unchanged region was assigned again")
	}
	if !raceEnabled {
		// A call over a new region: rank 0 pays for the assignment, the other
		// P-1 for nothing.
		region := int64(1 << 20)
		if got := testing.AllocsPerRun(20, func() {
			region += 8192
			if _, err := eng.realms(rw.files[0], naggs, 0, 0, region, 0); err != nil {
				t.Fatal(err)
			}
		}); got == 0 {
			t.Error("a new region cost its first rank nothing: was it assigned at all?")
		}
		for r := 1; r < ranks; r++ {
			if got := testing.AllocsPerRun(20, func() {
				if _, err := eng.realms(rw.files[r], naggs, 0, 0, region, 0); err != nil {
					t.Fatal(err)
				}
			}); got != 0 {
				t.Errorf("rank %d: %.0f allocs to receive the call's realms, want 0", r, got)
			}
		}
	}

	// Whatever moves the answer moves the key.
	differs := func(what string, b *realm.Assignment) {
		t.Helper()
		if b.Sig == a.Sig {
			t.Errorf("%s was served the assignment of (4 aggregators, [0, 1 MiB))", what)
		}
		a = b
	}
	differs("a longer region", rw.all(t, eng, naggs, 0, 0, 2<<20))
	differs("a later start", rw.all(t, eng, naggs, 0, 8192, 2<<20))
	differs("another aggregator count", rw.all(t, eng, naggs-1, 0, 8192, 2<<20))

	// SpreadAggs: one slot per rank, realms on `spread` of them, picked by
	// node. The width and the node map both move the assignment.
	spreadEng := New(Options{SpreadAggs: true})
	owners := func(asg *realm.Assignment) (out []int) {
		for r, rm := range asg.Realms {
			if !rm.Empty() {
				out = append(out, r)
			}
		}
		return out
	}
	two := owners(rw.all(t, spreadEng, ranks, 2, 0, 1<<20))
	if three := owners(rw.all(t, spreadEng, ranks, 3, 0, 1<<20)); len(two) != 2 || len(three) != 3 {
		t.Errorf("spread widths 2 and 3 gave realms to ranks %v and %v", two, three)
	}
	other := newRealmWorld(t, ranks, 2, spreadEng) // four nodes instead of two
	if moved := owners(other.all(t, spreadEng, ranks, 2, 0, 1<<20)); len(moved) != 2 || moved[1] == two[1] {
		t.Errorf("node maps of 4 and of 2 ranks a node spread 2 aggregators onto ranks %v and %v", two, moved)
	}

	// A resume demotes the dead aggregator: the engine ResumeCollective
	// builds must not see what the failed attempt's engine assigned.
	before := rw.all(t, eng, naggs, 0, 0, 1<<20)
	resumed := ResumeCollective(Options{Align: 4096}, new(mpiio.WriteJournal), []int{1})
	after := rw.all(t, resumed, naggs, 0, 0, 1<<20)
	if before.Realms[1].Empty() || !after.Realms[1].Empty() || after.Sig == before.Sig {
		t.Errorf("resume with rank 1 dead: its realm was %v and is %v", before.Realms[1], after.Realms[1])
	}
}

// TestRealmsFromAccessesAreNotShared: an assigner that reads the gathered
// accesses answers from more than the key pins, so it is asked on every call:
// the same aggregate region accessed densely at the other end must move the
// load-balanced boundaries.
func TestRealmsFromAccessesAreNotShared(t *testing.T) {
	const ranks, naggs, span = 4, 2, 1 << 16
	eng := New(Options{Assigner: realm.LoadBalanced{}})
	rw := newRealmWorld(t, ranks, 0, eng)
	// Every rank touches the first and the last bytes of the region, and puts
	// the bulk of its data near the front (first call) or the back (second).
	bounds := make([][2]int64, ranks)
	for call, bulkAt := range []int64{1024, span - 16384} {
		errs := make([]error, ranks)
		rw.w.Run(func(p *mpi.Proc) {
			r, f := p.Rank(), rw.files[p.Rank()]
			ft := datatype.Must(datatype.HIndexed([]int64{8, 2048, 8}, []int64{int64(8 * r), bulkAt + int64(2048*r), span - 64 + int64(8*r)}, datatype.Bytes(1)))
			if errs[r] = f.SetView(0, datatype.Bytes(1), ft); errs[r] != nil {
				return
			}
			var asg *realm.Assignment
			if asg, errs[r] = eng.realms(f, naggs, 0, 0, span, ft.Size()); errs[r] == nil {
				bounds[r][call] = asg.Realms[1].Disp
			}
		})
		for r, err := range errs {
			if err != nil {
				t.Fatalf("call %d, rank %d: %v", call, r, err)
			}
		}
	}
	for r, b := range bounds {
		if b != bounds[0] || b[0] == b[1] {
			t.Fatalf("rank %d: second realm starts at %d, then %d (rank 0: %v); want the same on every rank and a move between calls", r, b[0], b[1], bounds[0])
		}
	}
}
