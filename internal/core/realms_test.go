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

// ask is one rank's request for the call's realms; accesses, when an assigner
// reads them, is what the ranks' gather would have delivered.
func (rw *realmWorld) ask(eng *Impl, r, naggs int, st, en int64, accesses [][]byte) (*realm.Assignment, error) {
	if accesses == nil {
		return eng.realms(rw.files[r], naggs, st, en, 0)
	}
	asg, _, err := eng.assigned(rw.files[r].Proc(), naggs, st, en, accesses)
	return asg, err
}

// all asks for rank after rank's realms of one call and checks that they are
// one assignment: one backing array, one signature.
func (rw *realmWorld) all(t *testing.T, eng *Impl, naggs int, st, en int64, accesses [][]byte) *realm.Assignment {
	t.Helper()
	var first *realm.Assignment
	for r := range rw.files {
		asg, err := rw.ask(eng, r, naggs, st, en, accesses)
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

// TestRealmsSharedPerCall: the realm set is computed once per call per world,
// by an assigner that reads the region alone and by one that reads every
// rank's gathered access. The first rank to ask computes, the others receive
// the same immutable realms and their signature without allocating; a call
// over the same region (and accesses) reuses them; and nothing that changes
// what the assigner would answer (the region, the aggregator count, one rank's
// access, a resume's dead set) is ever served a stale assignment.
func TestRealmsSharedPerCall(t *testing.T) {
	const ranks, naggs = 8, 4
	// What a gather delivers: rank r accesses shift+[r, r+1) * 4 KiB.
	gathered := func(shift int64) [][]byte {
		out := make([][]byte, ranks)
		for r := range out {
			out[r] = datatype.EncodeSegs([]datatype.Seg{{Off: shift + int64(r)*4096, Len: 4096}})
		}
		return out
	}
	for _, tc := range []struct {
		name     string
		assigner realm.Assigner
		accesses func(shift int64) [][]byte
	}{
		{"region", nil, func(int64) [][]byte { return nil }},
		{"accesses", realm.NodeLocal{}, gathered},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := New(Options{Assigner: tc.assigner, Align: 4096})
			rw := newRealmWorld(t, ranks, 4, eng)

			a := rw.all(t, eng, naggs, 0, 1<<20, tc.accesses(0))
			if again := rw.all(t, eng, naggs, 0, 1<<20, tc.accesses(0)); &again.Realms[0] != &a.Realms[0] {
				t.Error("an unchanged call was assigned again")
			}
			if !raceEnabled {
				// A call over a new region: rank 0 pays for the assignment,
				// the other P-1 for nothing.
				region, accesses := int64(1<<20), tc.accesses(0)
				if got := testing.AllocsPerRun(20, func() {
					region += 8192
					if _, err := rw.ask(eng, 0, naggs, 0, region, accesses); err != nil {
						t.Fatal(err)
					}
				}); got == 0 {
					t.Error("a new region cost its first rank nothing: was it assigned at all?")
				}
				for r := 1; r < ranks; r++ {
					if got := testing.AllocsPerRun(20, func() {
						if _, err := rw.ask(eng, r, naggs, 0, region, accesses); err != nil {
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
				if &b.Realms[0] == &a.Realms[0] {
					t.Errorf("%s was served the previous call's assignment", what)
				}
				a = b
			}
			differs("a longer region", rw.all(t, eng, naggs, 0, 2<<20, tc.accesses(0)))
			differs("a later start", rw.all(t, eng, naggs, 8192, 2<<20, tc.accesses(8192)))
			differs("another aggregator count", rw.all(t, eng, naggs-1, 8192, 2<<20, tc.accesses(8192)))
			if moved := tc.accesses(8192); moved != nil {
				// The same region and everybody else's access: rank 5 alone
				// reaches further.
				moved[5] = datatype.EncodeSegs([]datatype.Seg{{Off: 8192 + 5*4096, Len: 4096}, {Off: 1 << 20, Len: 4096}})
				differs("a changed access of one rank", rw.all(t, eng, naggs-1, 8192, 2<<20, moved))
			}

			// A resume demotes the dead aggregator: the engine ResumeCollective
			// builds must not see what the failed attempt's engine assigned.
			before := rw.all(t, eng, naggs, 0, 1<<20, tc.accesses(0))
			resumed := ResumeCollective(Options{Assigner: tc.assigner, Align: 4096}, new(mpiio.WriteJournal), []int{1})
			after := rw.all(t, resumed, naggs, 0, 1<<20, tc.accesses(0))
			if before.Realms[1].Empty() || !after.Realms[1].Empty() || after.Sig == before.Sig {
				t.Errorf("resume with rank 1 dead: its realm was %v and is %v", before.Realms[1], after.Realms[1])
			}
		})
	}
}

// TestRealmsFromAccessesAreNotShared: what an assigner that reads the gathered
// accesses answered for one call is not handed to a call whose accesses
// differ, through the real gather: the same aggregate region accessed densely
// at the other end must move the load-balanced boundaries on every rank.
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
			if asg, errs[r] = eng.realms(f, naggs, 0, span, ft.Size()); errs[r] == nil {
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
