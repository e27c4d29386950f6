package mpi

import (
	"bytes"
	"reflect"
	"testing"
)

// TestRendezvousResultsSurviveLaterCollectives: the rendezvous reuses one
// snapshot, so what a collective returned must not change under the ones
// after it. Each rank keeps its Allgather result, its AlltoallvIov rows and
// its AllgatherInt64Into values, runs the later collectives and compares.
// The crash variant kills rank 3 before the AlltoallvIov: its row and its
// int64 slots read zero, and the maximum folds those zeros in.
func TestRendezvousResultsSurviveLaterCollectives(t *testing.T) {
	const size = 4
	for _, crash := range []bool{false, true} {
		w := testWorld(size)
		w.SetNodeMap(BlockNodeMap(2))
		if crash {
			w.SetRankFaults(NewRankFaultSchedule(1).CrashAtSeq(3, 2))
		}
		w.Run(func(p *Proc) {
			r := p.Rank()
			all := p.Allgather([]byte{byte(10 + r)})
			keptAll := make([][]byte, size)
			for i, b := range all {
				keptAll[i] = bytes.Clone(b)
			}
			send := make([][][]byte, size)
			for d := range send {
				send[d] = [][]byte{{byte(16*r + d)}, {byte(r)}}
			}
			rows := p.AlltoallvIov(send)
			keptRows := make([][]byte, size)
			for s, row := range rows {
				keptRows[s] = concat(row)
			}
			ints := make([]int64, size)
			p.AllgatherInt64Into(int64(-1-r), ints)
			keptInts := append([]int64(nil), ints...)
			top := p.IallreduceMaxInt64(int64(-1 - r)).Wait()
			p.Barrier()

			for i := range keptAll {
				if want := []byte{byte(10 + i)}; !bytes.Equal(keptAll[i], want) || !bytes.Equal(all[i], keptAll[i]) {
					t.Errorf("crash=%v rank %d: Allgather slot %d reads %v, kept %v, want %v", crash, r, i, all[i], keptAll[i], want)
				}
			}
			for s := range rows {
				var want []byte
				if !crash || s != 3 {
					want = []byte{byte(16*s + r), byte(s)}
				}
				if !bytes.Equal(keptRows[s], want) || !bytes.Equal(concat(rows[s]), keptRows[s]) {
					t.Errorf("crash=%v rank %d: row from %d reads %v, kept %v, want %v", crash, r, s, concat(rows[s]), keptRows[s], want)
				}
			}
			wantInts, wantMax := []int64{-1, -2, -3, -4}, int64(-1)
			if crash {
				wantInts[3], wantMax = 0, 0
			}
			if !reflect.DeepEqual(keptInts, wantInts) || !reflect.DeepEqual(ints, keptInts) {
				t.Errorf("crash=%v rank %d: AllgatherInt64Into reads %v, kept %v, want %v", crash, r, ints, keptInts, wantInts)
			}
			if top != wantMax {
				t.Errorf("crash=%v rank %d: IallreduceMaxInt64 = %d, want %d", crash, r, top, wantMax)
			}
		})
	}
}

// TestRendezvousAllocatesNoSnapshot: a publish copies the deposits into the
// snapshot it reuses, so a rendezvous with a boxed value allocates nothing.
func TestRendezvousAllocatesNoSnapshot(t *testing.T) {
	c := newCollSync(1)
	boxed := any([]byte{1})
	if n := testing.AllocsPerRun(100, func() { c.exchange(0, 0, slot{v: boxed}) }); n != 0 {
		t.Errorf("exchange allocates %v times per call, want 0", n)
	}
}

// TestAlltoallvIovBackToBack: peers read a rank's send table after the
// rendezvous, so a rank that goes straight on to its next AlltoallvIov must
// not overwrite the table they may still be reading. Every rank issues
// consecutive calls with a different table each time and checks every row
// it receives; the race detector reports a table written under a reader.
// The returned table is the rank's own and is refilled by each call.
func TestAlltoallvIovBackToBack(t *testing.T) {
	const size, calls = 4, 64
	w := testWorld(size)
	w.Run(func(p *Proc) {
		r := p.Rank()
		tables := [2][][][]byte{make([][][]byte, size), make([][][]byte, size)}
		var prev [][][]byte
		for c := 0; c < calls; c++ {
			send := tables[c%2]
			for d := range send {
				send[d] = [][]byte{{byte(c), byte(r), byte(d)}}
			}
			got := p.AlltoallvIov(send)
			for s, row := range got {
				if want := []byte{byte(c), byte(s), byte(r)}; !bytes.Equal(concat(row), want) {
					t.Errorf("rank %d call %d: row from %d reads %v, want %v", r, c, s, concat(row), want)
				}
			}
			if prev != nil && &prev[0] != &got[0] {
				t.Errorf("rank %d call %d: AlltoallvIov returned a new table", r, c)
			}
			prev = got
		}
	})
}
