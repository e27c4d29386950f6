package mpi

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"flexio/internal/metrics"
)

// commTraffic drives a fixed pattern through a three-rank world: rank 2
// first touches its higher peer, rank 0 sends outside and inside a round,
// rank 1 sends inside one, and rank 2 delivers to itself.
func commTraffic(w *World) {
	w.Run(func(p *Proc) {
		switch p.Rank() {
		case 0:
			p.Send(1, 0, make([]byte, 100))
			p.SetRound(0)
			p.Send(1, 0, make([]byte, 50))
		case 1:
			p.Recv(0, 0)
			p.Recv(0, 0)
			p.Recv(2, 0)
			p.SetRound(0)
			p.Send(2, 0, make([]byte, 25))
		case 2:
			p.Send(1, 0, make([]byte, 5))
			p.Send(0, 0, make([]byte, 40))
			p.SetRound(0)
			p.Send(2, 0, make([]byte, 10))
			p.Recv(2, 0)
			p.Recv(1, 0)
		}
		p.SetRound(-1)
	})
	w.Run(func(p *Proc) {
		if p.Rank() == 0 {
			p.Recv(2, 0)
		}
	})
}

// TestCommMatrixAccounting: the view reads back every send of the ranks'
// peer rows, the shuffle columns and node split agree with the shuffle
// counters the same booking feeds, and a reset empties the rows.
func TestCommMatrixAccounting(t *testing.T) {
	w := testWorld(3)
	m := w.EnableCommMatrix()
	commTraffic(w)

	if c := m.Cell(0, 1); c != (CommCell{Msgs: 2, Bytes: 150, ShuffleBytes: 50}) {
		t.Errorf("Cell(0,1) = %+v", c)
	}
	if c := m.Cell(1, 0); c != (CommCell{}) {
		t.Errorf("untouched Cell(1,0) = %+v", c)
	}
	if got := m.ShuffleRowBytes(0); got != 50 {
		t.Errorf("ShuffleRowBytes(0) = %d, want 50", got)
	}
	if got := m.ShuffleColBytes(2); got != 35 {
		t.Errorf("ShuffleColBytes(2) = %d, want 35", got)
	}
	if m.Size() != 3 || m.TotalBytes() != 230 || m.TotalMsgs() != 6 {
		t.Errorf("size %d, totals (%d bytes, %d msgs), want 3, (230, 6)", m.Size(), m.TotalBytes(), m.TotalMsgs())
	}
	// Identity map: only the self-delivery is intra-node, as the counters say.
	inter, intra := m.NodeSplit(nil)
	counted := w.Totals()
	if inter != 75 || intra != 10 || counted.Counter(metrics.CShuffleInterNodeBytes) != inter || counted.Counter(metrics.CShuffleIntraNodeBytes) != intra {
		t.Errorf("identity NodeSplit = (%d, %d), want (75, 10) and the counters' split", inter, intra)
	}
	if inter, intra = m.NodeSplit(func(int) int { return 0 }); inter != 0 || intra != 85 {
		t.Errorf("one-node NodeSplit = (%d, %d), want (0, 85)", inter, intra)
	}

	w.ResetClocks()
	if m.TotalBytes() != 0 || m.TotalMsgs() != 0 || m.Cell(0, 1) != (CommCell{}) {
		t.Error("ResetClocks left traffic behind")
	}
	commTraffic(w)
	w.EnableCommMatrix()
	if m.TotalMsgs() != 0 {
		t.Error("EnableCommMatrix did not start the counts over")
	}
}

// TestCommMatrixJSON: entries sorted by (src, dst) whatever the touch
// order, with the node split, byte-identical across writes; an empty
// matrix writes an empty entries array.
func TestCommMatrixJSON(t *testing.T) {
	var empty bytes.Buffer
	if err := testWorld(2).CommMatrix().WriteJSON(&empty, nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(empty.Bytes(), []byte(`"entries": []`)) {
		t.Errorf("empty matrix JSON has no empty entries array:\n%s", empty.Bytes())
	}

	w := testWorld(3)
	commTraffic(w)
	var buf, again bytes.Buffer
	if err := w.CommMatrix().WriteJSON(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if err := w.CommMatrix().WriteJSON(&again, nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Error("WriteJSON is not deterministic")
	}
	var doc commMatrixJSON
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("WriteJSON output is not JSON: %v", err)
	}
	want := []CommEntry{
		{Src: 0, Dst: 1, Msgs: 2, Bytes: 150, ShuffleBytes: 50},
		{Src: 1, Dst: 2, Msgs: 1, Bytes: 25, ShuffleBytes: 25},
		{Src: 2, Dst: 0, Msgs: 1, Bytes: 40},
		{Src: 2, Dst: 1, Msgs: 1, Bytes: 5},
		{Src: 2, Dst: 2, Msgs: 1, Bytes: 10, ShuffleBytes: 10},
	}
	if doc.Schema != commMatrixSchema || doc.Ranks != 3 || doc.InterNodeBytes != 75 || doc.IntraNodeBytes != 10 {
		t.Errorf("bad doc header: %+v", doc)
	}
	if !reflect.DeepEqual(doc.Entries, want) {
		t.Errorf("entries = %+v, want %+v", doc.Entries, want)
	}
}

func TestBlockNodeMap(t *testing.T) {
	id := BlockNodeMap(1)
	if id(0) != 0 || id(5) != 5 {
		t.Error("perNode<=1 should be the identity map")
	}
	pairs := BlockNodeMap(2)
	if pairs(0) != 0 || pairs(1) != 0 || pairs(2) != 1 || pairs(7) != 3 {
		t.Error("BlockNodeMap(2) should pack consecutive rank pairs")
	}
}
