package realm

import (
	"testing"

	"flexio/internal/datatype"
)

// nodeLocalCtx builds a 4-rank, 2-node context (ranks 0,1 on node 0 and
// 2,3 on node 1) where each rank accesses one private block: node 0's
// ranks own [0,200), node 1's own [200,400).
func nodeLocalCtx(naggs int) Context {
	return Context{
		NAggs: naggs,
		Start: 0,
		End:   400,
		RankSegs: [][]datatype.Seg{
			{{Off: 0, Len: 100}},
			{{Off: 100, Len: 100}},
			{{Off: 200, Len: 100}},
			{{Off: 300, Len: 100}},
		},
		NodeOf: func(r int) int { return r / 2 },
	}
}

// owner returns the realm slot owning file offset off.
func owner(t *testing.T, realms []Realm, off int64) int {
	t.Helper()
	for i, r := range realms {
		c := r.Cursor()
		if c == nil {
			continue
		}
		if c.SeekOffset(off) && c.Offset() == off {
			return i
		}
	}
	t.Fatalf("offset %d owned by no realm", off)
	return -1
}

// TestNodeLocalKeepsBytesOnNode: with an aggregator per rank, every byte a
// node's ranks access must land in a realm whose aggregator lives on that
// node — the partition that lets pre-aggregated streams stay intra-node.
func TestNodeLocalKeepsBytesOnNode(t *testing.T) {
	ctx := nodeLocalCtx(4)
	realms, err := NodeLocal{}.Assign(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := Coverage(realms, 0, 400); err != nil {
		t.Fatal(err)
	}
	for off := int64(0); off < 400; off += 50 {
		slot := owner(t, realms, off)
		wantNode := int(off / 200) // node 0 accesses [0,200), node 1 [200,400)
		if gotNode := ctx.NodeOf(slot); gotNode != wantNode {
			t.Errorf("byte %d owned by slot %d on node %d, want node %d", off, slot, gotNode, wantNode)
		}
	}
}

// TestNodeLocalSplitsWithinNode: a node's byte set must spread across its
// own aggregator slots (not pile onto one).
func TestNodeLocalSplitsWithinNode(t *testing.T) {
	realms, err := NodeLocal{}.Assign(nodeLocalCtx(4))
	if err != nil {
		t.Fatal(err)
	}
	if owner(t, realms, 0) == owner(t, realms, 199) {
		t.Errorf("node 0's 200 bytes all landed on one of its two slots")
	}
	if owner(t, realms, 200) == owner(t, realms, 399) {
		t.Errorf("node 1's 200 bytes all landed on one of its two slots")
	}
}

// TestNodeLocalSpill: a node with data but no aggregator must spill onto a
// node that has one, and the partition must stay gapless.
func TestNodeLocalSpill(t *testing.T) {
	ctx := nodeLocalCtx(2) // slots 0,1 = ranks 0,1, both on node 0
	realms, err := NodeLocal{}.Assign(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := Coverage(realms, 0, 400); err != nil {
		t.Fatal(err)
	}
	// Node 1 has no aggregator: its bytes must still be owned (by node 0).
	owner(t, realms, 300)
}

// TestNodeLocalGapFill: bytes nobody accesses attach to the next owner so
// the partition tiles the region without holes.
func TestNodeLocalGapFill(t *testing.T) {
	ctx := Context{
		NAggs: 2,
		Start: 0,
		End:   1000,
		RankSegs: [][]datatype.Seg{
			{{Off: 100, Len: 50}},
			{{Off: 700, Len: 50}},
		},
		NodeOf: func(r int) int { return r },
	}
	realms, err := NodeLocal{}.Assign(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := Coverage(realms, 0, 1000); err != nil {
		t.Fatal(err)
	}
}

// TestNodeLocalOverlapFirstTouch: contested bytes go to the first-starting
// run's node, deterministically.
func TestNodeLocalOverlapFirstTouch(t *testing.T) {
	ctx := Context{
		NAggs: 2,
		Start: 0,
		End:   300,
		RankSegs: [][]datatype.Seg{
			{{Off: 0, Len: 200}},   // node 0 starts first
			{{Off: 100, Len: 200}}, // node 1 overlaps the middle
		},
		NodeOf: func(r int) int { return r },
	}
	realms, err := NodeLocal{}.Assign(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := Coverage(realms, 0, 300); err != nil {
		t.Fatal(err)
	}
	if slot := owner(t, realms, 150); ctx.NodeOf(slot) != 0 {
		t.Errorf("contested byte 150 owned by node %d, want first-touching node 0", ctx.NodeOf(slot))
	}
}

// TestNodeLocalFallback: without per-rank segs the policy defers to Even
// instead of failing.
func TestNodeLocalFallback(t *testing.T) {
	ctx := Context{NAggs: 4, Start: 0, End: 400}
	realms, err := NodeLocal{}.Assign(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := Coverage(realms, 0, 400); err != nil {
		t.Fatal(err)
	}
	even, _ := Even{}.Assign(ctx)
	for i := range realms {
		if realms[i].Disp != even[i].Disp {
			t.Errorf("realm %d starts at %d, Even's at %d", i, realms[i].Disp, even[i].Disp)
		}
	}
}

// TestNodeLocalAggRanks: explicit aggregator placements (as failover
// installs) must drive the node attribution, not the slot index.
func TestNodeLocalAggRanks(t *testing.T) {
	ctx := nodeLocalCtx(2)
	ctx.AggRanks = []int{2, 3} // both slots on node 1
	realms, err := NodeLocal{}.Assign(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := Coverage(realms, 0, 400); err != nil {
		t.Fatal(err)
	}
	// Every byte must be owned by the only aggregator node there is.
	for off := int64(0); off < 400; off += 100 {
		owner(t, realms, off)
	}
}
