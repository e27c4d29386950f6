package mpi

import (
	"reflect"
	"testing"

	"flexio/internal/sim"
)

// TestBlockNodeMapNonPositive: a non-positive ranks-per-node must degrade
// to the identity map (one rank per node), never divide by zero.
func TestBlockNodeMapNonPositive(t *testing.T) {
	for _, perNode := range []int{0, -1, -16} {
		m := BlockNodeMap(perNode)
		for r := 0; r < 5; r++ {
			if m(r) != r {
				t.Fatalf("BlockNodeMap(%d)(%d) = %d, want identity", perNode, r, m(r))
			}
		}
	}
}

// TestPlanNode covers leader election under the block map: lowest rank
// leads, dead leaders are skipped, a fully dead node falls back to its
// lowest rank, and members list every other co-resident ascending.
func TestPlanNode(t *testing.T) {
	w := testWorld(8)
	w.SetNodeMap(BlockNodeMap(4))
	w.Run(func(p *Proc) {
		plan := p.PlanNode(nil)
		wantLeader := (p.Rank() / 4) * 4
		if plan.Leader != wantLeader {
			t.Errorf("rank %d: leader %d, want %d", p.Rank(), plan.Leader, wantLeader)
		}
		if p.Rank() == wantLeader {
			want := []int{wantLeader + 1, wantLeader + 2, wantLeader + 3}
			if !reflect.DeepEqual(plan.Members, want) {
				t.Errorf("rank %d: members %v, want %v", p.Rank(), plan.Members, want)
			}
		} else if len(plan.Members) != 0 {
			t.Errorf("rank %d: non-leader has members %v", p.Rank(), plan.Members)
		}

		// Dead leader: the next live co-resident takes over.
		plan = p.PlanNode([]int{0})
		if node := p.Rank() / 4; node == 0 {
			if plan.Leader != 1 {
				t.Errorf("rank %d: leader %d with rank 0 dead, want 1", p.Rank(), plan.Leader)
			}
			if p.Rank() == 1 {
				// The dead rank stays a member: a resumed world revives it.
				want := []int{0, 2, 3}
				if !reflect.DeepEqual(plan.Members, want) {
					t.Errorf("rank 1: members %v, want %v", plan.Members, want)
				}
			}
		} else if plan.Leader != 4 {
			t.Errorf("rank %d: leader %d, want 4 (other node unaffected)", p.Rank(), plan.Leader)
		}

		// Whole node dead: the lowest rank fronts it anyway.
		plan = p.PlanNode([]int{0, 1, 2, 3})
		if p.Rank()/4 == 0 && plan.Leader != 0 {
			t.Errorf("rank %d: fully dead node elected %d, want 0", p.Rank(), plan.Leader)
		}
	})
}

// TestNodeLeadersInto: the aggregator-side fill marks each node's lowest
// rank not listed dead (its lowest rank when the whole node is listed),
// allocating nothing.
func TestNodeLeadersInto(t *testing.T) {
	w := testWorld(6)
	w.SetNodeMap(BlockNodeMap(3))
	p := w.Proc(0)
	for _, tc := range []struct {
		dead []int
		want []bool
	}{
		{nil, []bool{true, false, false, true, false, false}},
		{[]int{0}, []bool{false, true, false, true, false, false}},
		{[]int{0, 1}, []bool{false, false, true, true, false, false}},
		{[]int{0, 1, 2}, []bool{true, false, false, true, false, false}},
		{[]int{3}, []bool{true, false, false, false, true, false}},
	} {
		leaders := make([]bool, 6)
		p.NodeLeadersInto(leaders, tc.dead)
		if !reflect.DeepEqual(leaders, tc.want) {
			t.Errorf("dead=%v: NodeLeadersInto %v, want %v", tc.dead, leaders, tc.want)
		}
		if n := testing.AllocsPerRun(10, func() { p.NodeLeadersInto(leaders, tc.dead) }); n != 0 {
			t.Errorf("dead=%v: NodeLeadersInto allocates %v times", tc.dead, n)
		}
	}
}

// TestNodeCountCaching: the distinct-node count must track SetNodeMap (the
// per-op topology gauge reads it allocation-free).
func TestNodeCountCaching(t *testing.T) {
	w := testWorld(8)
	if w.NodeCount() != 8 {
		t.Fatalf("fresh world NodeCount = %d, want 8 (identity map)", w.NodeCount())
	}
	w.SetNodeMap(BlockNodeMap(4))
	if w.NodeCount() != 2 {
		t.Fatalf("NodeCount after BlockNodeMap(4) = %d, want 2", w.NodeCount())
	}
	w.SetNodeMap(func(int) int { return 0 })
	if w.NodeCount() != 1 {
		t.Fatalf("NodeCount after one-node map = %d, want 1", w.NodeCount())
	}
}

// TestIntraNodePricing: the topology-aware cost model must deliver a
// co-resident message far faster than the same bytes across nodes — the
// price differential the two-level exchange arbitrages.
func TestIntraNodePricing(t *testing.T) {
	elapsed := func(nodeOf func(int) int) sim.Time {
		w := testWorld(2)
		if nodeOf != nil {
			w.SetNodeMap(nodeOf)
		}
		var got sim.Time
		w.Run(func(p *Proc) {
			if p.Rank() == 0 {
				p.Send(1, 1, make([]byte, 1<<20))
			} else {
				p.Recv(0, 1)
				got = p.Clock()
			}
		})
		return got
	}
	inter := elapsed(nil) // identity map: distinct nodes
	intra := elapsed(func(int) int { return 0 })
	if intra <= 0 || inter <= 0 {
		t.Fatalf("clocks did not advance (intra=%v inter=%v)", intra, inter)
	}
	if intra*10 > inter {
		t.Fatalf("intra-node delivery %v not ≫ cheaper than inter-node %v", intra, inter)
	}
}
