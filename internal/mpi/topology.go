package mpi

import "slices"

// Topology helpers for node-local pre-aggregation. The installed node map
// (SetNodeMap) is the single source of truth for rank placement; everything
// here is a pure, deterministic function of it, so every rank computes the
// same election without communicating.

// Node returns the simulated node hosting rank r under the installed node
// map (identity when no map is installed).
func (p *Proc) Node(r int) int { return p.w.node(r) }

// NodeCount returns the number of distinct nodes the installed node map
// spreads the world across.
func (p *Proc) NodeCount() int { return p.w.NodeCount() }

// NodeCount returns the number of distinct nodes under the installed node
// map (= world size when no map is installed). The count is cached at
// SetNodeMap time so per-operation callers stay allocation-free.
func (w *World) NodeCount() int { return w.nodes }

// countNodes recomputes the distinct-node count under the current map.
func (w *World) countNodes() int {
	seen := make(map[int]bool, w.size)
	for r := 0; r < w.size; r++ {
		seen[w.node(r)] = true
	}
	return len(seen)
}

// NodeLeadersInto fills leaders[r] = true for every rank that leads its
// node under the current map and the given dead set (see PlanNode).
// leaders must have world-size length. Aggregators use it to know which
// ranks will send merged requests when pre-aggregation is on. The fill is
// allocation-free so the steady state stays within the benchmark gates.
func (p *Proc) NodeLeadersInto(leaders []bool, dead []int) {
	w := p.w
	for r := range leaders {
		leaders[r] = leaderOf(w.size, w.node, w.node(r), dead) == r
	}
}

// leaderOf elects node's leader: its lowest rank not listed dead, or its
// lowest rank outright when the whole node is listed.
func leaderOf(size int, nodeOf func(int) int, node int, dead []int) int {
	lowest := -1
	for r := 0; r < size; r++ {
		if nodeOf(r) != node {
			continue
		}
		if !slices.Contains(dead, r) {
			return r
		}
		if lowest < 0 {
			lowest = r
		}
	}
	return lowest
}

// NodePlan is one rank's view of the node-local pre-aggregation roster:
// which rank leads its node and, when this rank is the leader, which
// co-resident ranks forward through it. Every rank derives the identical
// plan from the node map and the (journal-supplied) dead set, so leaders
// and members agree without a rendezvous.
type NodePlan struct {
	// Leader is the rank elected to front this rank's node: the lowest
	// rank on the node not listed dead (falling back to the lowest rank
	// outright when the whole node is listed). Leader == the planning
	// rank means it leads.
	Leader int
	// Members lists the node's other ranks, ascending — the ranks whose
	// requests and payloads the leader merges. Only meaningful on the
	// leader; empty elsewhere and when the node holds a single rank.
	Members []int
}

// Leads reports whether the planning rank is its node's leader.
func (n NodePlan) Leads(rank int) bool { return n.Leader == rank }

// PlanNode computes rank's pre-aggregation roster. dead lists ranks a
// resume knows to have failed: they are never elected leader (mirroring
// realm.Failover demoting dead aggregators) but still appear as members,
// since a resumed world revives them as ordinary participants.
func (p *Proc) PlanNode(dead []int) NodePlan {
	return planNode(p.w.size, p.w.node, p.rank, dead)
}

func planNode(size int, nodeOf func(int) int, rank int, dead []int) NodePlan {
	myNode := nodeOf(rank)
	plan := NodePlan{Leader: leaderOf(size, nodeOf, myNode, dead)}
	if plan.Leader != rank {
		return plan
	}
	for r := 0; r < size; r++ {
		if r != rank && nodeOf(r) == myNode {
			plan.Members = append(plan.Members, r)
		}
	}
	return plan
}
