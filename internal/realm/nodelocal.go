package realm

import (
	"sort"

	"flexio/internal/datatype"
)

// farEnd bounds the unbounded tail of a NodeLocal partition: the final
// interval is extended to this offset instead of tiling a pattern forever,
// which keeps the realm a plain Count=1 seg list while still covering any
// file the simulation can address.
const farEnd = int64(1) << 62

// NodeLocal assigns each aggregator the bytes its own node's ranks access,
// so the shuffle between clients and aggregators stays on-node wherever the
// node has both data and an aggregator. This is the realm-side half of
// two-level (intra-node) aggregation: pre-aggregation alone cannot reduce
// inter-node shuffle bytes when every aggregator lives on one node, but a
// node-local partition routes each node's merged stream to that node's own
// aggregators, and only bytes from aggregator-less (or data-less) nodes
// still cross the network.
//
// The policy is a deterministic function of the context: per-rank accesses
// (RankSegs) are attributed to nodes (NodeOf), overlaps go to the
// first-touching node, gaps attach to the next owner so the partition
// stays gapless, each node's byte set is split evenly by bytes among that
// node's aggregator slots (AggRanks), and nodes without a local aggregator
// spill round-robin onto the nodes that have one. A context without any
// accessed byte gets Even's partition.
type NodeLocal struct{}

// Name implements Assigner.
func (n NodeLocal) Name() string { return "node-local" }

// NeedsSegs implements Assigner.
func (n NodeLocal) NeedsSegs() bool { return true }

// ownedRun is one disjoint interval of the file and the node owning it.
type ownedRun struct {
	off, end int64
	node     int
}

// Assign implements Assigner.
func (n NodeLocal) Assign(ctx Context) ([]Realm, error) {
	if err := validate(ctx); err != nil {
		return nil, err
	}
	if len(ctx.RankSegs) == 0 {
		return Even{}.Assign(ctx)
	}
	nodeOf := ctx.NodeOf
	if nodeOf == nil {
		nodeOf = func(r int) int { return r }
	}

	// Which nodes host aggregators, and which slots sit on each.
	aggSlots := map[int][]int{} // node → aggregator slots, ascending
	var aggNodes []int          // nodes with aggregators, ascending
	for i := 0; i < ctx.NAggs; i++ {
		node := nodeOf(ctx.AggRank(i))
		if len(aggSlots[node]) == 0 {
			aggNodes = append(aggNodes, node)
		}
		aggSlots[node] = append(aggSlots[node], i)
	}
	sort.Ints(aggNodes)

	// Attribute every rank's access to its node; nodes without a local
	// aggregator spill deterministically onto one that has aggregators.
	homeNode := func(node int) int {
		if len(aggSlots[node]) > 0 {
			return node
		}
		if node < 0 {
			node = -node
		}
		return aggNodes[node%len(aggNodes)]
	}
	var runs []ownedRun
	for r, segs := range ctx.RankSegs {
		node := homeNode(nodeOf(r))
		for _, s := range segs {
			if s.Len > 0 {
				runs = append(runs, ownedRun{off: s.Off, end: s.End(), node: node})
			}
		}
	}
	if len(runs) == 0 {
		return Even{}.Assign(ctx)
	}

	// Disjoint sweep: the first-starting run owns contested bytes (ties to
	// the lower node), later runs keep only their uncovered suffix.
	sort.Slice(runs, func(i, j int) bool {
		if runs[i].off != runs[j].off {
			return runs[i].off < runs[j].off
		}
		if runs[i].node != runs[j].node {
			return runs[i].node < runs[j].node
		}
		return runs[i].end > runs[j].end
	})
	owned := runs[:0]
	cursor := runs[0].off
	if ctx.Start < cursor {
		cursor = ctx.Start
	}
	for _, r := range runs {
		if r.end <= cursor {
			continue
		}
		// Gap-fill: every byte between the previous owner and this run
		// attaches to this run, keeping the partition gapless.
		r.off = cursor
		if len(owned) > 0 && owned[len(owned)-1].node == r.node {
			owned[len(owned)-1].end = r.end // coalesce same-node neighbors
		} else {
			owned = append(owned, r)
		}
		cursor = r.end
	}
	// Split each node's finite byte set among its aggregator slots by byte
	// count, then hand the unbounded tail (everything past the last owned
	// byte) to the final interval's node so the partition covers [Start, ∞).
	perSlot := make([][]datatype.Seg, ctx.NAggs)
	byNode := map[int][]ownedRun{}
	for _, r := range owned {
		byNode[r.node] = append(byNode[r.node], r)
	}
	for _, node := range aggNodes {
		rs := byNode[node]
		if len(rs) == 0 {
			continue
		}
		slots := aggSlots[node]
		var total int64
		for _, r := range rs {
			total += r.end - r.off
		}
		k := int64(len(slots))
		target := (total + k - 1) / k
		if target <= 0 {
			target = 1
		}
		si, acc := 0, int64(0)
		for _, r := range rs {
			off := r.off
			for off < r.end {
				take := r.end - off
				if si < len(slots)-1 && acc+take > target {
					take = target - acc
				}
				perSlot[slots[si]] = appendSeg(perSlot[slots[si]], off, off+take)
				off += take
				acc += take
				if si < len(slots)-1 && acc >= target {
					si++
					acc = 0
				}
			}
		}
	}
	tail := owned[len(owned)-1]
	tailSlots := aggSlots[tail.node]
	last := tailSlots[len(tailSlots)-1]
	perSlot[last] = appendSeg(perSlot[last], tail.end, farEnd)

	realms := make([]Realm, ctx.NAggs)
	for i, segs := range perSlot {
		if len(segs) == 0 {
			continue // empty realm: aggregator performs no I/O
		}
		t, err := datatype.FromSegs(segs, 0)
		if err != nil {
			return nil, err
		}
		realms[i] = Realm{Disp: 0, Pattern: t, Count: 1}
	}
	return realms, nil
}

// appendSeg appends [off, end) to segs, merging with a touching tail.
func appendSeg(segs []datatype.Seg, off, end int64) []datatype.Seg {
	if n := len(segs); n > 0 && segs[n-1].End() >= off {
		if e := segs[n-1].End(); end > e {
			segs[n-1].Len = end - segs[n-1].Off
		}
		return segs
	}
	return append(segs, datatype.Seg{Off: off, Len: end - off})
}
