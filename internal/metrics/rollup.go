package metrics

import (
	"bufio"
	"fmt"
	"io"
)

// Rollup is the per-node telemetry rollup tree over a Set: member
// registries fold into one merged registry per node (through the same
// MergeFrom path Merged uses), so exposition and scraping cost O(nodes)
// series instead of O(ranks). It is the exposition shape large worlds need
// (DESIGN §12) — the per-rank registries keep recording lock-free
// at full resolution, the rollup is only a read-side view.
//
// A Rollup is built once (the node map is fixed for a world) and refolded
// on demand: Node/WriteProm fold at call time, so they always reflect the
// registries' current contents.
type Rollup struct {
	set     *Set
	nodes   int
	members [][]int // node id -> member ranks, ascending
}

// NewRollup groups the set's ranks by nodeOf (nil = one rank per node).
// Node ids are compacted to 0..Nodes-1 in order of first appearance by
// rank, which for the usual block placement means node i holds ranks
// [i*perNode, (i+1)*perNode).
func NewRollup(s *Set, nodeOf func(rank int) int) *Rollup {
	ru := &Rollup{set: s}
	if s == nil {
		return ru
	}
	index := map[int]int{}
	for r := 0; r < s.Ranks(); r++ {
		n := r
		if nodeOf != nil {
			n = nodeOf(r)
		}
		id, ok := index[n]
		if !ok {
			id = len(ru.members)
			index[n] = id
			ru.members = append(ru.members, nil)
		}
		ru.members[id] = append(ru.members[id], r)
	}
	ru.nodes = len(ru.members)
	return ru
}

// Nodes returns the number of rollup nodes (zero on nil).
func (ru *Rollup) Nodes() int {
	if ru == nil {
		return 0
	}
	return ru.nodes
}

// Members returns the ranks folded into node (ascending; nil when out of
// range).
func (ru *Rollup) Members(node int) []int {
	if ru == nil || node < 0 || node >= len(ru.members) {
		return nil
	}
	return ru.members[node]
}

// Node folds node's member registries into a fresh merged view (rank -1,
// no flight handle), exactly as a node leader would merge them before
// shipping one registry up the tree.
func (ru *Rollup) Node(node int) *Registry {
	if ru == nil || node < 0 || node >= len(ru.members) {
		return NewRegistry(-1)
	}
	regs := make([]*Registry, len(ru.members[node]))
	for i, r := range ru.members[node] {
		regs[i] = ru.set.Registry(r)
	}
	return Merge(regs...)
}

// WriteProm writes the rollup in Prometheus text exposition format with
// one series per node (label node="n") instead of one per rank: counters
// and gauges carry the per-node fold, histograms merge across all ranks
// (they already did in the per-rank exposition), and the process-wide
// buffer-pool counters ride along unchanged. Output order is fixed, so a
// deterministic run's rollup exposition is byte-deterministic, and its
// size scales with the node count, not the rank count.
func (ru *Rollup) WriteProm(w io.Writer) error {
	if ru == nil || ru.set == nil {
		return nil
	}
	bw := bufio.NewWriter(w)

	folded := make([]*Registry, ru.nodes)
	for n := range folded {
		folded[n] = ru.Node(n)
	}

	// Counters.
	for c := Counter(0); c < numCounters; c++ {
		if counterMeta[c].name == "" {
			continue
		}
		name := promPrefix + counterMeta[c].name + "_total"
		any := false
		for _, reg := range folded {
			if reg.Counter(c) != 0 {
				any = true
				break
			}
		}
		if !any {
			continue
		}
		fmt.Fprintf(bw, "# HELP %s %s\n", name, counterMeta[c].help)
		fmt.Fprintf(bw, "# TYPE %s counter\n", name)
		for n, reg := range folded {
			fmt.Fprintf(bw, "%s{node=\"%d\"} %d\n", name, n, reg.Counter(c))
		}
	}

	// Gauges (per-node max, the same fold Merged applies across ranks).
	for g := Gauge(0); g < numGauges; g++ {
		name := promPrefix + gaugeMeta[g].name
		any := false
		for _, reg := range folded {
			if reg.Gauge(g) != 0 {
				any = true
				break
			}
		}
		if !any {
			continue
		}
		fmt.Fprintf(bw, "# HELP %s %s\n", name, gaugeMeta[g].help)
		fmt.Fprintf(bw, "# TYPE %s gauge\n", name)
		for n, reg := range folded {
			fmt.Fprintf(bw, "%s{node=\"%d\"} %s\n", name, n, formatProm(reg.Gauge(g)))
		}
	}

	writePromHists(bw, ru.set.Merged())
	writePromBufpool(bw)
	return bw.Flush()
}

// NodeOfBlock returns the node index of rank under a block placement of
// perNode consecutive ranks per node (perNode <= 1 means one rank per
// node) — the metrics-side mirror of mpi.BlockNodeMap, kept here so tools
// can build rollups without importing mpi.
func NodeOfBlock(perNode int) func(rank int) int {
	if perNode <= 1 {
		return func(rank int) int { return rank }
	}
	return func(rank int) int { return rank / perNode }
}
