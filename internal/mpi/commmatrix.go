package mpi

import (
	"bufio"
	"cmp"
	"encoding/json"
	"io"
	"slices"

	"flexio/internal/metrics"
)

// CommCell is one (source, destination) cell of the communication matrix.
// Bytes counts every payload byte through the transport on that edge;
// ShuffleBytes counts only the bytes moved inside a two-phase round (the
// data shuffle between clients and aggregators), which is the traffic the
// shuffle_send/recv byte counters account — the comm-matrix property test
// asserts the row/column sums agree exactly.
type CommCell struct {
	Msgs         int64 `json:"msgs"`
	Bytes        int64 `json:"bytes"`
	ShuffleBytes int64 `json:"shuffle_bytes,omitempty"`
}

// peerRow is one rank's traffic per destination it has sent to: cells in
// first-touch order and the index of each destination's cell. Only the
// owning rank writes it, so booking is lock-free. Its storage is allocated
// on first touch and kept across resets (the map keeps its buckets, the
// slice its array), so a rank holds O(peers it sends to) and a
// steady-state call allocates nothing.
type peerRow struct {
	idx   map[int]int
	cells []peerCell
}

type peerCell struct {
	dst int
	CommCell
}

func (r *peerRow) cell(dst int) *CommCell {
	i, ok := r.idx[dst]
	if !ok {
		if r.idx == nil {
			r.idx = make(map[int]int, 8)
		}
		i = len(r.cells)
		r.idx[dst] = i
		r.cells = append(r.cells, peerCell{dst: dst})
	}
	return &r.cells[i].CommCell
}

func (r *peerRow) reset() {
	clear(r.idx)
	r.cells = r.cells[:0]
}

// book records one transfer of n payload bytes from this rank to dst: its
// peer-row cell and, inside a two-phase round, the inter/intra-node
// shuffle split. It returns how many transfers to dst came before this
// one, the sequence number that makes the transfer's edge id.
func (p *Proc) book(dst int, n int64) (seq int64) {
	c := p.peers.cell(dst)
	seq = c.Msgs
	c.Msgs++
	c.Bytes += n
	if p.round >= 0 {
		c.ShuffleBytes += n
		if p.w.node(p.rank) == p.w.node(dst) {
			p.Metrics.Add(metrics.CShuffleIntraNodeBytes, n)
		} else {
			p.Metrics.Add(metrics.CShuffleInterNodeBytes, n)
		}
	}
	return seq
}

// CommMatrix is a read-only rank×rank view of the payload traffic the
// ranks' peer rows hold: point-to-point sends and the non-empty
// per-destination rows of vector collectives (alltoallv/w, allgather).
// Scalar rendezvous payloads (barrier, int64 allreduce/allgather) move no
// user data and are not recorded. Read it only between World.Run calls.
type CommMatrix struct{ w *World }

// Size returns the world size.
func (m *CommMatrix) Size() int { return m.w.size }

// Cell returns the (src, dst) cell by value (zero when src never sent to
// dst).
func (m *CommMatrix) Cell(src, dst int) CommCell {
	r := &m.w.procs[src].peers
	if i, ok := r.idx[dst]; ok {
		return r.cells[i].CommCell
	}
	return CommCell{}
}

// each visits every touched cell, senders in rank order and each sender's
// destinations in first-touch order.
func (m *CommMatrix) each(visit func(src, dst int, c CommCell)) {
	for s, p := range m.w.procs {
		for _, c := range p.peers.cells {
			visit(s, c.dst, c.CommCell)
		}
	}
}

// ShuffleRowBytes sums the two-phase shuffle bytes rank src sent.
func (m *CommMatrix) ShuffleRowBytes(src int) int64 {
	var n int64
	for _, c := range m.w.procs[src].peers.cells {
		n += c.ShuffleBytes
	}
	return n
}

// ShuffleColBytes sums the two-phase shuffle bytes rank dst received.
func (m *CommMatrix) ShuffleColBytes(dst int) int64 {
	var n int64
	for s := range m.w.procs {
		n += m.Cell(s, dst).ShuffleBytes
	}
	return n
}

// TotalBytes sums all payload bytes through the transport.
func (m *CommMatrix) TotalBytes() int64 {
	var n int64
	m.each(func(_, _ int, c CommCell) { n += c.Bytes })
	return n
}

// TotalMsgs sums all recorded transfers.
func (m *CommMatrix) TotalMsgs() int64 {
	var n int64
	m.each(func(_, _ int, c CommCell) { n += c.Msgs })
	return n
}

// NodeSplit classifies the shuffle bytes with a node map (nodeOf(rank) ->
// node id; nil means one rank per node): inter-node bytes crossed a node
// boundary, intra-node bytes stayed on one node. This is the
// shuffle_internode_bytes metric of DESIGN §11, computable post hoc under
// any placement.
func (m *CommMatrix) NodeSplit(nodeOf func(rank int) int) (inter, intra int64) {
	node := func(r int) int {
		if nodeOf == nil {
			return r
		}
		return nodeOf(r)
	}
	m.each(func(s, d int, c CommCell) {
		if node(s) == node(d) {
			intra += c.ShuffleBytes
		} else {
			inter += c.ShuffleBytes
		}
	})
	return inter, intra
}

// CommEntry is one touched cell with its coordinates, the element type of
// the JSON form.
type CommEntry struct {
	Src          int   `json:"src"`
	Dst          int   `json:"dst"`
	Msgs         int64 `json:"msgs"`
	Bytes        int64 `json:"bytes"`
	ShuffleBytes int64 `json:"shuffle_bytes,omitempty"`
}

// commMatrixSchema identifies the JSON layout for downstream consumers.
const commMatrixSchema = "flexio-commmatrix-v2"

// commMatrixJSON is the serialized form of a matrix: its touched cells
// sorted by (src, dst), and the shuffle node split.
type commMatrixJSON struct {
	Schema         string      `json:"schema"`
	Ranks          int         `json:"ranks"`
	Entries        []CommEntry `json:"entries"`
	InterNodeBytes int64       `json:"shuffle_internode_bytes"`
	IntraNodeBytes int64       `json:"shuffle_intranode_bytes"`
}

// WriteJSON writes the matrix (with its node split under nodeOf; nil = one
// rank per node) as indented JSON. Entries are sorted by (src, dst), so
// the output is byte-deterministic for a deterministic run whatever order
// the senders first touched their peers in.
func (m *CommMatrix) WriteJSON(w io.Writer, nodeOf func(rank int) int) error {
	doc := commMatrixJSON{Schema: commMatrixSchema, Ranks: m.Size(), Entries: []CommEntry{}}
	m.each(func(s, d int, c CommCell) {
		doc.Entries = append(doc.Entries, CommEntry{Src: s, Dst: d, Msgs: c.Msgs, Bytes: c.Bytes, ShuffleBytes: c.ShuffleBytes})
	})
	slices.SortFunc(doc.Entries, func(a, b CommEntry) int {
		return cmp.Or(cmp.Compare(a.Src, b.Src), cmp.Compare(a.Dst, b.Dst))
	})
	doc.InterNodeBytes, doc.IntraNodeBytes = m.NodeSplit(nodeOf)
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&doc); err != nil {
		return err
	}
	return bw.Flush()
}

// BlockNodeMap returns a node-mapping function that packs perNode
// consecutive ranks onto each simulated node (perNode <= 1 means one rank
// per node), the usual MPI block placement.
func BlockNodeMap(perNode int) func(rank int) int {
	if perNode <= 1 {
		return func(rank int) int { return rank }
	}
	return func(rank int) int { return rank / perNode }
}
