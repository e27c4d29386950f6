package mpi

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
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

// CommDenseLimit is the rank count above which CommMatrix switches from the
// dense rank×rank array to the sparse per-row representation: at 512 ranks
// the dense array is already 6 MB of mostly-zero cells, and collective
// traffic touches O(ranks × aggregators) edges, not O(ranks²). Exported (as
// a variable) so scale tests can force either representation.
var CommDenseLimit = 512

// commRow is one sender's sparse row: cells in first-touch order plus a
// destination index. The row is owned by the sending rank's goroutine,
// exactly like a dense row, so recording stays lock-free; lookups that
// need deterministic order (WriteJSON, Format) sort on read.
type commRow struct {
	idx   map[int]int
	cells []CommCell
	dsts  []int // parallel to cells: the destination of each
}

func (r *commRow) cell(dst int) *CommCell {
	if r.idx == nil {
		r.idx = make(map[int]int, 8)
	}
	i, ok := r.idx[dst]
	if !ok {
		i = len(r.cells)
		r.idx[dst] = i
		r.cells = append(r.cells, CommCell{})
		r.dsts = append(r.dsts, dst)
	}
	return &r.cells[i]
}

// CommMatrix accumulates a rank×rank accounting of payload traffic:
// point-to-point sends and the per-destination rows of vector collectives
// (alltoallv/w, allgather, bcast). Scalar rendezvous payloads (barrier,
// int64 allreduce/allgather bounds exchanges) move no user data and are
// not recorded.
//
// Each cell (src, dst) is written only by the sending rank's goroutine —
// row src is owned by rank src — so recording is lock-free on both
// representations. Below CommDenseLimit ranks the matrix is a dense
// row-major array (preallocated, allocation-free on the steady-state
// datapath); above it each row stores only its touched cells, holding
// memory to O(nonzero edges) at large P. Read it only after World.Run
// returns.
type CommMatrix struct {
	size  int
	cells []CommCell // dense row-major [src*size+dst]; nil in sparse mode
	rows  []commRow  // sparse per-sender rows; nil in dense mode
}

func newCommMatrix(size int) *CommMatrix {
	if size > CommDenseLimit {
		return &CommMatrix{size: size, rows: make([]commRow, size)}
	}
	return &CommMatrix{size: size, cells: make([]CommCell, size*size)}
}

// add records one transfer of n payload bytes; shuffle says whether it
// happened inside a two-phase round.
func (m *CommMatrix) add(src, dst int, n int64, shuffle bool) {
	var c *CommCell
	if m.cells != nil {
		c = &m.cells[src*m.size+dst]
	} else {
		c = m.rows[src].cell(dst)
	}
	c.Msgs++
	c.Bytes += n
	if shuffle {
		c.ShuffleBytes += n
	}
}

// Size returns the world size the matrix was built for.
func (m *CommMatrix) Size() int {
	if m == nil {
		return 0
	}
	return m.size
}

// Sparse reports whether the matrix uses the sparse per-row representation.
func (m *CommMatrix) Sparse() bool {
	return m != nil && m.cells == nil
}

// NonzeroCells counts the touched (src, dst) cells — in sparse mode this
// is the stored cell count, the quantity that bounds the matrix's memory.
func (m *CommMatrix) NonzeroCells() int {
	if m == nil {
		return 0
	}
	n := 0
	if m.cells != nil {
		for i := range m.cells {
			if m.cells[i].Msgs != 0 {
				n++
			}
		}
		return n
	}
	for s := range m.rows {
		n += len(m.rows[s].cells)
	}
	return n
}

// Cell returns the (src, dst) cell by value (zero for an untouched sparse
// cell).
func (m *CommMatrix) Cell(src, dst int) CommCell {
	if m.cells != nil {
		return m.cells[src*m.size+dst]
	}
	r := &m.rows[src]
	if i, ok := r.idx[dst]; ok {
		return r.cells[i]
	}
	return CommCell{}
}

// eachCell visits every nonzero cell (dense mode also skips untouched
// cells, so both representations visit the same set); order is unspecified.
func (m *CommMatrix) eachCell(visit func(src, dst int, c CommCell)) {
	if m == nil {
		return
	}
	if m.cells != nil {
		for s := 0; s < m.size; s++ {
			for d := 0; d < m.size; d++ {
				if c := m.cells[s*m.size+d]; c.Msgs != 0 {
					visit(s, d, c)
				}
			}
		}
		return
	}
	for s := range m.rows {
		r := &m.rows[s]
		for i, c := range r.cells {
			visit(s, r.dsts[i], c)
		}
	}
}

// RowBytes sums the payload bytes rank src sent (to every destination,
// including itself).
func (m *CommMatrix) RowBytes(src int) int64 {
	var n int64
	if m.cells != nil {
		for d := 0; d < m.size; d++ {
			n += m.cells[src*m.size+d].Bytes
		}
		return n
	}
	for _, c := range m.rows[src].cells {
		n += c.Bytes
	}
	return n
}

// ColBytes sums the payload bytes rank dst received.
func (m *CommMatrix) ColBytes(dst int) int64 {
	var n int64
	if m.cells != nil {
		for s := 0; s < m.size; s++ {
			n += m.cells[s*m.size+dst].Bytes
		}
		return n
	}
	for s := range m.rows {
		r := &m.rows[s]
		if i, ok := r.idx[dst]; ok {
			n += r.cells[i].Bytes
		}
	}
	return n
}

// ShuffleRowBytes sums the two-phase shuffle bytes rank src sent.
func (m *CommMatrix) ShuffleRowBytes(src int) int64 {
	var n int64
	if m.cells != nil {
		for d := 0; d < m.size; d++ {
			n += m.cells[src*m.size+d].ShuffleBytes
		}
		return n
	}
	for _, c := range m.rows[src].cells {
		n += c.ShuffleBytes
	}
	return n
}

// ShuffleColBytes sums the two-phase shuffle bytes rank dst received.
func (m *CommMatrix) ShuffleColBytes(dst int) int64 {
	var n int64
	if m.cells != nil {
		for s := 0; s < m.size; s++ {
			n += m.cells[s*m.size+dst].ShuffleBytes
		}
		return n
	}
	for s := range m.rows {
		r := &m.rows[s]
		if i, ok := r.idx[dst]; ok {
			n += r.cells[i].ShuffleBytes
		}
	}
	return n
}

// TotalBytes sums all payload bytes through the transport.
func (m *CommMatrix) TotalBytes() int64 {
	var n int64
	m.eachCell(func(_, _ int, c CommCell) { n += c.Bytes })
	return n
}

// TotalMsgs sums all recorded transfers.
func (m *CommMatrix) TotalMsgs() int64 {
	var n int64
	m.eachCell(func(_, _ int, c CommCell) { n += c.Msgs })
	return n
}

// NodeSplit classifies the shuffle bytes with a node map (nodeOf(rank) ->
// node id; nil means one rank per node): inter-node bytes crossed a node
// boundary, intra-node bytes stayed on one node. This is the
// shuffle_internode_bytes metric of DESIGN §11, computable post hoc under
// any placement.
func (m *CommMatrix) NodeSplit(nodeOf func(rank int) int) (inter, intra int64) {
	if m == nil {
		return 0, 0
	}
	node := func(r int) int {
		if nodeOf == nil {
			return r
		}
		return nodeOf(r)
	}
	m.eachCell(func(s, d int, c CommCell) {
		if c.ShuffleBytes == 0 {
			return
		}
		if node(s) == node(d) {
			intra += c.ShuffleBytes
		} else {
			inter += c.ShuffleBytes
		}
	})
	return inter, intra
}

// reset zeroes every cell in place (sparse rows drop their cells but keep
// their maps' storage for reuse).
func (m *CommMatrix) reset() {
	if m == nil {
		return
	}
	if m.cells != nil {
		for i := range m.cells {
			m.cells[i] = CommCell{}
		}
		return
	}
	for s := range m.rows {
		r := &m.rows[s]
		for d := range r.idx {
			delete(r.idx, d)
		}
		r.cells = r.cells[:0]
		r.dsts = r.dsts[:0]
	}
}

// Format renders the matrix as deterministic text. Dense matrices print
// the full bytes grid with row/column totals; sparse matrices print the
// nonzero cells sorted by (src, dst) — a grid at sparse rank counts would
// be overwhelmingly zeros. Both end with the shuffle node split under the
// given node map (nil = one rank per node).
func (m *CommMatrix) Format(nodeOf func(rank int) int) string {
	if m == nil {
		return "comm matrix: disabled"
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "== comm matrix: %d rank(s), %d msg(s), %d byte(s) ==\n", m.size, m.TotalMsgs(), m.TotalBytes())
	if m.cells != nil {
		sb.WriteString("bytes (row = sender, col = receiver):\n")
		sb.WriteString("       ")
		for d := 0; d < m.size; d++ {
			fmt.Fprintf(&sb, " %10s", fmt.Sprintf("r%d", d))
		}
		sb.WriteString("        row\n")
		for s := 0; s < m.size; s++ {
			fmt.Fprintf(&sb, "  r%-4d", s)
			for d := 0; d < m.size; d++ {
				fmt.Fprintf(&sb, " %10d", m.cells[s*m.size+d].Bytes)
			}
			fmt.Fprintf(&sb, " %10d\n", m.RowBytes(s))
		}
		sb.WriteString("  col  ")
		for d := 0; d < m.size; d++ {
			fmt.Fprintf(&sb, " %10d", m.ColBytes(d))
		}
		sb.WriteByte('\n')
	} else {
		entries := m.sortedEntries()
		fmt.Fprintf(&sb, "sparse: %d nonzero cell(s) (src, dst, msgs, bytes, shuffle):\n", len(entries))
		for _, e := range entries {
			fmt.Fprintf(&sb, "  r%-5d -> r%-5d %8d %12d %12d\n", e.Src, e.Dst, e.Msgs, e.Bytes, e.ShuffleBytes)
		}
	}
	inter, intra := m.NodeSplit(nodeOf)
	fmt.Fprintf(&sb, "shuffle bytes: internode %d, intranode %d\n", inter, intra)
	return strings.TrimRight(sb.String(), "\n")
}

// CommEntry is one nonzero cell with its coordinates — the element type of
// the sparse JSON form.
type CommEntry struct {
	Src          int   `json:"src"`
	Dst          int   `json:"dst"`
	Msgs         int64 `json:"msgs"`
	Bytes        int64 `json:"bytes"`
	ShuffleBytes int64 `json:"shuffle_bytes,omitempty"`
}

// sortedEntries returns the nonzero cells sorted by (src, dst) — the
// deterministic order exports use regardless of touch order.
func (m *CommMatrix) sortedEntries() []CommEntry {
	out := make([]CommEntry, 0, m.NonzeroCells())
	m.eachCell(func(s, d int, c CommCell) {
		out = append(out, CommEntry{Src: s, Dst: d, Msgs: c.Msgs, Bytes: c.Bytes, ShuffleBytes: c.ShuffleBytes})
	})
	sort.Slice(out, func(i, j int) bool {
		if out[i].Src != out[j].Src {
			return out[i].Src < out[j].Src
		}
		return out[i].Dst < out[j].Dst
	})
	return out
}

// commMatrixJSON is the serialized form of a matrix: dense matrices carry
// the full row-major cell array under the v1 schema (unchanged for
// existing consumers), sparse matrices carry the sorted nonzero entries
// under the v2 schema.
type commMatrixJSON struct {
	Schema         string      `json:"schema"`
	Ranks          int         `json:"ranks"`
	Cells          []CommCell  `json:"cells,omitempty"` // row-major src*ranks+dst (v1)
	Entries        []CommEntry `json:"entries,omitempty"`
	InterNodeBytes int64       `json:"shuffle_internode_bytes"`
	IntraNodeBytes int64       `json:"shuffle_intranode_bytes"`
}

// CommMatrixSchema identifies the dense JSON layout for downstream
// consumers.
const CommMatrixSchema = "flexio-commmatrix-v1"

// CommMatrixSparseSchema identifies the sparse (entry-list) JSON layout.
const CommMatrixSparseSchema = "flexio-commmatrix-v2"

// WriteJSON writes the matrix (with its node split under nodeOf; nil = one
// rank per node) as indented JSON. Output is byte-deterministic for a
// deterministic run in both representations: the dense cell array is
// positional and the sparse entry list is sorted by (src, dst).
func (m *CommMatrix) WriteJSON(w io.Writer, nodeOf func(rank int) int) error {
	inter, intra := m.NodeSplit(nodeOf)
	doc := commMatrixJSON{
		Ranks:          m.Size(),
		InterNodeBytes: inter,
		IntraNodeBytes: intra,
	}
	if m.cells != nil {
		doc.Schema = CommMatrixSchema
		doc.Cells = m.cells
	} else {
		doc.Schema = CommMatrixSparseSchema
		doc.Entries = m.sortedEntries()
		if doc.Entries == nil {
			doc.Entries = []CommEntry{}
		}
	}
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
