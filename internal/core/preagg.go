package core

import (
	"fmt"

	"flexio/internal/bufpool"
	"flexio/internal/datatype"
	"flexio/internal/metrics"
	"flexio/internal/mpi"
	"flexio/internal/mpiio"
	"flexio/internal/trace"
)

// Node-local pre-aggregation (two-level exchange), the one stage both
// planners put in front of the executor: each node elects a leader — the
// lowest co-resident rank the journal does not list dead — that merges its
// members' accesses into one offset-sorted request and packs their payload
// streams into one merged stream, so only P/node-size leaders carry round
// data to the remote aggregators instead of all P ranks. Members hand their
// request (and, on writes, their packed bytes) to the leader over the
// near-free intra-node links and then sit out the rounds with an empty
// access; on reads the leader scatters each member's bytes back after the
// rounds. The merged stream is the deduplicated union of the node's accesses
// in file-offset order, so the realm intersection produces the same per-round
// byte sets the members would have produced individually — output stays
// byte-identical. What a request looks like on the wire is the request
// form's business (a flattened filetype, or ROMIO's offset/length pairs):
// the caller passes its encoding, and the form decodes it on the leader.
const (
	tagPre     = 6000 // member → leader: the member's request encoding
	tagPreData = 6500 // member → leader: packed write payload
	tagScatter = 7000 // leader → member: read payload in member-stream order
)

// preaggState is one rank's pre-aggregation context, in its rank scratch:
// what the current call decided, and the stage's working memory, so a steady
// caller allocates nothing for it.
type preaggState struct {
	Plan mpi.NodePlan
	// pre is the clientKey discriminator (see memo.go).
	pre uint64
	// Err records a member that failed to deliver a usable request or
	// payload; it seeds the first round-boundary agreement so every rank
	// aborts together instead of the leader writing a partial merge.
	Err error
	// Items is the leader's merge plan: the byte map between each
	// participant's stream and the merged stream (participant 0 is the
	// leader, k+1 is Plan.Members[k]).
	Items []datatype.MergeItem
	// Totals is the per-participant stream byte count, for scatter sizing.
	Totals []int64
	Total  int64

	bufs   [][]byte       // the participants' write payloads while they are gathered
	merged []datatype.Seg // the node's merged access
}

// fail keeps the first thing a member got wrong.
func (ps *preaggState) fail(format string, args ...any) {
	if ps.Err == nil {
		ps.Err = fmt.Errorf("core: preagg: "+format, args...)
	}
}

// exchange runs the intra-node forwarding stage and leaves in cs the stream
// this rank takes into the rounds. A member hands enc, its whole access in
// form fm, and its write stream's bytes, as Owned returns them, to the leader
// (ownership of that pooled buffer transfers) and continues with no access:
// (nil, true). A read member pools its stream and continues with none;
// scatter hands it its leader's payload as its stream. A leader continues
// with the merged stream and the merged access it returns. A rank alone on its node keeps what it has:
// (nil, false). bounds is what AccessRegion gathered before this stage, every
// rank's own word on where its access starts and ends: a member's request
// that says otherwise is damaged, not an access. The stage is traced and charged as the
// "preagg" phase; it runs before the first round, so none of its traffic
// counts as shuffle — and it is intra-node by construction anyway.
func (ps *preaggState) exchange(f *mpiio.File, fm requestForm, dead []int, cs *mpiio.Stream, enc []byte,
	dataLen int64, bounds []int64, write bool) ([]datatype.Seg, bool) {

	p := f.Proc()
	ps.Plan, ps.pre, ps.Err, ps.Items, ps.Total = p.PlanNode(dead), 0, nil, ps.Items[:0], 0
	defer p.End(p.Begin1(metrics.PPreagg, trace.S("what", "merge")))

	if !ps.Plan.Leads(p.Rank()) {
		ps.pre = 1
		p.Metrics.Add(metrics.CReqBytes, int64(len(enc)))
		p.Send(ps.Plan.Leader, tagPre, enc)
		switch {
		case write && dataLen > 0:
			// Ownership of a pooled buffer passes to the leader, which
			// recycles it.
			p.Send(ps.Plan.Leader, tagPreData, cs.Owned())
			*cs = mpiio.Stream{}
		case !write:
			// The leader's scatter payload becomes the stream.
			bufpool.Put(cs.B)
			cs.B = nil
		}
		return nil, true
	}
	if len(ps.Plan.Members) == 0 {
		// Single-rank node: pre-aggregation is the identity, including for
		// the memo (pre stays 0 — the piece lists match the plain path).
		return nil, false
	}

	// Leader: collect the members' requests and build the merge plan.
	nparts := len(ps.Plan.Members) + 1
	items, err := fm.runs(ps.Items, enc, 0)
	if err != nil {
		panic(fmt.Sprintf("core: preagg: own request: %v", err)) // this rank encoded it
	}
	ps.Totals, ps.bufs = sized(ps.Totals, nparts), sized(ps.bufs, nparts)
	ps.Totals[0] = dataLen
	if write {
		// The leader's own bytes, like a member's, are reached through
		// Owned: a lent stream has no B to read.
		ps.bufs[0] = cs.Owned()
	}
	h := hashSeed
	for k, m := range ps.Plan.Members {
		req, _ := p.Recv(m, tagPre)
		h = hashInt64(h, int64(m))
		h = hashBytes(h, req)
		if req == nil {
			ps.fail("no request from member rank %d", m)
			continue
		}
		before := len(items)
		items, err = fm.runs(items, req, k+1)
		// What the member told every rank: an empty access has st > en, and
		// only a member with bytes sends (or waits for) a payload.
		st, en := bounds[m], bounds[p.Size()+m]
		var mb int64
		for _, it := range items[before:] {
			if err == nil && (it.Off < st || it.End() > en) {
				err = fmt.Errorf("run [%d,%d) outside the access [%d,%d) the rank announced", it.Off, it.End(), st, en)
			}
			mb += it.Len
		}
		if err == nil && mb == 0 && st < en {
			err = fmt.Errorf("no run of the access [%d,%d) the rank announced", st, en)
		}
		if err != nil {
			// A payload that follows stays undelivered; the abort drops it.
			ps.fail("bad request from member rank %d: %v", m, err)
			items = items[:before]
			continue
		}
		if write && mb > 0 {
			data, _ := p.Recv(m, tagPreData)
			if data == nil || int64(len(data)) != mb {
				// No bytes, or not the bytes the list asks for (a damaged list
				// that still decoded), back these runs: drop them so the merge
				// below neither reads a nil source nor indexes past one.
				if data == nil {
					ps.fail("no payload from member rank %d", m)
				} else {
					ps.fail("bad request from member rank %d: %d bytes sent for a request of %d", m, len(data), mb)
					bufpool.Put(data)
				}
				items = items[:before]
				continue
			}
			ps.bufs[k+1] = data
		}
		ps.Totals[k+1] = mb
	}
	ps.Items, ps.merged, ps.Total = datatype.BuildMergePlan(items, ps.merged[:0])
	f.ChargePairs(int64(len(ps.Items)))
	ps.pre = hashInt64(h, ps.Total)

	if write {
		// Gather every participant's bytes into the merged stream. A member
		// failure leaves holes; zero them deterministically (the seeded abort
		// keeps the result from becoming durable).
		var out []byte
		if ps.Err != nil {
			out = bufpool.GetZero(ps.Total)
		} else {
			out = bufpool.Get(ps.Total)
		}
		for _, it := range ps.Items {
			if src := ps.bufs[it.Part]; src != nil {
				copy(out[it.DstPos:it.DstPos+it.Len], src[it.SrcPos:it.SrcPos+it.Len])
			}
		}
		p.AdvanceClock(p.Config().MemcpyTime(ps.Total))
		for k, b := range ps.bufs {
			bufpool.Put(b) // the members' forwarded payloads and our own bytes
			ps.bufs[k] = nil
		}
		*cs = mpiio.Stream{B: out, Pooled: true}
	} else {
		// The rounds place every byte of the merged stream.
		bufpool.Put(cs.B)
		cs.B = bufpool.Get(ps.Total)
	}
	return ps.merged, true
}

// scatter distributes a read's merged stream back to the node's members,
// each payload in that member's own stream order, and restores the leader's
// stream to its own bytes. All ranks agree on the outcome so a member that
// lost its leader, or got a payload that is not its stream's length (the
// leader merged a damaged request), aborts the collective uniformly instead
// of unpacking stale zeros or misplaced bytes. It follows rounds that every
// rank completed: an aborted call skips the stage as one.
func (ps *preaggState) scatter(f *mpiio.File, cs *mpiio.Stream, dataLen int64) error {
	p := f.Proc()
	defer p.End(p.Begin1(metrics.PPreagg, trace.S("what", "scatter")))

	var scErr error
	rank := p.Rank()
	switch {
	case ps.Plan.Leads(rank) && len(ps.Plan.Members) > 0:
		stream := cs.B // a read's stream: always pooled
		own := bufpool.Get(dataLen)
		var copied int64
		for _, it := range ps.Items {
			if it.Part == 0 {
				copy(own[it.SrcPos:it.SrcPos+it.Len], stream[it.DstPos:it.DstPos+it.Len])
				copied += it.Len
			}
		}
		for k, m := range ps.Plan.Members {
			mb := ps.Totals[k+1]
			if mb == 0 {
				continue
			}
			out := bufpool.Get(mb)
			for _, it := range ps.Items {
				if it.Part == k+1 {
					copy(out[it.SrcPos:it.SrcPos+it.Len], stream[it.DstPos:it.DstPos+it.Len])
				}
			}
			copied += mb
			// Ownership of the pooled payload passes to the member.
			p.Send(m, tagScatter, out)
		}
		p.AdvanceClock(p.Config().MemcpyTime(copied))
		bufpool.Put(stream)
		cs.B = own
	case !ps.Plan.Leads(rank) && dataLen > 0:
		data, _ := p.Recv(ps.Plan.Leader, tagScatter)
		switch {
		case data == nil:
			scErr = fmt.Errorf("core: preagg scatter: no payload from leader rank %d", ps.Plan.Leader)
		case int64(len(data)) != dataLen:
			scErr = fmt.Errorf("core: preagg scatter: %d bytes from leader rank %d for a stream of %d", len(data), ps.Plan.Leader, dataLen)
			bufpool.Put(data)
		default:
			// The payload is the member's stream, adopted rather than
			// copied; the model still charges the copy.
			cs.B = data
			p.AdvanceClock(p.Config().MemcpyTime(int64(len(data))))
		}
	}
	return mpiio.AgreeError(p, scErr)
}
