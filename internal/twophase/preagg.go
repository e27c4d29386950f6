package twophase

import (
	"fmt"

	"flexio/internal/bufpool"
	"flexio/internal/datatype"
	"flexio/internal/mpi"
	"flexio/internal/mpiio"
	"flexio/internal/stats"
	"flexio/internal/trace"
)

// Node-local pre-aggregation (two-level exchange) for the baseline: each
// node elects a leader — the lowest co-resident rank the journal does not
// list dead — that merges its members' offset/length lists into one sorted
// deduplicated request and packs their payload streams into one merged
// stream, so only the leaders carry round data to the remote aggregators.
// Members hand their access (and, on writes, their packed bytes) to the
// leader over the near-free intra-node links and then walk the rounds with
// an empty access; on reads the leader scatters each member's bytes back
// after the rounds. The baseline keeps its O(P) request exchange — members
// still ship (now empty) request lists to every aggregator — so only the
// data plane changes, staying in character for the ROMIO model.
const (
	tagPre     = 2500 // member → leader: offset/length list encoding
	tagPreData = 2600 // member → leader: packed write payload
	tagScatter = 2700 // leader → member: read payload in member-stream order
)

// preaggState is one rank's pre-aggregation context for a single
// collective call.
type preaggState struct {
	plan mpi.NodePlan
	// err records a member that failed to deliver its access or payload;
	// it seeds the first round-boundary agreement so every rank aborts
	// together instead of the leader writing a partial merge.
	err error
	// items is the leader's merge plan: the byte map between each
	// participant's stream and the merged stream (participant 0 is the
	// leader, k+1 is plan.Members[k]).
	items []datatype.MergeItem
	// totals is the per-participant stream byte count, for scatter sizing.
	totals []int64
	total  int64
}

// preaggExchange runs the intra-node forwarding stage, leaving in cs the
// stream and returning the access this rank takes into the rounds: a member
// hands both to its leader (ownership of a write stream transfers) and
// continues with an empty access; a leader continues with the merged
// segments and merged stream. The stage is traced and charged as the "preagg" phase; it
// runs before the first round, so none of its traffic counts as shuffle —
// and it is intra-node by construction anyway.
func (i *Impl) preaggExchange(f *mpiio.File, mySegs []datatype.Seg, cs *mpiio.Stream,
	dataLen int64, write bool) ([]datatype.Seg, *preaggState) {

	p := f.Proc()
	ps := &preaggState{plan: p.PlanNode(i.exec.Journal.Dead())}
	rank := p.Rank()

	t0 := p.Clock()
	p.Trace.Begin1(t0, stats.PPreagg, trace.S("what", "merge"))
	defer func() {
		p.ChargeTime(stats.PPreagg, p.Clock()-t0)
		p.Trace.End(p.Clock())
	}()

	if !ps.plan.Leads(rank) {
		// Member: forward the access (and write payload) to the leader and
		// walk the rounds with an empty access — no portions, no round data.
		enc := datatype.EncodeSegs(mySegs)
		p.Stats.Add(stats.CReqBytes, int64(len(enc)))
		p.Send(ps.plan.Leader, tagPre, enc)
		if write && dataLen > 0 {
			// Ownership of a pooled buffer passes to the leader, which
			// recycles it.
			p.Send(ps.plan.Leader, tagPreData, cs.Owned())
			*cs = mpiio.Stream{}
		}
		return nil, ps
	}
	if len(ps.plan.Members) == 0 {
		// Single-rank node: pre-aggregation is the identity.
		return mySegs, ps
	}

	// Leader: collect the members' accesses and build the merge plan.
	nparts := len(ps.plan.Members) + 1
	items := datatype.AppendSegRuns(nil, mySegs, 0)
	ps.totals = make([]int64, nparts)
	ps.totals[0] = dataLen
	bufs := make([][]byte, nparts)
	bufs[0] = cs.B
	for k, m := range ps.plan.Members {
		enc, _ := p.Recv(m, tagPre)
		if enc == nil {
			if ps.err == nil {
				ps.err = fmt.Errorf("twophase: preagg: no request from member rank %d", m)
			}
			continue
		}
		segs, err := datatype.DecodeSegs(enc)
		if err != nil {
			if ps.err == nil {
				ps.err = fmt.Errorf("twophase: preagg: bad request from member rank %d: %v", m, err)
			}
			continue
		}
		before := len(items)
		items = datatype.AppendSegRuns(items, segs, k+1)
		var mb int64
		for _, s := range segs {
			mb += s.Len
		}
		ps.totals[k+1] = mb
		if write && mb > 0 {
			data, _ := p.Recv(m, tagPreData)
			if data != nil && int64(len(data)) != mb {
				// The list and the payload disagree (a damaged list that
				// still decoded): the merge must not index past either.
				if ps.err == nil {
					ps.err = fmt.Errorf("twophase: preagg: member rank %d sent %d bytes for a request of %d", m, len(data), mb)
				}
				bufpool.Put(data)
				data = nil
			}
			if data == nil {
				if ps.err == nil {
					ps.err = fmt.Errorf("twophase: preagg: no payload from member rank %d", m)
				}
				// No bytes to back these runs: drop them so the merge
				// below never reads a nil source.
				items = items[:before]
				ps.totals[k+1] = 0
				continue
			}
			bufs[k+1] = data
		}
	}
	var merged []datatype.Seg
	items, merged, ps.total = datatype.BuildMergePlan(items, nil)
	ps.items = items
	f.ChargePairs(int64(len(items)))

	if write {
		// Gather every participant's bytes into the merged stream. A
		// member failure leaves holes; zero them deterministically (the
		// seeded abort keeps the result from becoming durable).
		var out []byte
		if ps.err != nil {
			out = bufpool.GetZero(ps.total)
		} else {
			out = bufpool.Get(ps.total)
		}
		for _, it := range items {
			src := bufs[it.Part]
			if src == nil {
				continue
			}
			copy(out[it.DstPos:it.DstPos+it.Len], src[it.SrcPos:it.SrcPos+it.Len])
		}
		p.AdvanceClock(p.Config().MemcpyTime(ps.total))
		for k, b := range bufs {
			if k > 0 || cs.Pooled {
				bufpool.Put(b) // the members' forwarded payloads and our own stream
			}
		}
		*cs = mpiio.Stream{B: out, Pooled: true}
	} else {
		bufpool.Put(cs.B)
		cs.B = bufpool.GetZero(ps.total)
	}
	return merged, ps
}

// preaggScatter distributes a read's merged stream back to the node's
// members, each payload in that member's own stream order, and restores
// the leader's stream to its own bytes. All ranks agree on the outcome so
// a member that lost its leader aborts the collective uniformly instead of
// unpacking stale zeros.
func (i *Impl) preaggScatter(f *mpiio.File, cs *mpiio.Stream,
	ps *preaggState, dataLen int64) error {

	p := f.Proc()
	t0 := p.Clock()
	p.Trace.Begin1(t0, stats.PPreagg, trace.S("what", "scatter"))
	defer func() {
		p.ChargeTime(stats.PPreagg, p.Clock()-t0)
		p.Trace.End(p.Clock())
	}()

	var scErr error
	rank := p.Rank()
	stream := cs.B // a read's stream: always pooled
	switch {
	case ps.plan.Leads(rank) && len(ps.plan.Members) > 0:
		own := bufpool.Get(dataLen)
		var copied int64
		for _, it := range ps.items {
			if it.Part == 0 {
				copy(own[it.SrcPos:it.SrcPos+it.Len], stream[it.DstPos:it.DstPos+it.Len])
				copied += it.Len
			}
		}
		for k, m := range ps.plan.Members {
			mb := ps.totals[k+1]
			if mb == 0 {
				continue
			}
			out := bufpool.Get(mb)
			for _, it := range ps.items {
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
	case !ps.plan.Leads(rank) && dataLen > 0:
		data, _ := p.Recv(ps.plan.Leader, tagScatter)
		if data == nil {
			scErr = fmt.Errorf("twophase: preagg scatter: no payload from leader rank %d", ps.plan.Leader)
		} else {
			copy(stream, data)
			p.AdvanceClock(p.Config().MemcpyTime(int64(len(data))))
			bufpool.Put(data)
		}
	}
	return mpiio.AgreeError(p, scErr)
}
