package twophase

import (
	"fmt"

	"flexio/internal/bufpool"
	"flexio/internal/core"
	"flexio/internal/datatype"
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
)

// preaggExchange runs the intra-node forwarding stage, leaving in cs the
// stream and returning the access this rank takes into the rounds: a member
// hands both to its leader (ownership of a write stream transfers) and
// continues with an empty access; a leader continues with the merged
// segments and merged stream. The stage is traced and charged as the "preagg" phase; it
// runs before the first round, so none of its traffic counts as shuffle —
// and it is intra-node by construction anyway.
func (i *Impl) preaggExchange(f *mpiio.File, mySegs []datatype.Seg, cs *mpiio.Stream,
	dataLen int64, write bool) ([]datatype.Seg, *core.PreaggState) {

	p := f.Proc()
	ps := &core.PreaggState{Plan: p.PlanNode(i.exec.Journal.Dead())}
	rank := p.Rank()

	t0 := p.Clock()
	p.Trace.Begin1(t0, stats.PPreagg, trace.S("what", "merge"))
	defer func() {
		p.ChargeTime(stats.PPreagg, p.Clock()-t0)
		p.Trace.End(p.Clock())
	}()

	if !ps.Plan.Leads(rank) {
		// Member: forward the access (and write payload) to the leader and
		// walk the rounds with an empty access — no portions, no round data.
		enc := datatype.EncodeSegs(mySegs)
		p.Stats.Add(stats.CReqBytes, int64(len(enc)))
		p.Send(ps.Plan.Leader, tagPre, enc)
		if write && dataLen > 0 {
			// Ownership of a pooled buffer passes to the leader, which
			// recycles it.
			p.Send(ps.Plan.Leader, tagPreData, cs.Owned())
			*cs = mpiio.Stream{}
		}
		return nil, ps
	}
	if len(ps.Plan.Members) == 0 {
		// Single-rank node: pre-aggregation is the identity.
		return mySegs, ps
	}

	// Leader: collect the members' accesses and build the merge plan.
	nparts := len(ps.Plan.Members) + 1
	items := datatype.AppendSegRuns(nil, mySegs, 0)
	ps.Totals = make([]int64, nparts)
	ps.Totals[0] = dataLen
	bufs := make([][]byte, nparts)
	bufs[0] = cs.B
	for k, m := range ps.Plan.Members {
		enc, _ := p.Recv(m, tagPre)
		if enc == nil {
			if ps.Err == nil {
				ps.Err = fmt.Errorf("twophase: preagg: no request from member rank %d", m)
			}
			continue
		}
		segs, err := datatype.DecodeSegs(enc)
		if err != nil {
			if ps.Err == nil {
				ps.Err = fmt.Errorf("twophase: preagg: bad request from member rank %d: %v", m, err)
			}
			continue
		}
		before := len(items)
		items = datatype.AppendSegRuns(items, segs, k+1)
		var mb int64
		for _, s := range segs {
			mb += s.Len
		}
		ps.Totals[k+1] = mb
		if write && mb > 0 {
			data, _ := p.Recv(m, tagPreData)
			if data != nil && int64(len(data)) != mb {
				// The list and the payload disagree (a damaged list that
				// still decoded): the merge must not index past either.
				if ps.Err == nil {
					ps.Err = fmt.Errorf("twophase: preagg: member rank %d sent %d bytes for a request of %d", m, len(data), mb)
				}
				bufpool.Put(data)
				data = nil
			}
			if data == nil {
				if ps.Err == nil {
					ps.Err = fmt.Errorf("twophase: preagg: no payload from member rank %d", m)
				}
				// No bytes to back these runs: drop them so the merge
				// below never reads a nil source.
				items = items[:before]
				ps.Totals[k+1] = 0
				continue
			}
			bufs[k+1] = data
		}
	}
	var merged []datatype.Seg
	items, merged, ps.Total = datatype.BuildMergePlan(items, nil)
	ps.Items = items
	f.ChargePairs(int64(len(items)))

	if write {
		// Gather every participant's bytes into the merged stream. A
		// member failure leaves holes; zero them deterministically (the
		// seeded abort keeps the result from becoming durable).
		var out []byte
		if ps.Err != nil {
			out = bufpool.GetZero(ps.Total)
		} else {
			out = bufpool.Get(ps.Total)
		}
		for _, it := range items {
			src := bufs[it.Part]
			if src == nil {
				continue
			}
			copy(out[it.DstPos:it.DstPos+it.Len], src[it.SrcPos:it.SrcPos+it.Len])
		}
		p.AdvanceClock(p.Config().MemcpyTime(ps.Total))
		for k, b := range bufs {
			if k > 0 || cs.Pooled {
				bufpool.Put(b) // the members' forwarded payloads and our own stream
			}
		}
		*cs = mpiio.Stream{B: out, Pooled: true}
	} else {
		bufpool.Put(cs.B)
		cs.B = bufpool.GetZero(ps.Total)
	}
	return merged, ps
}
