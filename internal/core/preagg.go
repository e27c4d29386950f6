package core

import (
	"fmt"

	"flexio/internal/bufpool"
	"flexio/internal/datatype"
	"flexio/internal/mpi"
	"flexio/internal/mpiio"
	"flexio/internal/stats"
	"flexio/internal/trace"
)

// Node-local pre-aggregation (two-level exchange): each node elects a
// leader — the lowest co-resident rank the journal does not list dead —
// that merges its members' flattened accesses into one offset-sorted
// request and packs their payload streams into one merged stream, so only
// P/node-size leaders talk to the remote aggregators instead of all P
// ranks. Members hand their access (and, on writes, their packed bytes) to
// the leader over the near-free intra-node links and then sit out the
// request and data exchanges with an empty access; on reads the leader
// scatters each member's bytes back after the rounds. The merged stream is
// the deduplicated union of the node's accesses in file-offset order, so
// the realm intersection produces the same per-round byte sets the members
// would have produced individually — output stays byte-identical.
const (
	tagPre     = 6000 // member → leader: flattened access encoding
	tagPreData = 6500 // member → leader: packed write payload
	tagScatter = 7000 // leader → member: read payload in member-stream order
)

// PreaggState is one rank's per-call pre-aggregation context, for both
// planners; core's lives in the rank scratch and allocates nothing when steady.
type PreaggState struct {
	Plan mpi.NodePlan
	// pre is the clientKey discriminator (see memo.go).
	pre uint64
	// Err records a member that failed to deliver its access or payload;
	// it seeds the first round-boundary agreement so every rank aborts
	// together instead of the leader writing a partial merge.
	Err error
	// Items is the leader's merge plan: the byte map between each
	// participant's stream and the merged stream (participant 0 is the
	// leader, k+1 is Plan.Members[k]).
	Items []datatype.MergeItem
	// Totals is the per-participant stream byte count, for scatter sizing.
	Totals []int64
	Total  int64
}

// preaggExchange runs the intra-node forwarding stage, leaving in cs the
// stream and returning the access this rank takes into the request
// exchange: a member hands both to its leader (ownership of a write stream
// transfers) and continues with an empty access; a leader continues with
// the merged stream and merged flat. The whole stage is traced and charged as the "preagg"
// phase; it runs before the first round, so none of its traffic counts as
// shuffle — and it is intra-node by construction anyway.
func (i *Impl) preaggExchange(f *mpiio.File, scr *rankScratch, cs *mpiio.Stream,
	myFlat datatype.Flat, dataLen int64, write bool) (datatype.Flat, *PreaggState) {

	p := f.Proc()
	ps := &scr.pre
	*ps = PreaggState{Items: ps.Items[:0], Totals: ps.Totals[:0]}
	ps.Plan = p.PlanNode(i.o.Journal.Dead())
	rank := p.Rank()

	t0 := p.Clock()
	p.Trace.Begin1(t0, stats.PPreagg, trace.S("what", "merge"))
	defer func() {
		p.ChargeTime(stats.PPreagg, p.Clock()-t0)
		p.Trace.End(p.Clock())
	}()

	if !ps.Plan.Leads(rank) {
		// Member: forward the access (and write payload) to the leader and
		// fall silent — an empty access produces no pieces, so this rank
		// sends nothing to any aggregator in the rounds.
		ps.pre = 1
		enc := myFlat.Encode()
		p.Stats.Add(stats.CReqBytes, int64(len(enc)))
		p.Send(ps.Plan.Leader, tagPre, enc)
		if write && dataLen > 0 {
			// Ownership of a pooled buffer passes to the leader, which
			// recycles it.
			p.Send(ps.Plan.Leader, tagPreData, cs.Owned())
			*cs = mpiio.Stream{}
		}
		empty := datatype.FlatOf(datatype.Bytes(0), myFlat.Disp, 0)
		empty.Limit = 0
		return empty, ps
	}
	if len(ps.Plan.Members) == 0 {
		// Single-rank node: pre-aggregation is the identity, including for
		// the memo (pre stays 0 — the piece lists match the plain path).
		return myFlat, ps
	}

	// Leader: collect the members' accesses and build the merge plan.
	nparts := len(ps.Plan.Members) + 1
	items := datatype.AppendFlatRuns(ps.Items[:0], myFlat, 0)
	ps.Totals = Sized(ps.Totals, nparts)
	ps.Totals[0] = dataLen
	bufs := Sized(scr.preBufs, nparts)
	scr.preBufs = bufs
	bufs[0] = cs.B
	h := HashSeed
	for k, m := range ps.Plan.Members {
		enc, _ := p.Recv(m, tagPre)
		h = HashInt64(h, int64(m))
		h = HashBytes(h, enc)
		if enc == nil {
			if ps.Err == nil {
				ps.Err = fmt.Errorf("core: preagg: no request from member rank %d", m)
			}
			continue
		}
		fl, err := datatype.DecodeFlat(enc)
		if err != nil {
			if ps.Err == nil {
				ps.Err = fmt.Errorf("core: preagg: bad request from member rank %d: %v", m, err)
			}
			continue
		}
		before := len(items)
		items = datatype.AppendFlatRuns(items, fl, k+1)
		var mb int64
		for _, it := range items[before:] {
			mb += it.Len
		}
		ps.Totals[k+1] = mb
		if write && mb > 0 {
			data, _ := p.Recv(m, tagPreData)
			if data != nil && int64(len(data)) != mb {
				// The list and the payload disagree (a damaged list that
				// still decoded): the merge must not index past either.
				if ps.Err == nil {
					ps.Err = fmt.Errorf("core: preagg: member rank %d sent %d bytes for a request of %d", m, len(data), mb)
				}
				bufpool.Put(data)
				data = nil
			}
			if data == nil {
				if ps.Err == nil {
					ps.Err = fmt.Errorf("core: preagg: no payload from member rank %d", m)
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
	items, merged, total := datatype.BuildMergePlan(items, scr.mergedSegs[:0])
	scr.mergedSegs = merged
	ps.Items, ps.Total = items, total
	f.ChargePairs(int64(len(items)))
	ps.pre = HashInt64(h, total)

	if write {
		// Gather every participant's bytes into the merged stream. A
		// member failure leaves holes; zero them deterministically (the
		// seeded abort below keeps the result from becoming durable).
		var out []byte
		if ps.Err != nil {
			out = bufpool.GetZero(total)
		} else {
			out = bufpool.Get(total)
		}
		for _, it := range items {
			src := bufs[it.Part]
			if src == nil {
				continue
			}
			copy(out[it.DstPos:it.DstPos+it.Len], src[it.SrcPos:it.SrcPos+it.Len])
		}
		p.AdvanceClock(p.Config().MemcpyTime(total))
		for k, b := range bufs {
			if k > 0 || cs.Pooled {
				bufpool.Put(b) // the members' forwarded payloads and our own stream
			}
			bufs[k] = nil
		}
		*cs = mpiio.Stream{B: out, Pooled: true}
	} else {
		bufpool.Put(cs.B)
		bufs[0] = nil
		cs.B = bufpool.GetZero(total)
	}

	var extent int64
	if len(merged) > 0 {
		extent = merged[len(merged)-1].End()
	}
	mf := datatype.Flat{Disp: 0, Extent: extent, Size: total, Count: 1, Limit: -1, Segs: merged}
	return mf, ps
}

// Scatter distributes a read's merged stream back to the node's members,
// each payload in that member's own stream order, and restores the leader's
// stream to its own bytes. All ranks agree on the outcome so a member that
// lost its leader aborts the collective uniformly instead of unpacking stale
// zeros. roundsErr, when non-nil, is already uniform (it came out of a
// round-boundary agreement), so the stage is skipped as one.
func (ps *PreaggState) Scatter(f *mpiio.File, cs *mpiio.Stream, dataLen int64, roundsErr error) error {
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
	if roundsErr == nil {
		switch {
		case ps.Plan.Leads(rank) && len(ps.Plan.Members) > 0:
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
			if data == nil {
				scErr = fmt.Errorf("core: preagg scatter: no payload from leader rank %d", ps.Plan.Leader)
			} else {
				copy(stream, data)
				p.AdvanceClock(p.Config().MemcpyTime(int64(len(data))))
				bufpool.Put(data)
			}
		}
	}
	err := roundsErr
	if err == nil {
		err = mpiio.AgreeError(p, scErr)
	}
	return err
}
