// Package twophase is the baseline: a faithful model of the original
// ROMIO-style two-phase collective I/O implementation the paper compares
// against (Thakur, Gropp, Lusk — "Data sieving and collective I/O in
// ROMIO").
//
// Its defining characteristics, all modelled here:
//
//   - The entire access is flattened into offset/length pairs (M pairs) and
//     the pairs themselves are exchanged: O(M) memory and communication,
//     but only O(M) computation.
//   - File domains (realms) are an even partition of the aggregate access
//     region — contiguous byte ranges only.
//   - Data sieving is integrated directly into the collective buffer: the
//     buffer holds gap data and the aggregator issues one contiguous
//     read(-modify)-write per round, with no second pass through a
//     separate sieve buffer.
//   - All communication of a round is posted at once (all MPI_Irecvs, then
//     all MPI_Isends, then a wait for everything).
package twophase

import (
	"fmt"

	"flexio/internal/bufpool"
	"flexio/internal/datatype"
	"flexio/internal/metrics"
	"flexio/internal/mpi"
	"flexio/internal/mpiio"
	"flexio/internal/stats"
	"flexio/internal/trace"
)

const (
	tagReq  = 1000
	tagData = 2000
)

// Impl implements mpiio.Collective.
type Impl struct {
	// journal, when set, records which (aggregator, round) sieve writes
	// became durable so a rerun after a rank failure skips them. The
	// baseline has no realm flexibility: a recovered rank resumes its old
	// fixed file domain, so the epoch is the domain layout itself.
	journal *mpiio.WriteJournal
	// degrade, when non-nil, enables the graceful-degradation fallback
	// the flexio engine has: if a round's integrated sieve access fails
	// while degrade() reports true, the aggregator re-issues the round's
	// useful bytes with naive per-segment I/O before reporting an error.
	// Called only on round failures; must be safe for concurrent use.
	degrade func() bool
	// preagg enables the node-local pre-aggregation stage (see preagg.go):
	// node leaders merge their co-residents' accesses and carry the round
	// data, cutting inter-node volume while the output stays byte-identical.
	preagg bool
}

// New returns the baseline implementation.
func New() *Impl { return &Impl{} }

// NewJournaled returns the baseline with a write journal attached: reruns
// against the same journal skip rounds that were already durable when a
// previous attempt aborted.
func NewJournaled(j *mpiio.WriteJournal) *Impl { return &Impl{journal: j} }

// NewDegradable returns the baseline with a dynamic degrade hook, the
// tenant service's entry point for routing jobs off a failing OST: while
// the hook reports true, failed sieve rounds fall back to naive I/O
// (touching only useful bytes) instead of aborting the collective.
func NewDegradable(degrade func() bool) *Impl { return &Impl{degrade: degrade} }

// WithPreagg enables node-local pre-aggregation (the two-level exchange)
// and returns the receiver for chaining with any constructor. It requires
// a node map on the world to have any effect; with the default identity
// map every rank is its own leader and the stage is a no-op.
func (i *Impl) WithPreagg() *Impl {
	i.preagg = true
	return i
}

// Name implements mpiio.Collective.
func (*Impl) Name() string { return "romio-twophase" }

// WriteAll implements mpiio.Collective.
func (i *Impl) WriteAll(f *mpiio.File, buf []byte, memtype datatype.Type, count int64) error {
	return i.collective(f, buf, memtype, count, true)
}

// ReadAll implements mpiio.Collective.
func (i *Impl) ReadAll(f *mpiio.File, buf []byte, memtype datatype.Type, count int64) error {
	return i.collective(f, buf, memtype, count, false)
}

// clipState walks one offset-sorted segment list, and the linear data
// stream its bytes occupy back to back, through consecutive windows.
type clipState struct {
	segs  []datatype.Seg
	idx   int
	intra int64 // bytes of segs[idx] already consumed
	pos   int64 // stream position of the next unconsumed byte
}

// next appends the sub-segments with file offsets in [lo, hi) to out[:0]
// and returns them with their byte count and the stream position of the
// first; they are back to back in the stream. Windows must be visited in
// increasing order.
func (cs *clipState) next(lo, hi int64, out []datatype.Seg) (_ []datatype.Seg, at, total int64) {
	out = out[:0]
	for cs.idx < len(cs.segs) {
		s := cs.segs[cs.idx]
		off := s.Off + cs.intra
		if off >= hi {
			break
		}
		n := min(s.End(), hi) - off
		if off+n > lo { // else entirely before the window (shouldn't happen when windows tile)
			if len(out) == 0 {
				at = cs.pos
			}
			out = append(out, datatype.Seg{Off: off, Len: n})
			total += n
		}
		cs.pos += n
		cs.intra += n
		if cs.intra == s.Len {
			cs.idx++
			cs.intra = 0
		}
		if off+n == hi {
			break
		}
	}
	return out, at, total
}

func (i *Impl) collective(f *mpiio.File, buf []byte, memtype datatype.Type, count int64, write bool) error {
	// Linearize the user data. A write's stream is read in place by the
	// aggregators (each gets a view of its contiguous share); a read's is
	// private. Pre-aggregation swaps the stream (a member hands its own to
	// the leader, a leader continues with the merged one).
	var cs mpiio.Stream
	if write {
		var err error
		if cs, err = f.Linearize(buf, memtype, count, true); err != nil {
			return err
		}
	} else {
		cs = mpiio.ReadStreamBuf(datatype.TotalSize(memtype, count))
	}
	err := i.run(f, &cs, buf, memtype, count, write)
	// Not deferred: the round-boundary agreements order every reader of
	// the stream's views before a normal return, but an injected crash
	// unwinds this rank while an aggregator may still be gathering from
	// them, and a dying rank must drop its stream, not pool it.
	cs.Release()
	return err
}

// run is the collective call proper, on an already linearized stream.
func (i *Impl) run(f *mpiio.File, cs *mpiio.Stream, buf []byte, memtype datatype.Type, count int64, write bool) error {
	p := f.Proc()
	cfg := p.Config()
	info := f.Info()

	// Flatten the whole access: the O(M) flattened-access representation
	// is this implementation's currency.
	dataLen := datatype.TotalSize(memtype, count)
	mySegs := f.ResolveAccess(dataLen)

	// Aggregate access region.
	var st, en int64 = 1 << 62, -1
	if len(mySegs) > 0 {
		st = mySegs[0].Off
		en = mySegs[len(mySegs)-1].End()
	}
	t0 := p.Clock()
	p.Trace.Begin1(t0, stats.PExchange, trace.S("what", "bounds"))
	allSt := p.AllgatherInt64(st)
	allEn := p.AllgatherInt64(en)
	aarSt, aarEn := int64(1<<62), int64(-1)
	for r := 0; r < p.Size(); r++ {
		if allSt[r] < aarSt {
			aarSt = allSt[r]
		}
		if allEn[r] > aarEn {
			aarEn = allEn[r]
		}
	}
	p.ChargeTime(stats.PExchange, p.Clock()-t0)
	p.Trace.End(p.Clock())
	if aarEn <= aarSt {
		return nil // no process accesses any data
	}

	// Node-local pre-aggregation: after the bounds exchange (so the
	// aggregate region reflects every rank's true access) the node leaders
	// absorb their members' segments and payloads; members continue with an
	// empty access. The merged lists are deduplicated unions, so the even
	// domains and round windows carve out exactly the byte sets the members
	// would have shipped individually — output stays byte-identical.
	var pre *preaggState
	var preErr error
	if i.preagg {
		mySegs, pre = i.preaggExchange(f, mySegs, cs, dataLen, write)
		preErr = pre.err
	}

	// Even file domains over the aggregate access region.
	naggs := info.CbNodes
	if naggs == 0 {
		naggs = p.Size()
	}
	span := aarEn - aarSt
	chunk := (span + int64(naggs) - 1) / int64(naggs)
	fdStart := make([]int64, naggs)
	fdEnd := make([]int64, naggs)
	for a := 0; a < naggs; a++ {
		fdStart[a] = aarSt + int64(a)*chunk
		fdEnd[a] = fdStart[a] + chunk
		if fdEnd[a] > aarEn {
			fdEnd[a] = aarEn
		}
		if fdStart[a] > aarEn {
			fdStart[a] = aarEn
		}
	}

	// Metrics: file-domain layout health. ROMIO-style even domains are
	// whatever the aggregate access region dictates, so misalignment
	// against the stripe width is the common case this surfaces.
	if p.Metrics != nil {
		stripe := f.FS().Config().StripeSize
		var misaligned int64
		for a := 0; a < naggs; a++ {
			if fdStart[a] < fdEnd[a] && fdStart[a]%stripe != 0 {
				misaligned++
			}
		}
		p.Metrics.Add(metrics.CRealmsAssigned, int64(naggs))
		p.Metrics.Add(metrics.CRealmsMisaligned, misaligned)
		p.Metrics.SetGauge(metrics.GNAggs, float64(naggs))
		if p.Rank() == 0 {
			p.Metrics.SetRealmContext(naggs, stripe, 0, fdStart)
			p.Metrics.SetTopology(p.NodeCount())
		}
	}

	// Split my access per aggregator and ship the offset/length pairs.
	// O(M) processing, O(M) request bytes on the wire.
	t0 = p.Clock()
	p.Trace.Begin1(t0, stats.PExchange, trace.S("what", "requests"))
	// mySegs is offset-sorted and domains ascend, so each aggregator's share
	// is one back-to-back range of the stream: its clip state starts there.
	myClip := make([]clipState, naggs)
	{
		a := 0
		var pos int64
		for _, s := range mySegs {
			for off := s.Off; off < s.End(); {
				for a < naggs-1 && off >= fdEnd[a] {
					a++
				}
				n := s.End() - off
				if lim := fdEnd[a] - off; a < naggs-1 && n > lim {
					n = lim
				}
				if len(myClip[a].segs) == 0 {
					myClip[a].pos = pos
				}
				myClip[a].segs = append(myClip[a].segs, datatype.Seg{Off: off, Len: n})
				off += n
				pos += n
			}
		}
	}
	f.ChargePairs(int64(len(mySegs)))
	for a := 0; a < naggs; a++ {
		enc := datatype.EncodeSegs(myClip[a].segs)
		p.Stats.Add(stats.CReqBytes, int64(len(enc)))
		p.Send(a, tagReq, enc)
	}

	// Aggregators receive every rank's request list: the walk state per
	// client, and the per-round working set reused by every round.
	amAgg := p.Rank() < naggs
	var aggClip []clipState
	var runs [][]datatype.Seg // this round's pieces per client
	var msgs [][]byte         // this round's payload per client
	var cur []int64           // per-client read position while gathering
	var merger datatype.RunMerger
	var order []datatype.RunItem
	var segs []datatype.Seg
	var payloads [][]byte // WaitallInto scratch
	if amAgg {
		aggClip = make([]clipState, p.Size())
		runs = make([][]datatype.Seg, p.Size())
		msgs = make([][]byte, p.Size())
		cur = make([]int64, p.Size())
		var pairs int64
		for c := 0; c < p.Size(); c++ {
			enc, _ := p.Recv(c, tagReq)
			if enc == nil {
				// The client is dead or unresponsive: treat its access as
				// empty so the collective keeps its structure through to
				// the next agreement point (deserting here would strand
				// the surviving ranks in their exchanges).
				continue
			}
			req, err := datatype.DecodeSegs(enc)
			if err != nil {
				return fmt.Errorf("twophase: bad request from rank %d: %w", c, err)
			}
			aggClip[c].segs = req
			pairs += int64(len(req))
		}
		f.ChargePairs(pairs)
	}
	p.ChargeTime(stats.PExchange, p.Clock()-t0)
	p.Trace.End(p.Clock())

	// A request list that arrived corrupted past the re-request budget
	// reads as an empty access. For writes the client's unsolicited round
	// payloads would merely sit unmatched, but for reads the aggregator
	// would never send that client its pieces — and the client, whose own
	// view of its access is intact, would wait forever: a deadlock, not an
	// abort. The receiving aggregator is the only rank that knows, so when
	// the checksummed datapath is armed every rank rendezvous here and
	// aborts with ClassIntegrity before the rounds begin.
	if p.World().IntegrityEnabled() {
		var reqErr error
		if ierr := p.TakeIntegrityFailure(); ierr != nil {
			reqErr = fmt.Errorf("twophase: request exchange: %w", ierr)
		}
		if err := mpiio.AgreeError(p, reqErr); err != nil {
			return err
		}
	}

	// Round count: every rank can compute it from the global domain
	// bounds.
	cb := info.CollBufSize
	ntimes := 0
	for a := 0; a < naggs; a++ {
		if r := int((fdEnd[a] - fdStart[a] + cb - 1) / cb); r > ntimes {
			ntimes = r
		}
	}

	if write && i.journal != nil {
		// The journal epoch is the file-domain layout: fixed even domains
		// mean a rerun after recovery sees the same layout and can skip
		// the rounds already durable. (Contrast with the flexio engine,
		// whose failover reassignment starts a fresh epoch when realms
		// move.)
		h := uint64(14695981039346656037)
		mix := func(v int64) {
			for k := 0; k < 8; k++ {
				h = (h ^ uint64(v>>(8*k))&0xff) * 1099511628211
			}
		}
		mix(int64(naggs))
		mix(cb)
		for a := 0; a < naggs; a++ {
			mix(fdStart[a])
			mix(fdEnd[a])
		}
		i.journal.Begin(h)
		if i.journal.Resuming() && p.Rank() == 0 {
			p.Metrics.NoteFailover(i.journal.Dead(), naggs)
			for _, d := range i.journal.Dead() {
				p.Trace.Instant2(p.Clock(), trace.FailoverName,
					trace.I(trace.DeadTag, int64(d)), trace.I(trace.RealmsTag, int64(naggs)))
			}
		}
	}

	// On an I/O error the rank keeps participating in the round's
	// exchange (deserting a collective deadlocks the communicator); at
	// each round boundary all ranks agree on the worst error class and
	// either all continue or all abort with the same error. A leader whose
	// pre-aggregation lost a member seeds the same machinery, so the first
	// boundary aborts every rank before a partial merge becomes durable.
	firstErr := preErr
	var clipped []datatype.Seg // scratch: the client side only needs the byte range
	stream := cs.B             // fixed from here on: pre-aggregation is done swapping

	for r := 0; r < ntimes; r++ {
		f.SetRound(r)
		tag := tagData + r%1024
		if amAgg {
			p.Trace.Begin2(p.Clock(), trace.RoundSpan,
				trace.I(trace.RoundTag, int64(r)), trace.I(trace.AggTag, int64(p.Rank())))
		} else {
			p.Trace.Begin1(p.Clock(), trace.RoundSpan, trace.I(trace.RoundTag, int64(r)))
		}

		probe := p.Metrics.BeginRound(p.Stats)
		var roundSend, roundRecv int64

		// Aggregator: figure out this round's window pieces per client
		// and post all receives first (for writes) — the original
		// code's "all Irecvs, then all Isends" structure.
		window := false
		if amAgg {
			wlo := fdStart[p.Rank()] + int64(r)*cb
			whi := min(wlo+cb, fdEnd[p.Rank()])
			if window = wlo < whi; window {
				for c := range runs {
					runs[c], _, _ = aggClip[c].next(wlo, whi, runs[c])
				}
			}
		}
		var recvReqs []*mpi.Request
		var recvFrom []int
		if write && window {
			for c := range runs {
				if len(runs[c]) > 0 {
					recvReqs = append(recvReqs, p.Irecv(c, tag))
					recvFrom = append(recvFrom, c)
				}
			}
		}

		// Client: send my data for each aggregator's window r.
		type sentRange struct {
			agg   int
			at, n int64 // where in my stream the aggregator's bytes go
		}
		var sent []sentRange
		tSend := p.Clock()
		if write {
			p.Trace.Begin1(tSend, stats.PComm, trace.S("what", "send"))
		}
		for a := 0; a < naggs; a++ {
			alo := fdStart[a] + int64(r)*cb
			ahi := alo + cb
			if ahi > fdEnd[a] {
				ahi = fdEnd[a]
			}
			if alo >= ahi {
				continue
			}
			var at, total int64
			clipped, at, total = myClip[a].next(alo, ahi, clipped)
			if total == 0 {
				continue
			}
			roundSend += total
			if write {
				// The aggregator's share is one contiguous range of the
				// stream: sent by reference, read before the round's
				// closing agreement, never recycled by the receiver.
				p.Isend(a, tag, stream[at:at+total])
			} else {
				sent = append(sent, sentRange{agg: a, at: at, n: total})
			}
		}
		if write {
			p.ChargeTime(stats.PComm, p.Clock()-tSend)
			p.Trace.End(p.Clock())
		}

		// Aggregator: complete the exchange and do the I/O for this
		// round through the integrated sieve buffer.
		if window {
			if write {
				tWait := p.Clock()
				p.Trace.Begin1(tWait, stats.PComm, trace.S("what", "waitall"))
				payloads = mpi.WaitallInto(recvReqs, payloads)
				p.ChargeTime(stats.PComm, p.Clock()-tWait)
				p.Trace.End(p.Clock())
				for k, c := range recvFrom {
					msgs[c] = payloads[k]
					if payloads[k] == nil {
						// The client died, stalled past the deadline, or its
						// payload arrived corrupted past the re-request
						// budget. Skip its pieces — the boundary agreement
						// below aborts every rank with the right class.
						if firstErr == nil {
							if ierr := p.TakeIntegrityFailure(); ierr != nil {
								firstErr = fmt.Errorf("twophase: round %d: %w", r, ierr)
							} else {
								firstErr = fmt.Errorf("twophase: round %d: %w", r, mpi.ErrRankUnresponsive)
							}
						}
						runs[c] = nil
					}
				}
			}
			// Merge all clients' pieces into file-offset order.
			var total int64
			order, segs, total = merger.Merge(runs, order, segs)
			if len(order) > 0 {
				lo := segs[0].Off
				hi := segs[len(segs)-1].End()
				span := datatype.Seg{Off: lo, Len: hi - lo}
				roundRecv = total

				// Single pass into the integrated buffer.
				d := cfg.MemcpyTime(total)
				p.Trace.Begin1(p.Clock(), stats.PCopy, trace.I(trace.BytesTag, total))
				p.AdvanceClock(d)
				p.ChargeTime(stats.PCopy, d)
				p.Trace.End(p.Clock())
				p.Trace.Instant2(p.Clock(), "round_bytes",
					trace.I(trace.RoundTag, int64(r)), trace.I(trace.BytesTag, total))

				tio := p.Clock()
				if write {
					p.Trace.Begin2(tio, stats.PIO, trace.S("op", "write"), trace.I(trace.BytesTag, total))
					concat := bufpool.Get(total)[:0]
					clear(cur)
					for _, it := range order {
						c := it.Run
						concat = append(concat, msgs[c][cur[c]:cur[c]+it.Len]...)
						cur[c] += it.Len
					}
					switch {
					case firstErr != nil:
					case i.journal.Done(p.Rank(), r):
						// Already durable from the attempt that failed:
						// the journal lets the rerun skip the sieve I/O.
						// Done answers true only during a resume, so a
						// fresh collective under the same file-domain
						// epoch still performs all its writes.
						p.Metrics.NoteReplay(0, 1)
						p.Trace.Instant1(p.Clock(), trace.RoundSkipName, trace.I(trace.RoundTag, int64(r)))
					default:
						err := f.WriteSieve(span, segs, concat)
						if err != nil && i.degrade != nil && i.degrade() {
							p.Stats.Add(stats.CDegradedRounds, 1)
							p.Trace.Instant2(p.Clock(), "degrade",
								trace.I(trace.RoundTag, int64(r)), trace.S("op", "write"))
							err = f.WriteStream(segs, concat, mpiio.Naive)
						}
						if err != nil {
							firstErr = fmt.Errorf("twophase: round %d: %w", r, err)
						} else if p.PeerFailure() == nil {
							i.journal.Commit(p.Rank(), r)
							if i.journal.Resuming() {
								p.Metrics.NoteReplay(1, 0)
								p.Trace.Instant1(p.Clock(), trace.RoundReplayName, trace.I(trace.RoundTag, int64(r)))
							}
						}
					}
					bufpool.Put(concat) // storage copies synchronously
					p.ChargeTime(stats.PIO, p.Clock()-tio)
					p.Trace.End(p.Clock())
				} else {
					p.Trace.Begin2(tio, stats.PIO, trace.S("op", "read"), trace.I(trace.BytesTag, total))
					rbuf := bufpool.Get(total)
					if firstErr == nil {
						err := f.ReadSieve(span, segs, rbuf)
						if err != nil && i.degrade != nil && i.degrade() {
							p.Stats.Add(stats.CDegradedRounds, 1)
							p.Trace.Instant2(p.Clock(), "degrade",
								trace.I(trace.RoundTag, int64(r)), trace.S("op", "read"))
							err = f.ReadStream(segs, rbuf, mpiio.Naive)
						}
						if err != nil {
							firstErr = fmt.Errorf("twophase: round %d: %w", r, err)
							// Serve deterministic zeros, as a fresh buffer
							// would have.
							clear(rbuf)
						}
					} else {
						clear(rbuf)
					}
					p.ChargeTime(stats.PIO, p.Clock()-tio)
					p.Trace.End(p.Clock())
					// Ship each client its pieces, each built directly in a
					// pooled buffer the client releases after unpacking.
					tc := p.Clock()
					p.Trace.Begin1(tc, stats.PComm, trace.S("what", "send-back"))
					clear(msgs)
					for c, run := range runs {
						var tot int64
						for _, s := range run {
							tot += s.Len
						}
						if tot > 0 {
							msgs[c] = bufpool.Get(tot)[:0]
						}
					}
					pos := int64(0)
					for _, it := range order {
						msgs[it.Run] = append(msgs[it.Run], rbuf[pos:pos+it.Len]...)
						pos += it.Len
					}
					bufpool.Put(rbuf)
					for c, msg := range msgs {
						if msg != nil {
							p.Isend(c, tag, msg)
						}
					}
					p.ChargeTime(stats.PComm, p.Clock()-tc)
					p.Trace.End(p.Clock())
				}
			}
		}

		// Client (read): collect my pieces back from the aggregators.
		if !write {
			tRecv := p.Clock()
			p.Trace.Begin1(tRecv, stats.PComm, trace.S("what", "recv"))
			for _, sp := range sent {
				data, _ := p.Recv(sp.agg, tag)
				if data == nil {
					// Dead or straggling aggregator — or read-back data
					// corrupted past the re-request budget: nothing to
					// place; the boundary agreement aborts before partial
					// data could reach the user buffer.
					if firstErr == nil {
						if ierr := p.TakeIntegrityFailure(); ierr != nil {
							firstErr = fmt.Errorf("twophase: round %d: %w", r, ierr)
						} else {
							firstErr = fmt.Errorf("twophase: round %d: %w", r, mpi.ErrRankUnresponsive)
						}
					}
					continue
				}
				copy(stream[sp.at:sp.at+sp.n], data)
				bufpool.Put(data) // pooled by the aggregator; receiver releases
			}
			p.ChargeTime(stats.PComm, p.Clock()-tRecv)
			p.Trace.End(p.Clock())
		}
		p.Trace.End(p.Clock()) // round span

		// A payload that arrived corrupted and exhausted its re-request
		// budget is unusable (shuffle data on writes, read-back data on
		// reads): consume the sticky failure so the boundary agreement
		// aborts every rank with ClassIntegrity.
		if ierr := p.TakeIntegrityFailure(); ierr != nil && firstErr == nil {
			firstErr = fmt.Errorf("twophase: round %d: %w", r, ierr)
		}

		p.Metrics.EndRound(p.Stats, probe, r, amAgg, roundSend, roundRecv)

		// Round boundary: agree on the worst error class so every rank
		// aborts (or continues) together.
		if err := mpiio.AgreeError(p, firstErr); err != nil {
			p.Metrics.NoteAbort(r, mpiio.ClassName(mpiio.ErrorClass(err)))
			f.SetRound(-1)
			return err
		}
	}
	f.SetRound(-1)

	// Reads under pre-aggregation: the leader scatters each member its
	// bytes and takes back its own; an abort above skipped this uniformly.
	if !write && pre != nil {
		if err := i.preaggScatter(f, cs, pre, dataLen); err != nil {
			return err
		}
	}

	// Collective calls leave all ranks synchronized.
	p.Barrier()

	// Success: retire the journal's recovery state so the next collective
	// starts a fresh attempt (no round skips, no repeated failover
	// reports). All ranks are past their rounds — the barrier above — so
	// the clear cannot race a Done check.
	i.journal.Complete()

	if !write {
		return f.UnpackMemory(cs.B, buf, memtype, count)
	}
	return nil
}
