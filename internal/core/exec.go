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

// The round executor: everything a collective call does once it is planned.
// A planner (this package's flexible one, twophase's ROMIO-style one) decides
// what every rank exchanges with every aggregator in every round and hands
// that over as a Plan; the executor walks the rounds (exchange, gather, buffer
// access, journal, degrade fallback, integrity failures, the round-boundary
// agreement) and closes the call. There is one write loop and one read loop;
// what differs between callers is data: the plan, the exchange strategy, the
// buffer access method.

// Executor runs planned collective calls. It holds no per-call state: one is
// built with the engine and shared by every rank.
type Executor struct {
	Comm CommStrategy
	// Journal, when set, records durable write rounds and lets a resumed
	// call skip them (see Options.Journal).
	Journal *mpiio.WriteJournal
	// Degrade reports, at the moment a sieving round fails, whether it should
	// be re-issued with naive I/O, which touches only the useful bytes. Nil
	// means never.
	Degrade func() bool
}

// Plan is one rank's part of a planned collective call.
type Plan struct {
	Pieces *PieceLists  // what this rank exchanges with each aggregator
	Agg    AggRounds    // this rank's aggregator side; nil if it has none
	Rounds int          // how many rounds every rank walks
	Method mpiio.Method // moves a collective buffer to and from storage
	// Err is a planning failure only this rank knows of (a request it could
	// not decode, a pre-aggregation member it lost). It seeds the first
	// round's agreement, so every rank aborts before a byte is written.
	Err error
}

// AggRounds serves an aggregator's merged rounds to the executor, which asks
// for every round of the call once, in order; the empty plan stands for a
// round the realm has no data in. What Round returns is read-only and stays
// intact until the next round is asked for, under the pipelined Nonblocking
// strategy (which drains round r while round r+1 is exchanged) the one after.
type AggRounds interface {
	Round(r int) *RoundPlan
}

var noRound RoundPlan // read-only

// sendBytes is what this rank exchanges with the aggregators in round r.
func (pl *Plan) sendBytes(r int) (n int64) {
	for a := 0; a < pl.Pieces.naggs; a++ {
		n += pl.Pieces.bytes(a, r)
	}
	return n
}

// RoundScratch is one rank's reusable working memory for the rounds. A rank
// never holds it across a rendezvous where a peer could still read it:
// everything here is rank-private or consumed by peers before the round's
// closing agreement (see the ownership notes in writeRounds and readRounds).
type RoundScratch struct {
	cur     []viewCursor // per-client read position while gathering a round
	iov     [][][]byte   // views this rank sends, per destination
	recvIov [][][]byte   // views this rank received, per source (point-to-point)
	waited  [][][]byte   // WaitallIov output, in request order
	reqs    []*mpi.Request
}

// degradeNow reports whether a round that failed under method m is re-issued
// with naive I/O: only sieving has something to fall back from.
func (x *Executor) degradeNow(m mpiio.Method) bool {
	return (m == mpiio.DataSieve || m == mpiio.IntegratedSieve) && x.Degrade != nil && x.Degrade()
}

// Rounds runs the plan's rounds on this rank's linear stream: a write drains
// the stream into the file, a read fills it. Every rank returns the same
// error (an agreed abort) or nil.
func (x *Executor) Rounds(f *mpiio.File, scr *RoundScratch, stream []byte, pl *Plan, write bool) error {
	if write {
		return x.writeRounds(f, scr, stream, pl)
	}
	return x.readRounds(f, scr, stream, pl)
}

// Finish closes the call after the rounds (and whatever the planner runs
// behind them: a pre-aggregated read scatters first) with the barrier that
// leaves all ranks synchronized, journal retirement, and a read's unpack into
// the user buffer. err is the rounds' outcome, uniform across ranks.
func (x *Executor) Finish(f *mpiio.File, stream, buf []byte, memtype datatype.Type, count int64, write bool, err error) error {
	if err != nil {
		// Nothing of an aborted call may meet the next one's receives.
		f.Proc().DropUndelivered()
	}
	// Synchronize before reporting: a rank that hit a local I/O error
	// must still complete the collective (its peers are in the barrier).
	f.Proc().Barrier()
	if err != nil {
		return err
	}
	// Every rank is past its rounds, so retiring the journal's recovery state
	// cannot race a Done check, and the next collective on this engine starts
	// fresh instead of skipping rounds or re-reporting the failover.
	x.Journal.Complete()
	if !write {
		return f.UnpackMemory(stream, buf, memtype, count)
	}
	return nil
}

// viewCursor reads an iovec payload as one byte stream. The transport does
// not promise the sender's view boundaries (a corrupted delivery, a
// re-requested original or a self-send may arrive cut differently), so both
// ends of the exchange consume views by byte count, never one view per
// piece.
type viewCursor struct {
	k   int // current view
	off int // bytes of it already consumed
}

// take returns the next unread bytes that are contiguous in views, at most
// n of them, and advances; nil once the payload is exhausted (or never
// arrived: a dead sender's table is nil).
func (c *viewCursor) take(views [][]byte, n int64) []byte {
	for c.k < len(views) {
		v := views[c.k][c.off:]
		if len(v) == 0 {
			c.k, c.off = c.k+1, 0
			continue
		}
		if int64(len(v)) > n {
			v = v[:n]
		}
		c.off += len(v)
		return v
	}
	return nil
}

// gather appends the round's collective buffer to dst: the plan's pieces in
// file order, each the next unread bytes of its client's views. This is the
// only host copy of the shuffle. cur is zeroed per-client scratch. A client
// whose payload is not exactly the bytes the plan holds for it (a damaged
// request that still decoded) fails the round, which the boundary agreement
// turns into an abort on every rank.
func (rp *RoundPlan) gather(dst []byte, cur []viewCursor, views [][][]byte) ([]byte, error) {
	for _, it := range rp.Order {
		for n := it.Len; n > 0; {
			b := cur[it.Run].take(views[it.Run], n)
			if b == nil {
				return dst, fmt.Errorf("payload of rank %d is shorter than planned", it.Run)
			}
			dst = append(dst, b...)
			n -= int64(len(b))
		}
	}
	for _, pb := range rp.Peers {
		if cur[pb.Client].take(views[pb.Client], 1) != nil {
			return dst, fmt.Errorf("payload of rank %d runs past its %d planned bytes", pb.Client, pb.Bytes)
		}
	}
	return dst, nil
}

// pieceViews appends one view of the stream per round-r run of pieces: the
// iovec both transports carry by reference, with no client-side copy.
func pieceViews(dst [][]byte, stream []byte, pl *PieceLists, a, r int) [][]byte {
	for _, run := range pl.of(a, r) {
		dst = append(dst, stream[run.at:run.at+run.n])
	}
	return dst
}

// roundIov returns the scratch iovec table truncated to size empty slots,
// reusing the inner slices' capacity: one per aggregator under the
// point-to-point exchanges (a slot per rank is O(P) on every rank every
// round), one per rank for the collective exchange.
func (scr *RoundScratch) roundIov(size int) [][][]byte {
	if cap(scr.iov) < size {
		scr.iov = make([][][]byte, size)
	}
	iov := scr.iov[:size]
	for k := range iov {
		iov[k] = iov[k][:0]
	}
	scr.iov = iov
	return iov
}

func (x *Executor) writeRounds(f *mpiio.File, scr *RoundScratch, stream []byte, pl *Plan) error {
	p := f.Proc()
	amAgg, naggs, ntimes, method := pl.Agg != nil, pl.Pieces.naggs, pl.Rounds, pl.Method
	// Only the nonblocking strategy overlaps a round's file I/O with the next
	// round's exchange, and only it models the pack of each message and the
	// unpack into the collective buffer as copies.
	pipelined := x.Comm == Nonblocking
	slots := naggs
	if x.Comm == Alltoallw {
		slots = p.Size()
	}

	// Pending I/O from the previous round (nonblocking pipeline). On an
	// I/O error the rank keeps participating in the round's exchange
	// (deserting a collective would deadlock the communicator); at each
	// round boundary all ranks agree on the worst error class and either
	// all continue or all abort with the same error.
	//
	// pendSegs aliases the round's (immutable) plan.
	var pendSegs []datatype.Seg
	var pendData []byte
	firstErr := pl.Err // a planning failure aborts round 0
	j := x.Journal

	flush := func(round int) {
		if len(pendSegs) == 0 || firstErr != nil {
			bufpool.Put(pendData)
			pendSegs, pendData = nil, nil
			return
		}
		if j.Done(p.Rank(), round) {
			// Already durable from the attempt that failed: the journal
			// lets the resume skip the physical write entirely. Done
			// answers true only while the journal is resuming, so a fresh
			// collective under an unchanged realm epoch never skips its
			// own writes.
			p.Metrics.NoteReplay(0, 1)
			p.Trace.Instant1(p.Clock(), trace.RoundSkipName, trace.I(trace.RoundTag, int64(round)))
			bufpool.Put(pendData)
			pendSegs, pendData = nil, nil
			return
		}
		err := f.WriteStream(pendSegs, pendData, method)
		if err != nil && x.degradeNow(method) {
			p.Stats.Add(stats.CDegradedRounds, 1)
			p.Trace.Instant2(p.Clock(), "degrade",
				trace.I(trace.RoundTag, int64(round)), trace.S("op", "write"))
			err = f.WriteStream(pendSegs, pendData, mpiio.Naive)
		}
		if err != nil {
			firstErr = fmt.Errorf("core: write round %d: %w", round, err)
		} else if p.PeerFailure() == nil {
			// Journal the round only while no failure is pending that
			// could abort the collective out from under it; an uncommitted
			// round merely replays (byte-identically) on resume.
			j.Commit(p.Rank(), round)
			if j.Resuming() {
				p.Metrics.NoteReplay(1, 0)
				p.Trace.Instant1(p.Clock(), trace.RoundReplayName, trace.I(trace.RoundTag, int64(round)))
			}
		}
		bufpool.Put(pendData)
		pendSegs, pendData = nil, nil
	}

	for r := 0; r < ntimes; r++ {
		f.SetRound(r)
		if amAgg {
			p.Trace.Begin2(p.Clock(), trace.RoundSpan,
				trace.I(trace.RoundTag, int64(r)), trace.I(trace.AggTag, int64(p.Rank())))
		} else {
			p.Trace.Begin1(p.Clock(), trace.RoundSpan, trace.I(trace.RoundTag, int64(r)))
		}
		probe := p.Metrics.BeginRound(p.Stats)
		var roundRecv int64
		rp := &noRound
		if amAgg {
			rp = pl.Agg.Round(r)
		}

		// Every strategy carries views of the stream, one per run of
		// pieces, by reference: no client-side payload copy on the host. The views
		// are dead before this rank reuses the iovec table or recycles the
		// stream, because the aggregators gather them before the round's
		// closing AgreeError.
		send := scr.roundIov(slots)
		for a := 0; a < naggs; a++ {
			send[a] = pieceViews(send[a], stream, pl.Pieces, a, r)
		}
		var recvIov [][][]byte
		if x.Comm == Alltoallw {
			t0 := p.Clock()
			p.Trace.Begin1(t0, stats.PComm, trace.S("what", "alltoallv"))
			recvIov = p.AlltoallvIov(send)
			p.ChargeTime(stats.PComm, p.Clock()-t0)
			p.Trace.End(p.Clock())
		} else {
			// Point-to-point: post every receive, send everything, wait.
			// The nonblocking strategy does the previous round's file I/O
			// while this round's data is in flight; the blocking one (all
			// Irecvs, all Isends, Waitall: ROMIO's exchange) overlaps
			// nothing.
			t0 := p.Clock()
			p.Trace.Begin1(t0, stats.PComm, trace.S("what", "post+send"))
			reqs := scr.reqs[:0]
			for _, pb := range rp.Peers {
				reqs = append(reqs, p.Irecv(pb.Client, tagData+r%1024))
			}
			for a := 0; a < naggs; a++ {
				if n := pl.Pieces.bytes(a, r); n > 0 {
					if pipelined {
						// The modelled pack of the message.
						f.ChargeCopy(n)
					}
					p.IsendIov(a, tagData+r%1024, send[a])
				}
			}
			p.ChargeTime(stats.PComm, p.Clock()-t0)
			p.Trace.End(p.Clock())

			if pipelined {
				flush(r - 1)
			}

			t0 = p.Clock()
			p.Trace.Begin1(t0, stats.PComm, trace.S("what", "waitall"))
			if amAgg {
				scr.recvIov = Sized(scr.recvIov, p.Size())
				recvIov = scr.recvIov
				scr.waited = mpi.WaitallIov(reqs, scr.waited)
				for k, pb := range rp.Peers {
					recvIov[pb.Client] = scr.waited[k]
				}
			}
			p.ChargeTime(stats.PComm, p.Clock()-t0)
			p.Trace.End(p.Clock())
			scr.reqs = reqs[:0]
		}

		// A payload that arrived corrupted and exhausted its re-request
		// budget is unusable: the round's merge would shuffle damaged
		// bytes into the file. Consume the sticky failure so the boundary
		// agreement aborts every rank with ClassIntegrity.
		if ierr := p.TakeIntegrityFailure(); ierr != nil && firstErr == nil {
			firstErr = fmt.Errorf("core: write round %d: %w", r, ierr)
		}

		if amAgg {
			if perr := p.PeerFailure(); perr != nil && firstErr == nil {
				// The exchange surfaced a dead or straggling peer: the
				// received round views are incomplete, so the merge below
				// is skipped and the boundary agreement aborts every rank.
				firstErr = fmt.Errorf("core: write round %d: %w", r, perr)
			}
			var total int64
			if firstErr == nil {
				total = rp.Total
			}
			roundRecv = total
			if total > 0 {
				p.Trace.Instant2(p.Clock(), "round_bytes",
					trace.I(trace.RoundTag, int64(r)), trace.I(trace.BytesTag, total))
				// Assemble the collective buffer (gap-free: only useful
				// data). This is the single host copy of the shuffle.
				scr.cur = Sized(scr.cur, p.Size())
				concat, err := rp.gather(bufpool.Get(total)[:0], scr.cur, recvIov)
				if err != nil {
					firstErr = fmt.Errorf("core: write round %d: %w", r, err)
				}
				if pipelined {
					// The modelled unpack of the messages.
					f.ChargeCopy(total)
				}
				if method == mpiio.IntegratedSieve {
					// The pass that fills the integrated sieve buffer.
					f.ChargeCopy(total)
				}
				pendSegs, pendData = rp.Segs, concat
				if !pipelined {
					// No pipeline: write now.
					flush(r)
				}
			}
		}
		p.Trace.End(p.Clock()) // round span

		// Flight record before the boundary agreement, so an aborting
		// round's exchange traffic is still captured. (The last round's
		// pipelined write lands after its record — see the final flush.)
		if p.Metrics != nil {
			p.Metrics.EndRound(p.Stats, probe, r, amAgg, pl.sendBytes(r), roundRecv)
		}

		// Round boundary: agree on the worst error class so every rank
		// aborts (or continues) together.
		if err := mpiio.AgreeError(p, firstErr); err != nil {
			p.Metrics.NoteAbort(r, mpiio.ClassName(mpiio.ErrorClass(err)))
			bufpool.Put(pendData)
			f.SetRound(-1)
			return err
		}
	}
	if x.Comm == Blocking {
		// Every round wrote and agreed inside the loop.
		f.SetRound(-1)
		return nil
	}
	// The last round's pipelined write lands outside the loop; give it its
	// own round wrapper so the breakdown attributes the I/O correctly.
	f.SetRound(ntimes - 1)
	p.Trace.Begin1(p.Clock(), trace.RoundSpan, trace.I(trace.RoundTag, int64(ntimes-1)))
	flush(ntimes - 1)
	p.Trace.End(p.Clock())
	f.SetRound(-1)
	if err := mpiio.AgreeError(p, firstErr); err != nil {
		p.Metrics.NoteAbort(ntimes-1, mpiio.ClassName(mpiio.ErrorClass(err)))
		return err
	}
	return nil
}

func (x *Executor) readRounds(f *mpiio.File, scr *RoundScratch, stream []byte, pl *Plan) error {
	p := f.Proc()
	amAgg, naggs, ntimes, method := pl.Agg != nil, pl.Pieces.naggs, pl.Rounds, pl.Method
	firstErr := pl.Err // a planning failure aborts round 0
	// Only an aggregator sends point-to-point, a slot per client.
	sendSlots := 0
	if amAgg || x.Comm == Alltoallw {
		sendSlots = p.Size()
	}

	for r := 0; r < ntimes; r++ {
		f.SetRound(r)
		if amAgg {
			p.Trace.Begin2(p.Clock(), trace.RoundSpan,
				trace.I(trace.RoundTag, int64(r)), trace.I(trace.AggTag, int64(p.Rank())))
		} else {
			p.Trace.Begin1(p.Clock(), trace.RoundSpan, trace.I(trace.RoundTag, int64(r)))
		}
		// Aggregator: read this round's realm window and carve it up.
		// On an I/O error the rank still serves (zero-filled) payloads
		// so the round's exchange completes; the round-boundary
		// agreement below then aborts every rank together.
		//
		// Every strategy serves each client views of the pooled read
		// buffer, one per piece, by reference: the buffer is retired only
		// after the round's AgreeError, once every client has placed its
		// data.
		probe := p.Metrics.BeginRound(p.Stats)
		sendIov := scr.roundIov(sendSlots)
		var retire []byte
		rp := &noRound
		if amAgg {
			rp = pl.Agg.Round(r)
		}
		roundRecv := rp.Total
		if amAgg {
			segs, total := rp.Segs, rp.Total
			if total > 0 {
				p.Trace.Instant2(p.Clock(), "round_bytes",
					trace.I(trace.RoundTag, int64(r)), trace.I(trace.BytesTag, total))
				if method == mpiio.IntegratedSieve {
					// The pass that empties the integrated sieve buffer.
					f.ChargeCopy(total)
				}
				// ReadStream fills every byte of rbuf on success; on
				// error the agreement below aborts the collective, so
				// stale pooled contents are never placed.
				rbuf := bufpool.Get(total)
				if firstErr != nil {
					clear(rbuf)
				} else {
					err := f.ReadStream(segs, rbuf, method)
					if err != nil && x.degradeNow(method) {
						p.Stats.Add(stats.CDegradedRounds, 1)
						p.Trace.Instant2(p.Clock(), "degrade",
							trace.I(trace.RoundTag, int64(r)), trace.S("op", "read"))
						err = f.ReadStream(segs, rbuf, mpiio.Naive)
					}
					if err != nil {
						firstErr = fmt.Errorf("core: read round %d: %w", r, err)
						// Serve deterministic zeros, as a fresh buffer
						// would have; the agreement below aborts every
						// rank before any of it reaches a user buffer.
						clear(rbuf)
					}
				}
				pos := int64(0)
				for _, it := range rp.Order {
					sendIov[it.Run] = append(sendIov[it.Run], rbuf[pos:pos+it.Len])
					pos += it.Len
				}
				retire = rbuf
				if x.Comm == Nonblocking {
					// The modelled split into per-client messages.
					f.ChargeCopy(total)
				}
			}
		}

		// Exchange.
		t0 := p.Clock()
		p.Trace.Begin1(t0, stats.PComm, trace.S("what", "exchange"))
		var recv [][][]byte
		if x.Comm == Alltoallw {
			recv = p.AlltoallvIov(sendIov)
		} else {
			// Point-to-point. Nonblocking posts its receives first and waits
			// for all of them; ROMIO's read exchange sends every client its
			// pieces, then takes its own with blocking receives in
			// aggregator order.
			posted := x.Comm == Nonblocking
			reqs := scr.reqs[:0]
			for a := 0; posted && a < naggs; a++ {
				if pl.Pieces.bytes(a, r) > 0 {
					reqs = append(reqs, p.Irecv(a, tagBack+r%1024))
				}
			}
			for _, pb := range rp.Peers {
				p.IsendIov(pb.Client, tagBack+r%1024, sendIov[pb.Client])
			}
			scr.recvIov = Sized(scr.recvIov, naggs)
			recv = scr.recvIov
			scr.waited = mpi.WaitallIov(reqs, scr.waited)
			k := 0
			for a := 0; a < naggs; a++ {
				if pl.Pieces.bytes(a, r) == 0 {
					continue
				}
				if posted {
					recv[a], k = scr.waited[k], k+1
				} else {
					recv[a], _ = p.RecvIov(a, tagBack+r%1024)
				}
			}
			scr.reqs = reqs[:0]
		}
		for a := 0; a < naggs; a++ {
			// A dead or stalled aggregator's slot is nil: nothing is
			// placed, and the round-boundary agreement below aborts the
			// read before any partial data reaches the user buffer.
			placeIov(stream, pl.Pieces, a, r, recv[a])
		}
		p.ChargeTime(stats.PComm, p.Clock()-t0)
		p.Trace.End(p.Clock())
		p.Trace.End(p.Clock()) // round span

		// Read-back data that arrived corrupted past its re-request budget
		// must never reach the user buffer verified-looking: abort the
		// round uniformly with ClassIntegrity.
		if ierr := p.TakeIntegrityFailure(); ierr != nil && firstErr == nil {
			firstErr = fmt.Errorf("core: read round %d: %w", r, ierr)
		}

		// Flight record: send_bytes is this rank's exchange volume with
		// the aggregators (read-back direction), recv_bytes the merged
		// realm window at the aggregator.
		if p.Metrics != nil {
			p.Metrics.EndRound(p.Stats, probe, r, amAgg, pl.sendBytes(r), roundRecv)
		}

		// Round boundary: agree on the worst error class so every rank
		// aborts (or continues) together. It also proves every client has
		// consumed its views of this aggregator's read buffer, making it
		// safe to retire.
		err := mpiio.AgreeError(p, firstErr)
		bufpool.Put(retire)
		if err != nil {
			p.Metrics.NoteAbort(r, mpiio.ClassName(mpiio.ErrorClass(err)))
			f.SetRound(-1)
			return err
		}
	}
	f.SetRound(-1)
	return nil
}

// placeIov scatters an aggregator's round payload — views of its read
// buffer, consumed by byte count — into the client's linear stream. A dead
// aggregator's table is nil: nothing arrived, and the round's agreement
// aborts before the stream reaches the user.
func placeIov(stream []byte, pl *PieceLists, a, r int, views [][]byte) {
	var cur viewCursor
	for _, run := range pl.of(a, r) {
		for at, n := run.at, run.n; n > 0; {
			b := cur.take(views, n)
			if b == nil {
				return
			}
			copy(stream[at:], b)
			at += int64(len(b))
			n -= int64(len(b))
		}
	}
}
