package core

import (
	"fmt"
	"slices"

	"flexio/internal/datatype"
	"flexio/internal/metrics"
	"flexio/internal/mpi"
	"flexio/internal/mpiio"
	"flexio/internal/pfs"
	"flexio/internal/trace"
)

// The round executor: everything a collective call does once it is planned.
// The planner (run) decides what every rank exchanges with every aggregator in
// every round and hands that over as a plan; the executor walks the rounds
// (exchange, write batch, buffer access, journal, degrade fallback, integrity
// failures, the round-boundary agreement) and closes the call. There is one
// write loop and one read loop; what differs between engines is data: the
// plan, the exchange strategy, the buffer access method.

// plan is one rank's part of a planned collective call.
type plan struct {
	pieces *pieceLists  // what this rank exchanges with each aggregator
	agg    *aggPlans    // this rank's aggregator side; nil if it has none
	rounds int          // how many rounds every rank walks
	cb     int64        // the collective buffer size the rounds are cut at
	method mpiio.Method // moves a collective buffer to and from storage
	// err is a planning failure only this rank knows of (a request it could
	// not use, a pre-aggregation member it lost). It seeds the first round's
	// agreement, so every rank aborts before a byte is written.
	err error
	// first is round 0 of a read aggregator that read it while the round
	// count was agreed (readFirst), split into round 0's table.
	first *roundPlan
}

var noRound roundPlan // read-only

// sendBytes is what this rank exchanges with the aggregators in round r.
func (pl *plan) sendBytes(r int) (n int64) {
	for a := 0; a < pl.pieces.naggs; a++ {
		n += pl.pieces.bytes(a, r)
	}
	return n
}

// batch returns the last round of the write batch that opens at round r, a
// round this aggregator has data in, and the batch's bytes. Rounds are cut at
// cb bytes of realm extent, so a sparse round leaves most of the collective
// buffer empty; under DataSieve consecutive rounds share one buffer and one
// sieve window while their data fits cb and their span, from round r's first
// segment to the furthest end of the last round, fits the sieve buffer. Rounds
// without data never end a batch. Every other method writes each round alone:
// a batch would only delay naive and list calls, and the integrated sieve's
// window is the collective buffer, which an extent round already fills.
func (pl *plan) batch(r int, sieve int64) (last int, bytes int64) {
	rp := pl.agg.Round(r)
	last, bytes = r, rp.Total
	if pl.method != mpiio.DataSieve {
		return last, bytes
	}
	lo := rp.Segs[0].Off
	for k := r + 1; k < len(pl.agg.Rounds); k++ {
		next := &pl.agg.Rounds[k]
		if next.Total == 0 {
			continue
		}
		hi := lo
		for _, s := range next.Segs {
			hi = max(hi, s.End())
		}
		if bytes+next.Total > pl.cb || hi-lo > sieve {
			break
		}
		last, bytes = k, bytes+next.Total
	}
	return last, bytes
}

// roundScratch is one rank's reusable working memory for the rounds. A rank
// never holds it across a rendezvous where a peer could still read it:
// everything here is rank-private or consumed by peers before the agreement
// of the round it belongs to starts (see the ownership notes in writeRounds
// and readRounds). What a pipelined read posts for round r+1 while round r is
// still live comes in pairs, round r's at index r&1.
type roundScratch struct {
	batch   batchData         // the write batch an aggregator has received (read, never lent)
	iov     [2][][][]byte     // views this rank sends, per destination
	recvIov [][][]byte        // views this rank received, per source (point-to-point)
	waited  [][][]byte        // WaitallIov output, in request order
	reqs    [2][]*mpi.Request // receives posted for the round
	// pages is the page views a read aggregator's fill took, which split
	// deals out into the round's iov table at once: one table serves both
	// rounds a pipelined read has in flight.
	pages [][]byte
}

// roundFrame is what a write round and a read round share: the round's span
// and flight record, and this rank's first failure. (The plan is passed, not
// held: held, it would escape to the heap with the frame's contents.)
type roundFrame struct {
	f     *mpiio.File
	p     *mpi.Proc
	op    string // "write" or "read"
	amAgg bool
	// err is this rank's first failure. The rank keeps participating in the
	// round's exchange (deserting a collective would deadlock the
	// communicator); at each round boundary all ranks agree on the worst error
	// class and either all continue or all abort with the same error.
	err   error
	probe metrics.RoundProbe
	// lag waits each round's agreement at the end of the next round (the
	// pipelined strategy), so a rank works on round r+1 while slower peers are
	// still finishing round r; agree is the agreement in flight, if agreeing.
	lag, agreeing bool
	agree         mpiio.Agreement
}

// begin enters round r, which is where its rank faults fire.
func (c *roundFrame) begin(r int) {
	p := c.p
	c.f.SetRound(r)
	if c.amAgg {
		p.Trace.Begin2(p.Clock(), trace.RoundSpan,
			trace.I(trace.RoundTag, int64(r)), trace.I(trace.AggTag, int64(p.Rank())))
	} else {
		p.Trace.Begin1(p.Clock(), trace.RoundSpan, trace.I(trace.RoundTag, int64(r)))
	}
	c.probe = p.Metrics.BeginRound()
}

// fail keeps err, if it is this rank's first, naming the round whose data it
// lost: a pipelined write drains round r-1, a read-ahead fills round r+1.
func (c *roundFrame) fail(r int, err error) {
	if err != nil && c.err == nil {
		c.err = fmt.Errorf("core: %s round %d: %w", c.op, r, err)
	}
}

// end closes round r: its span, its flight record (before the agreement, so
// an aborting round's exchange traffic is still captured; recv is the merged
// realm window at an aggregator) and the boundary agreement, whose rendezvous
// also proves every peer is done with the views this rank served in the
// round. Under lag it waits for round r-1's agreement and starts round r's:
// the start is the rendezvous, so a nil return proves it all the same, while
// an error (round r-1's abort) proves nothing about round r.
func (c *roundFrame) end(pl *plan, r int, recv int64) error {
	p := c.p
	p.Trace.End(p.Clock())
	p.Metrics.EndRound(c.probe, r, c.amAgg, pl.sendBytes(r), recv)
	if !c.lag {
		return mpiio.AgreeError(p, c.err)
	}
	if err := c.settle(); err != nil {
		return err
	}
	c.agree, c.agreeing = mpiio.StartAgreement(p, c.err), true
	return nil
}

// settle waits for the agreement a lagged round left in flight, if any.
func (c *roundFrame) settle() error {
	if !c.agreeing {
		return nil
	}
	c.agreeing = false
	return c.agree.Wait()
}

// degrade reports whether an access that failed under method m is re-issued
// with naive I/O, which touches only the useful bytes, and books the re-issue
// of its n rounds with data, the last of which is r. Only sieving has
// something to fall back from.
func (i *Impl) degrade(c *roundFrame, m mpiio.Method, r int, n int64) bool {
	if (m != mpiio.DataSieve && m != mpiio.IntegratedSieve) || !i.o.Degraded {
		return false
	}
	c.p.Metrics.Add(metrics.CDegradedRounds, n)
	c.p.Trace.Instant2(c.p.Clock(), "degrade", trace.I(trace.RoundTag, int64(r)), trace.S("op", c.op))
	return true
}

// rounds runs the plan's rounds on this rank's linear stream: a write drains
// the stream into the file, a read fills it. Every rank returns the same
// error (an agreed abort) or nil.
func (i *Impl) rounds(f *mpiio.File, scr *roundScratch, cs *mpiio.Stream, pl *plan, write bool) error {
	defer f.SetRound(-1) // whichever way the rounds end, the rank leaves the last one
	if write {
		return i.writeRounds(f, scr, cs, pl)
	}
	return i.readRounds(f, scr, cs.B, pl)
}

// finish closes the call after the rounds (and whatever the planner runs
// behind them: a pre-aggregated read scatters first): journal retirement and a
// read's unpack into the user buffer. err is the rounds' outcome, uniform
// across ranks. A successful call already ended in an agreement whose start is
// a rendezvous after the last use of any view a rank lent (the last round's,
// or the scatter's), so it closes without a barrier.
func (i *Impl) finish(f *mpiio.File, stream, buf []byte, memtype datatype.Type, count int64, write bool, err error) error {
	if err != nil {
		// An abort surfaces at a wait, which is no rendezvous: peers may still
		// be placing a round or sending the one after it. Once every rank is
		// here, nothing more of the call is sent, nothing of it that was lent
		// is read, and nothing undelivered may meet the next call's receives;
		// the second barrier keeps the next call's sends behind every drop.
		p := f.Proc()
		p.Barrier()
		p.DropUndelivered()
		p.Barrier()
		return err
	}
	// Every rank is past its last Done check (the final agreement's start
	// proves it), so retiring the journal's recovery state cannot race one,
	// and the next collective on this engine starts fresh instead of skipping
	// rounds or re-reporting the failover.
	i.o.Journal.Complete()
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
	if c.k < len(views) && int64(len(views[c.k])-c.off) >= n {
		// The usual case, checked first: n bytes left in the current view.
		// A view taken to its end is left at once, so the next take of a
		// payload cut at piece boundaries is the usual case too.
		v := views[c.k][c.off : c.off+int(n)]
		if c.off += int(n); c.off == len(views[c.k]) {
			c.k, c.off = c.k+1, 0
		}
		return v
	}
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

// batchData is an aggregator's write batch read where it arrived: the
// collective buffer of rounds first..last is the plan's pieces in file order,
// each the next unread bytes of its client's views in its round. Nothing
// gathers it: it is the pfs.Source of the batch's write, which copies each
// piece once, into its page. It keeps the rounds' received view tables (the
// headers only, about one view per client run, or per memory segment of a
// lent stream, since a sender rebuilds its table for the next round), never
// a view per piece of a packed one. The views stay valid until the write:
// they are the clients' streams — pooled, or the clients' own buffers, in
// place or lent — which live until the call's closing rendezvous (an abort's
// barrier in finish).
type batchData struct {
	agg   *aggPlans
	first int
	views [][]byte     // the batch rounds' views, round by round, peer by peer
	ends  []int        // where each round's peers' views end in views
	tab   [][][]byte   // per client: its views in the round being walked
	cur   []viewCursor // per client: its read position there
	// The walk is at stream offset pos: in bytes into piece i of round r,
	// whose peers start at ends[e].
	ord     []datatype.RunItem
	pos, in int64
	r, i, e int
}

// open starts a batch of rounds first..last, its tables sized for a view per
// peer of each round.
func (b *batchData) open(agg *aggPlans, first, last, size int) {
	b.agg, b.first = agg, first
	b.tab, b.cur = sized(b.tab, size), sized(b.cur, size)
	peers := 0
	for r := first; r <= last; r++ {
		peers += len(agg.Round(r).Peers)
	}
	b.views, b.ends = slices.Grow(b.views[:0], peers), slices.Grow(b.ends[:0], peers)
	b.rewind()
}

// add keeps round rp's received views. A client whose payload is not exactly
// the bytes the plan holds for it (a damaged request that still decoded)
// fails the round, which the boundary agreement turns into an abort on every
// rank.
func (b *batchData) add(rp *roundPlan, views [][][]byte) error {
	for _, pb := range rp.Peers {
		var got int64
		for _, v := range views[pb.Client] {
			got += int64(len(v))
		}
		if got != pb.Bytes {
			return fmt.Errorf("payload of rank %d is %d bytes, %d planned", pb.Client, got, pb.Bytes)
		}
		b.views = append(b.views, views[pb.Client]...)
		b.ends = append(b.ends, len(b.views))
	}
	return nil
}

// gatheredBatches, set only by tests, writes each batch from a copy of it in
// one buffer: the reference the in-place write is compared with.
var gatheredBatches func(b *batchData, n int64) []byte

// rewind puts the walk before the batch's first round, which it enters when
// it moves.
func (b *batchData) rewind() {
	b.r, b.e, b.pos, b.i, b.ord = b.first-1, 0, 0, 0, nil
}

// release drops the batch's views, which hold its clients' streams.
func (b *batchData) release() {
	clear(b.views)
	b.views, b.ends, b.agg, b.ord = b.views[:0], b.ends[:0], nil, nil
}

// enter starts the walk of round r: its clients' views and cursors.
func (b *batchData) enter() {
	rp := b.agg.Round(b.r)
	b.ord, b.i, b.in = rp.Order, 0, 0
	for _, pb := range rp.Peers {
		lo := 0
		if b.e > 0 {
			lo = b.ends[b.e-1]
		}
		b.tab[pb.Client], b.cur[pb.Client] = b.views[lo:b.ends[b.e]], viewCursor{}
		b.e++
	}
}

// Fill copies the batch's bytes [at, at+len(dst)) into dst. A write asks for
// them in order; one that starts over (a retried window, a batch re-issued
// naive) rewalks from the start.
func (b *batchData) Fill(dst []byte, at int64) {
	if at != b.pos {
		if at < b.pos {
			b.rewind()
		}
		b.walk(nil, at-b.pos)
	}
	b.walk(dst, int64(len(dst)))
}

// walk moves the walk n bytes on, copying them into dst unless it is nil.
func (b *batchData) walk(dst []byte, n int64) {
	b.pos += n
	ord, cur, tab := b.ord, b.cur, b.tab
	i, in := b.i, b.in
	for n > 0 {
		if i == len(ord) {
			if b.r++; b.r >= len(b.agg.Rounds) {
				panic("core: write batch walked past its last round")
			}
			b.enter()
			ord, i, in = b.ord, 0, 0
			continue
		}
		it := ord[i]
		v := cur[it.Run].take(tab[it.Run], min(n, it.Len-in))
		if len(v) == 0 {
			panic("core: write batch walked past a payload add measured")
		}
		if dst != nil {
			dst = dst[copy(dst, v):]
		}
		k := int64(len(v))
		n -= k
		if in += k; in == it.Len {
			i, in = i+1, 0
		}
	}
	b.i, b.in = i, in
}

// pieceViews appends views of the stream for each round-r run of pieces:
// the iovec both transports carry by reference, with no client-side copy.
// A run is one view of a stream in a buffer, and one view per memory segment
// it touches of a lent stream (see mpiio.Stream.Views).
func pieceViews(dst [][]byte, stream *mpiio.Stream, pl *pieceLists, a, r int) [][]byte {
	for _, run := range pl.of(a, r) {
		dst = stream.Views(dst, run.at, run.n)
	}
	return dst
}

// roundIov returns round r's scratch iovec table truncated to size empty
// slots, reusing the inner slices' capacity: one per aggregator under the
// point-to-point exchanges (a slot per rank is O(P) on every rank every
// round), one per rank for the collective exchange.
func (scr *roundScratch) roundIov(r, size int) [][][]byte {
	iov := scr.iov[r&1]
	if cap(iov) < size {
		iov = make([][][]byte, size)
	}
	iov = iov[:size]
	for k := range iov {
		iov[k] = iov[k][:0]
	}
	scr.iov[r&1] = iov
	return iov
}

// split deals round r's page views (fill's) out to the clients by reference,
// each piece as the views it spans, in round r's table of slots entries; copy
// charges the modelled split into per-client messages.
func (scr *roundScratch) split(f *mpiio.File, r, slots int, rp *roundPlan, pages [][]byte, copy bool) [][][]byte {
	iov := scr.roundIov(r, slots)
	if pages == nil {
		return iov
	}
	var cur viewCursor
	for _, it := range rp.Order {
		for n := it.Len; n > 0; {
			v := cur.take(pages, n)
			if len(v) == 0 {
				panic("core: read round split past the views fill took")
			}
			iov[it.Run] = append(iov[it.Run], v)
			n -= int64(len(v))
		}
	}
	if copy {
		f.ChargeCopy(rp.Total)
	}
	return iov
}

func (i *Impl) writeRounds(f *mpiio.File, scr *roundScratch, stream *mpiio.Stream, pl *plan) error {
	p := f.Proc()
	amAgg, naggs, ntimes, method := pl.agg != nil, pl.pieces.naggs, pl.rounds, pl.method
	// Only the nonblocking strategy overlaps a round's file I/O with the next
	// round's exchange and agreement, and only it models the pack of each
	// message and the unpack into the collective buffer as copies.
	pipelined := i.o.Comm == Nonblocking
	c := roundFrame{f: f, p: p, op: "write", amAgg: amAgg, err: pl.err, lag: pipelined} // a planning failure aborts round 0
	slots := naggs
	if i.o.Comm == Alltoallw {
		slots = p.Size()
	}

	// The batch being received (see plan.batch): rounds first..last of this
	// aggregator leave in one WriteStream of size bytes once round last is
	// received (ready); n counts its rounds with data received so far. None
	// is open while first < 0. Its segments alias the (immutable) plan.
	batch := &scr.batch
	first, last, n, size, ready := -1, -1, int64(0), int64(0), false
	j := i.o.Journal
	sieve := f.Info().SieveBufSize

	// journaled reports whether every round of the batch with data is already
	// durable from the attempt that failed, and books each as skipped if so.
	// Done answers true only while the journal is resuming, so a fresh
	// collective under an unchanged realm epoch never skips its own writes.
	journaled := func() bool {
		for r := first; r <= last; r++ {
			if pl.agg.Round(r).Total > 0 && !j.Done(p.Rank(), r) {
				return false
			}
		}
		for r := first; r <= last; r++ {
			if pl.agg.Round(r).Total > 0 {
				p.Metrics.NoteReplay(0, 1)
				p.Trace.Instant1(p.Clock(), trace.RoundSkipName, trace.I(trace.RoundTag, int64(r)))
			}
		}
		return true
	}
	flush := func() {
		switch {
		case c.err != nil:
		case journaled():
		default:
			// The storage operations carry the last round whose data they
			// write, whichever round issues them, so a fault aimed at round r
			// hits the write of round r's data.
			segs, data := pl.agg.segsOf(first, last), pfs.From(batch, size)
			if gatheredBatches != nil {
				data = pfs.Bytes(gatheredBatches(batch, size))
			}
			f.TagRound(last)
			err := f.WriteStream(segs, data, method)
			if err != nil && i.degrade(&c, method, last, n) {
				err = f.WriteStream(segs, data, mpiio.Naive)
			}
			f.TagRound(p.Round())
			c.fail(last, err)
			if err == nil && p.PeerFailure() == nil {
				// Journal the rounds only while no failure is pending that
				// could abort the collective out from under them; an
				// uncommitted round merely replays (byte-identically) on resume.
				for r := first; r <= last; r++ {
					if pl.agg.Round(r).Total == 0 {
						continue
					}
					j.Commit(p.Rank(), r)
					if j.Resuming() {
						p.Metrics.NoteReplay(1, 0)
						p.Trace.Instant1(p.Clock(), trace.RoundReplayName, trace.I(trace.RoundTag, int64(r)))
					}
				}
			}
		}
		batch.release()
		first, n, ready = -1, 0, false
	}

	for r := 0; r < ntimes; r++ {
		c.begin(r)
		var roundRecv int64
		rp := &noRound
		if amAgg {
			rp = pl.agg.Round(r)
		}

		// Every strategy carries views of the stream, one per run of
		// pieces (per memory segment of a lent stream), by reference: no
		// client-side payload copy on the host. The
		// aggregators copy the table's headers into their batch before they
		// start the round's agreement, whose rendezvous every rank passes
		// before its next round, so one table (and one request list) serves
		// every round. The bytes are read until the batch is written, which
		// is before the call's closing rendezvous: the stream is recycled
		// only after it.
		send := scr.roundIov(0, slots)
		for a := 0; a < naggs; a++ {
			send[a] = pieceViews(send[a], stream, pl.pieces, a, r)
		}
		var recvIov [][][]byte
		if i.o.Comm == Alltoallw {
			iv := p.Begin1(metrics.PComm, trace.S("what", "alltoallv"))
			recvIov = p.AlltoallvIov(send)
			p.End(iv)
		} else {
			// Point-to-point: post every receive, send everything, wait.
			// The nonblocking strategy does the previous round's file I/O
			// while this round's data is in flight; the blocking one (all
			// Irecvs, all Isends, Waitall: ROMIO's exchange) overlaps
			// nothing.
			iv := p.Begin1(metrics.PComm, trace.S("what", "post+send"))
			reqs := scr.reqs[0][:0]
			for _, pb := range rp.Peers {
				reqs = append(reqs, p.Irecv(pb.Client, tagData+r%1024))
			}
			for a := 0; a < naggs; a++ {
				if n := pl.pieces.bytes(a, r); n > 0 {
					if pipelined {
						// The modelled pack of the message.
						f.ChargeCopy(n)
					}
					p.SendIov(a, tagData+r%1024, send[a])
				}
			}
			p.End(iv)

			if ready {
				flush() // pipelined: the batch its last round completed
			}

			iv = p.Begin1(metrics.PComm, trace.S("what", "waitall"))
			if amAgg {
				scr.recvIov = sized(scr.recvIov, p.Size())
				recvIov = scr.recvIov
				scr.waited = mpi.WaitallIov(reqs, scr.waited)
				for k, pb := range rp.Peers {
					recvIov[pb.Client] = scr.waited[k]
				}
			}
			p.End(iv)
			scr.reqs[0] = reqs[:0]
		}

		// A payload that arrived corrupted and exhausted its re-request
		// budget is unusable: the round's merge would shuffle damaged
		// bytes into the file. Consume the sticky failure so the boundary
		// agreement aborts every rank with ClassIntegrity.
		c.fail(r, p.TakeIntegrityFailure())

		if amAgg {
			// A dead or straggling peer the exchange surfaced left the
			// received round views incomplete: the merge below is skipped
			// and the boundary agreement aborts every rank.
			c.fail(r, p.PeerFailure())
			if c.err == nil {
				roundRecv = rp.Total
			}
			if roundRecv > 0 {
				if first < 0 {
					first = r
					last, size = pl.batch(r, sieve)
					batch.open(pl.agg, first, last, p.Size())
				}
				n++
				// The collective buffer (gap-free: only useful data) is the
				// round's views themselves; the write reads them in place.
				c.fail(r, batch.add(rp, recvIov))
				if pipelined {
					// The modelled unpack of the messages.
					f.ChargeCopy(roundRecv)
				}
				if method == mpiio.IntegratedSieve {
					// The pass that fills the integrated sieve buffer.
					f.ChargeCopy(roundRecv)
				}
				ready = r == last
				if ready && !pipelined {
					// No pipeline: write now.
					flush()
				}
			}
		}
		// (The last batch's pipelined write lands after its flight record.)
		// A pipelined round waits here for the agreement of round r-1, whose
		// data it may have flushed: a healthy aggregator may have written
		// round r-1, correct bytes, before an abort at round r-1 surfaces.
		if err := c.end(pl, r, roundRecv); err != nil {
			batch.release()
			return err
		}
	}
	if i.o.Comm == Blocking {
		return nil // every round wrote and agreed inside the loop
	}
	// The last batch's pipelined write lands outside the loop; give it its
	// own round wrapper so the critical path books the I/O to its round.
	f.SetRound(ntimes - 1)
	p.Trace.Begin1(p.Clock(), trace.RoundSpan, trace.I(trace.RoundTag, int64(ntimes-1)))
	if first >= 0 {
		flush() // a batch a failure left unready is only recycled
	}
	p.Trace.End(p.Clock())
	if err := c.settle(); err != nil {
		return err
	}
	return mpiio.AgreeError(p, c.err)
}

func (i *Impl) readRounds(f *mpiio.File, scr *roundScratch, stream []byte, pl *plan) error {
	p := f.Proc()
	amAgg, naggs, ntimes := pl.agg != nil, pl.pieces.naggs, pl.rounds
	// Only the nonblocking strategy pipelines, the write pipeline's mirror:
	// in round r an aggregator reads round r+1, splits it and sends it, and
	// every rank posts round r+1's receives, all before it waits for round r,
	// so round r+1 crosses the NICs while round r is placed; round r's
	// agreement is waited at the end of round r+1. It alone models the split
	// into per-client messages as a copy.
	pipelined := i.o.Comm == Nonblocking
	c := roundFrame{f: f, p: p, op: "read", amAgg: amAgg, err: pl.err, lag: pipelined} // a planning failure aborts round 0
	// Only an aggregator sends point-to-point, a slot per client.
	sendSlots := 0
	if amAgg || i.o.Comm == Alltoallw {
		sendSlots = p.Size()
	}

	// post puts round r on the wire point to point. Nonblocking posts its
	// receives first and waits for all of them in round r; ROMIO's read
	// exchange sends every client its pieces, then takes its own with
	// blocking receives in aggregator order.
	post := func(r int, rp *roundPlan, iov [][][]byte) {
		reqs := scr.reqs[r&1][:0]
		for a := 0; pipelined && a < naggs; a++ {
			if pl.pieces.bytes(a, r) > 0 {
				reqs = append(reqs, p.Irecv(a, tagBack+r%1024))
			}
		}
		scr.reqs[r&1] = reqs
		for _, pb := range rp.Peers {
			p.SendIov(pb.Client, tagBack+r%1024, iov[pb.Client])
		}
		if r == 0 && amAgg && pl.err != nil {
			// A request this aggregator refused left its sender waiting
			// for bytes (under ROMIO's computed round count: an agreed one
			// aborts before round 0). Every client it serves nothing gets
			// an empty payload: the sender places it as a short one, the
			// rest never receive it, and the abort drops it.
			for cl, v := range iov {
				if len(v) == 0 {
					p.Send(cl, tagBack, nil)
				}
			}
		}
	}
	var iv mpi.Interval
	comm := func(what string) { iv = p.Begin1(metrics.PComm, trace.S("what", what)) }
	commEnd := func() { p.End(iv) }

	// An aggregator serves each client views of the file's pages by
	// reference (fill's), round r's and, read ahead, round r+1's. Nothing
	// writes the file before the call's last agreement starts, a rendezvous
	// every client enters after placing its data, or an abort's barrier in
	// finish, and pages never move: there is nothing to retire.
	rp, nrp := &noRound, &noRound
	for r := 0; r < ntimes; r++ {
		c.begin(r)
		ahead := pipelined && r+1 < ntimes
		var recv [][][]byte
		// A pipelined round after the first left inside the one before.
		if r == 0 || !pipelined {
			var sendIov [][][]byte
			if r == 0 && pl.first != nil { // read and split behind the round count
				rp, sendIov = pl.first, scr.iov[0]
			} else {
				var pages [][]byte
				if amAgg {
					rp, pages = i.fill(&c, scr, pl, r)
				}
				sendIov = scr.split(f, r, sendSlots, rp, pages, pipelined)
			}
			comm("exchange")
			if i.o.Comm == Alltoallw {
				recv = p.AlltoallvIov(sendIov)
			} else {
				post(r, rp, sendIov)
			}
			if ahead {
				commEnd()
			}
		}
		if ahead {
			var pages [][]byte
			if amAgg {
				// Read ahead while round r crosses the receivers' NICs. The
				// storage operations and their span carry round r+1, but the
				// rank does not enter it: r+1's rank faults fire at its begin.
				// A failed read-ahead aborts at this round's agreement.
				f.TagRound(r + 1)
				p.Trace.Begin1(p.Clock(), trace.RoundSpan, trace.I(trace.RoundTag, int64(r+1)))
				nrp, pages = i.fill(&c, scr, pl, r+1)
				p.Trace.End(p.Clock())
				f.TagRound(r)
			}
			// Round r+1 leaves now whatever this rank's state: an aggregator
			// that failed serves fill's zeros, so what crosses the wire does
			// not depend on which rank failed first, which can vary with
			// arrival order.
			sendNext := scr.split(f, r+1, sendSlots, nrp, pages, pipelined)
			comm("waitall")
			post(r+1, nrp, sendNext)
		} else if r > 0 && pipelined {
			comm("waitall")
		}
		if i.o.Comm != Alltoallw {
			scr.recvIov = sized(scr.recvIov, naggs)
			recv = scr.recvIov
			reqs := scr.reqs[r&1]
			scr.waited = mpi.WaitallIov(reqs, scr.waited)
			k := 0
			for a := 0; a < naggs; a++ {
				if pl.pieces.bytes(a, r) == 0 {
					continue
				}
				if pipelined {
					recv[a], k = scr.waited[k], k+1
				} else {
					recv[a], _ = p.RecvIov(a, tagBack+r%1024)
				}
			}
			scr.reqs[r&1] = reqs[:0]
		}
		var placed error
		for a := 0; a < naggs; a++ {
			if err := placeIov(stream, pl.pieces, a, r, recv[a]); placed == nil {
				placed = err
			}
		}
		commEnd()

		// Read-back data that arrived corrupted past its re-request budget
		// must never reach the user buffer verified-looking: abort the
		// round uniformly with ClassIntegrity.
		c.fail(r, p.TakeIntegrityFailure())
		c.fail(r, placed)

		if err := c.end(pl, r, rp.Total); err != nil {
			return err
		}
		rp, nrp = nrp, &noRound
	}
	return c.settle()
}

// readFirst reads and splits an aggregator's round 0 before the rounds begin,
// while the round count is agreed. Its storage operations carry round 0, but
// the rank does not enter it: round 0's rank faults fire at its begin. A
// failed read seeds round 0's agreement like any planning failure.
func (i *Impl) readFirst(f *mpiio.File, scr *roundScratch, pl *plan) {
	c := roundFrame{f: f, p: f.Proc(), op: "read", amAgg: true}
	f.TagRound(0)
	rp, pages := i.fill(&c, scr, pl, 0)
	f.TagRound(-1)
	scr.split(f, 0, c.p.Size(), rp, pages, i.o.Comm == Nonblocking)
	pl.first, pl.err = rp, c.err
}

// fill reads round r's realm window and returns views of its bytes where
// they lie in the file's pages (nil for a round the realm has no data in):
// the storage requests are ReadStream's, timed and checked the same, but
// nothing is copied. A rank whose read fails, or that already holds a
// failure, still serves its clients so the round's exchange completes:
// views of the zero page, the same whichever rank failed, and the agreement
// aborts every rank before any of it reaches a user buffer.
func (i *Impl) fill(c *roundFrame, scr *roundScratch, pl *plan, r int) (*roundPlan, [][]byte) {
	f, method := c.f, pl.method
	rp := pl.agg.Round(r)
	if rp.Total == 0 {
		return rp, nil
	}
	if method == mpiio.IntegratedSieve {
		// The pass that empties the integrated sieve buffer.
		f.ChargeCopy(rp.Total)
	}
	pages := scr.pages[:0]
	if c.err == nil {
		var err error
		pages, err = f.ReadViews(rp.Segs, pages, method)
		if err != nil && i.degrade(c, method, r, 1) {
			pages, err = f.ReadViews(rp.Segs, pages, mpiio.Naive)
		}
		c.fail(r, err)
	}
	if c.err != nil {
		pages = f.FS().ZeroViews(pages[:0], rp.Total)
	}
	scr.pages = pages
	return rp, pages
}

// placeIov scatters an aggregator's round payload — views of the file's
// pages, consumed by byte count — into the client's linear stream. A dead or
// stalled aggregator's table is nil: nothing arrived, and the round's
// agreement aborts before the stream reaches the user. A payload that is not
// the bytes this client planned to receive (a damaged request that still
// decoded) is placed nowhere and fails the round.
func placeIov(stream []byte, pl *pieceLists, a, r int, views [][]byte) error {
	if views == nil {
		return nil
	}
	var got int64
	for _, v := range views {
		got += int64(len(v))
	}
	if want := pl.bytes(a, r); got != want {
		return fmt.Errorf("payload of aggregator rank %d is %d bytes, %d planned", a, got, want)
	}
	var cur viewCursor
	for _, run := range pl.of(a, r) {
		for at, n := run.at, run.n; n > 0; {
			b := cur.take(views, n)
			copy(stream[at:], b)
			at += int64(len(b))
			n -= int64(len(b))
		}
	}
	return nil
}
