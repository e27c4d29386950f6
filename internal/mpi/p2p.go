package mpi

import (
	"fmt"
	"slices"
	"sync"

	"flexio/internal/integrity"
	"flexio/internal/metrics"
	"flexio/internal/sim"
	"flexio/internal/trace"
)

// envelope is one in-flight message. Its payload is either one contiguous
// buffer (data, from Send) or a list of views of the sender's memory (iov,
// from SendIov); n is the byte count either way.
type envelope struct {
	src   int
	tag   int
	data  []byte
	iov   [][]byte
	n     int64
	stamp sim.Time // sender clock when the message left
	edge  int64    // causal edge id, shared by the send/recv trace instants
	// Integrity fields (zero when the world's checksummed datapath is
	// off). sum is the checksum of the pristine payload, computed at the
	// sender. When fault injection corrupted the payload in flight, data
	// (or iov) is a flipped copy, orig keeps the sender's pristine bytes as
	// views (the retransmit source the re-request protocol draws from), and
	// rep is how many consecutive delivery attempts arrive corrupted.
	sum  uint64
	orig [][]byte
	rep  uint8
	// next links it on its sender's stack of returned envelopes.
	next *envelope
}

// A rank recycles the envelopes it sends (not their payloads) and its
// receive requests itself, rather than through sync.Pools, which every
// garbage collection empties: with those, allocs/op followed the GC's pace,
// and with it how much memory the rest of the process retained. A rank holds
// at most as many of each as it ever had in flight at once, and they go with
// its world.

// newEnvelope takes one of this rank's free envelopes. Its receivers push
// the ones they have read onto envBack from their own goroutines; only the
// rank itself takes them off, all at once, so the stack needs no lock and
// cannot mistake a recycled head for the one it read.
func (p *Proc) newEnvelope() *envelope {
	if len(p.envs) == 0 {
		for e := p.envBack.Swap(nil); e != nil; {
			next := e.next
			e.next = nil
			p.envs = append(p.envs, e)
			e = next
		}
	}
	if n := len(p.envs); n > 0 {
		e := p.envs[n-1]
		p.envs = p.envs[:n-1]
		return e
	}
	return new(envelope)
}

// checksum sums the payload as it currently is: Sum and SumIov agree on
// equal bytes, so the cut does not matter.
func (e *envelope) checksum(ig *integrity.Hasher) uint64 {
	if e.iov != nil {
		return ig.SumIov(e.iov)
	}
	return ig.Sum(e.data)
}

// releaseEnvelope returns a read envelope to its sender (drained mailboxes
// simply drop theirs to the GC).
func (w *World) releaseEnvelope(e *envelope) {
	sender := w.procs[e.src]
	*e = envelope{}
	for {
		head := sender.envBack.Load()
		e.next = head
		if sender.envBack.CompareAndSwap(head, e) {
			return
		}
	}
}

// mailbox is a rank's unmatched-message queue with FIFO matching per
// (source, tag), mirroring MPI's non-overtaking guarantee.
type mailbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	msgs   []*envelope
	poison bool
}

func newMailbox() *mailbox {
	b := &mailbox{}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *mailbox) put(e *envelope) {
	b.mu.Lock()
	b.msgs = append(b.msgs, e)
	b.mu.Unlock()
	b.cond.Broadcast()
}

// take blocks until a message matching (src, tag) is available and removes
// it. src or tag may be Any; self is the receiving rank. When w is non-nil
// and the named source rank has crashed, take returns nil instead of
// blocking forever: the dead check runs before the scan, and a rank's
// sends happen-before its death mark, so a nil return guarantees the
// message was never sent — a dead source's already-delivered messages are
// still matched. A wildcard receive gives up once every rank but self is
// dead (no future send can satisfy it); if live ranks remain, it keeps
// waiting — the mailbox cannot know which of them the caller expects, so
// an Any receive whose intended sender crashed while others survive is
// only unblocked by the collective abort machinery (poisonAndWake), not
// here.
func (b *mailbox) take(w *World, self, src, tag int) *envelope {
	b.mu.Lock()
	defer b.mu.Unlock()
	for {
		deadSrc := false
		if w != nil && w.anyFail.Load() != 0 {
			if src != Any {
				deadSrc = w.coll.isDead(src)
			} else {
				deadSrc = !w.coll.liveOther(self)
			}
		}
		for i, e := range b.msgs {
			if (src == Any || e.src == src) && (tag == Any || e.tag == tag) {
				b.msgs = append(b.msgs[:i], b.msgs[i+1:]...)
				return e
			}
		}
		if b.poison {
			panic("mpi: rank unblocked after peer failure")
		}
		if deadSrc {
			return nil
		}
		b.cond.Wait()
	}
}

// wake rouses blocked receivers so they re-check peer liveness. Taking
// and releasing the lock before broadcasting closes the window where a
// waiter has checked liveness but not yet parked: once we hold the lock,
// every such waiter is inside Wait and will hear the broadcast.
func (b *mailbox) wake() {
	b.mu.Lock()
	//lint:ignore SA2001 holding the lock parks in-flight waiters so the broadcast reaches them
	b.mu.Unlock()
	b.cond.Broadcast()
}

func (b *mailbox) drain() {
	b.mu.Lock()
	b.msgs = nil
	b.poison = false
	b.mu.Unlock()
}

// DropUndelivered discards every message sent to this rank and not yet
// received. A collective that aborts by agreement calls it on every rank
// between two barriers: after the first nothing more of the call is sent
// (an agreement waited late is no rendezvous, and peers may still be sending
// when it aborts), before the second nothing of the next is. A rank that
// stopped expecting a payload, such as an aggregator that refused the
// sender's request or a client a read-ahead served, would otherwise match it
// in the next call, under the same tag.
func (p *Proc) DropUndelivered() {
	b := p.w.boxes[p.rank]
	b.mu.Lock()
	b.msgs = nil
	b.mu.Unlock()
}

// poisonAndWake releases blocked receivers after a peer failure.
func (b *mailbox) poisonAndWake() {
	b.mu.Lock()
	b.poison = true
	b.mu.Unlock()
	b.cond.Broadcast()
}

// Send posts data to rank `to` with the given tag. Sends are eager and
// buffered: the sender is charged only its send overhead, matching the way
// ROMIO posts all its MPI_Isends before waiting.
func (p *Proc) Send(to, tag int, data []byte) {
	p.post(to, tag, data, nil, int64(len(data)))
}

// SendIov is Send of the concatenation of iov without building it: the
// transport carries the views themselves (an MPI send of a derived
// datatype), so the receiver reads the sender's memory and the sender must
// keep every view — and the iov table — intact until a later rendezvous
// proves the receiver is done with them. Cost accounting, comm-matrix row,
// edge id, message count and fault-rule sequence are those of Send.
func (p *Proc) SendIov(to, tag int, iov [][]byte) {
	var n int64
	for _, v := range iov {
		n += int64(len(v))
	}
	p.post(to, tag, nil, iov, n)
}

// post is the one send path: exactly one of data and iov carries the n
// payload bytes.
func (p *Proc) post(to, tag int, data []byte, iov [][]byte, n int64) {
	if to < 0 || to >= p.w.size {
		panic(fmt.Sprintf("mpi: Send to invalid rank %d (size %d)", to, p.w.size))
	}
	e := p.newEnvelope()
	*e = envelope{src: p.rank, tag: tag, data: data, iov: iov, n: n}
	if ig := p.w.integ; ig != nil {
		// Checksum the pristine payload before any in-flight fault can
		// touch it: one streaming read-only pass.
		e.sum = e.checksum(ig)
		p.clock += p.w.cfg.ChecksumTime(n)
	}
	if rf := p.w.rf; rf != nil {
		p.sendSeq++
		if pen := rf.dropPenalty(p.rank, to, p.sendSeq); pen > 0 {
			// Drop with redelivery: the first copy is lost and the
			// retransmit leaves one timeout later, so the message is
			// stamped after the penalty — delivered late, not lost.
			p.clock += pen
			p.Metrics.Inc(metrics.CRedelivered)
		}
		if r, h, ok := rf.corruptHit(p.rank, to, p.sendSeq); ok && n > 0 {
			// Silent in-flight corruption: deliver a copy with one bit
			// flipped, never mutating the sender's buffer (engine iovec
			// views alias it). The pristine original rides along as the
			// retransmit source for the receiver's re-request protocol.
			if iov != nil {
				e.orig, e.iov = iov, corruptIov(iov, h, n)
			} else {
				e.orig = [][]byte{data}
				e.data = corruptIov(e.orig, h, n)[0]
			}
			e.rep = uint8(min(r, 255))
		}
	}
	p.clock += p.w.cfg.SendOverhead
	p.Metrics.Add(metrics.CCommBytes, n)
	// Edge id: the sender alone sequences its (src,dst) stream, so the id
	// is deterministic across goroutine schedules, and the receiver's
	// matching instant carries the same id via the envelope.
	size := int64(p.w.size)
	e.edge = (p.book(to, n)*size+int64(p.rank))*size + int64(to)
	p.Trace.Instant2(p.clock, trace.MsgSendName, trace.I(trace.EdgeTag, e.edge), trace.I(trace.BytesTag, n))
	e.stamp = p.clock
	p.w.boxes[to].put(e)
	if rf := p.w.rf; rf != nil {
		if p.roundSends++; rf.crashAt(crashRule{rank: p.rank, round: p.round, send: p.roundSends}) {
			p.crashNow()
		}
	}
}

// Recv blocks until a message from src (or Any) with tag (or Any) arrives.
// The receiver's clock advances to the message completion time:
// max(recv-post, send-stamp) + latency + bytes/bandwidth. Self-sends cost a
// memory copy instead of a network transfer.
//
// If the source rank crashed before sending, or — with a deadline armed —
// its message left more than the deadline after this receive was posted,
// Recv gives up at the deadline and returns nil data: the peer is
// reported through PeerFailure and the collective error agreement.
func (p *Proc) Recv(src, tag int) (data []byte, from int) {
	e, from := p.recv(p.clock, src, tag)
	if e == nil {
		return nil, from
	}
	data = asBytes(e.data, e.iov)
	p.w.releaseEnvelope(e)
	return data, from
}

// RecvIov is Recv for a payload consumed as views: it returns what SendIov
// posted, by reference (see SendIov for the lifetime rule), without
// concatenating. The transport does not promise the sender's view
// boundaries — a corrupted delivery, a re-requested original or a payload
// posted with Send arrive cut differently — so receivers must consume the
// views by byte count. A nil table reports the failures Recv reports with
// nil data.
func (p *Proc) RecvIov(src, tag int) (iov [][]byte, from int) {
	e, from := p.recv(p.clock, src, tag)
	if e == nil {
		return nil, from
	}
	iov = asViews(e.data, e.iov)
	p.w.releaseEnvelope(e)
	return iov, from
}

// recv matches and completes one receive posted at post. A nil envelope
// means the receive failed (see completeRecv); otherwise the caller takes
// the payload and releases the envelope.
func (p *Proc) recv(post sim.Time, src, tag int) (*envelope, int) {
	e := p.w.boxes[p.rank].take(p.w, p.rank, src, tag)
	if done := p.completeRecv(post, e); !done {
		return nil, src
	}
	return e, e.src
}

// asBytes returns a payload as one buffer: data itself, or the
// concatenation of iov when the sender posted views and the receiver wants
// bytes.
func asBytes(data []byte, iov [][]byte) []byte {
	if iov == nil {
		return data
	}
	var n int
	for _, v := range iov {
		n += len(v)
	}
	out := make([]byte, 0, n)
	for _, v := range iov {
		out = append(out, v...)
	}
	return out
}

// asViews returns a payload as a view table: iov itself, or data wrapped in
// a one-row table when the sender posted bytes and the receiver wants views.
func asViews(data []byte, iov [][]byte) [][]byte {
	if iov == nil {
		return [][]byte{data}
	}
	return iov
}

// completeRecv finishes a matched (or abandoned) receive posted at post.
// It returns false when the receive failed — the source is dead or its
// message tripped the deadline — in which case the envelope (if any) has
// been released, the clock charged up to the deadline, and the peer
// flagged.
func (p *Proc) completeRecv(post sim.Time, e *envelope) bool {
	if e == nil {
		// Crashed peer: this rank waited the full detection timeout.
		p.SyncClock(post + p.w.coll.deadline)
		p.noteVer(p.w.coll.ver())
		return false
	}
	if d := p.w.coll.deadline; d > 0 && e.src != p.rank && e.stamp > post+d {
		// The message left the (live) sender after this rank's patience
		// ran out: a straggler. Give up at the deadline, flag the peer,
		// and drop the payload — the round is aborted by agreement.
		p.SyncClock(post + d)
		p.w.coll.markSuspect(e.src)
		p.noteVer(p.w.coll.ver())
		p.w.releaseEnvelope(e)
		return false
	}
	p.SyncClock(p.arrivalTime(post, e))
	if ig := p.w.integ; ig != nil {
		// Verify on every delivery — including redelivered copies that
		// sat in the mailbox: a corrupted payload must never be trusted
		// just because its envelope was matched before.
		p.clock += p.w.cfg.ChecksumTime(e.n)
		if e.checksum(ig) != e.sum && !p.reRequest(e) {
			p.w.releaseEnvelope(e)
			return false
		}
	}
	var blocked int64
	if e.stamp > post {
		blocked = 1 // the sender's departure, not our post, gated delivery
	}
	p.Trace.Instant2(p.clock, trace.MsgRecvName, trace.I(trace.EdgeTag, e.edge), trace.I(trace.BlockedTag, blocked))
	return true
}

// reRequest retransmits a payload whose wire checksum failed (see
// retransmit), charging the attempts to the clock. A clean copy swaps the
// pristine bytes in; an envelope that carries none fails every attempt.
func (p *Proc) reRequest(e *envelope) bool {
	rep := int(e.rep)
	if e.orig == nil {
		rep = integrity.MaxReRequests + 1
	}
	if !p.retransmit(&p.clock, e.src, e.n, rep) {
		return false
	}
	if e.iov != nil {
		e.iov = e.orig
	} else {
		e.data = e.orig[0]
	}
	return true
}

// retransmit models the bounded retransmit protocol for n bytes from src
// that failed their checksum: the receiver NACKs the sender and pulls a
// fresh copy, up to integrity.MaxReRequests times, adding each attempt — a
// round trip plus the payload on the link the bytes used — to *at. The
// copy of attempt rep is the first clean one. A corruption outliving the
// bound leaves the sticky integrity error armed for the engines' error
// agreement.
func (p *Proc) retransmit(at *sim.Time, src int, n int64, rep int) bool {
	l := p.link(src)
	for attempt := 1; attempt <= integrity.MaxReRequests; attempt++ {
		switch l {
		case linkSelf:
			*at += p.w.cfg.MemcpyTime(n)
		case linkNode:
			*at += 2*p.w.cfg.IntraNodeHopLatency() + p.w.cfg.IntraNodeTransferTime(n)
		default:
			*at += 2*p.w.cfg.NetLatency + p.w.cfg.TransferTime(n)
		}
		if attempt >= rep {
			p.Metrics.NoteWireIntegrity(true)
			return true
		}
	}
	p.Metrics.NoteWireIntegrity(false)
	p.noteIntegrityFailure(src)
	return false
}

// link is the path bytes take between two ranks.
type link uint8

const (
	linkSelf link = iota // a rank to itself: a memory copy
	linkNode             // two ranks the node map places on one node: shared memory
	linkNet              // different nodes: the network, through the receiver's NIC
)

// link returns the path between this rank and peer under the installed
// node map: the one rule every transfer is priced by.
func (p *Proc) link(peer int) link {
	switch {
	case peer == p.rank:
		return linkSelf
	case p.w.node(peer) == p.w.node(p.rank):
		return linkNode
	}
	return linkNet
}

// arrivalTime computes when a message posted for receive at `post` is fully
// delivered. Remote transfers occupy the receiver's link back to back, so
// concurrent senders to one rank serialize on its NIC. Messages between two
// ranks the node map places on the same node never touch the NIC: they move
// at the intra-node (shared-memory) bandwidth and latency instead of the
// network's, which is what makes node-local pre-aggregation near-free under
// the topology-aware cost model.
func (p *Proc) arrivalTime(post sim.Time, e *envelope) sim.Time {
	start := sim.Max(post, e.stamp)
	switch p.link(e.src) {
	case linkSelf:
		return start + p.w.cfg.MemcpyTime(e.n)
	case linkNode:
		return start + p.w.cfg.IntraNodeTransferTime(e.n) +
			p.w.cfg.IntraNodeHopLatency()
	}
	start = sim.Max(start, p.nicBusy)
	p.nicBusy = start + p.w.cfg.TransferTime(e.n)
	return p.nicBusy + p.w.cfg.NetLatency
}

// Request is a nonblocking receive handle (sends are eager and need none).
type Request struct {
	p    *Proc
	done bool
	src  int
	tag  int
	post sim.Time // clock when the receive was posted
	// A completed receive holds its payload the way it travelled: data
	// from Send, iov from SendIov, both nil when the receive failed.
	data []byte
	iov  [][]byte
	from int
	ok   bool
}

// Irecv posts a nonblocking receive. The matching and transfer are resolved
// at Wait time, but the transfer is modelled as starting at the later of
// the post time and the send time — computation between Irecv and Wait
// overlaps the transfer, which is how the new implementation hides address
// computation behind communication (paper §5.4).
//
// The request comes from the rank's own free requests, which WaitallInto,
// called by the same rank, refills; a request completed by WaitallInto must
// not be touched again. Requests waited directly via Wait stay with the
// caller and fall to the GC.
func (p *Proc) Irecv(src, tag int) *Request {
	var r *Request
	if n := len(p.reqs); n > 0 {
		r, p.reqs = p.reqs[n-1], p.reqs[:n-1]
	} else {
		r = new(Request)
	}
	*r = Request{p: p, src: src, tag: tag, post: p.clock}
	return r
}

// complete finishes the request (once): a receive is matched and its
// payload moved into the request. ok is false for sends and for receives
// that failed.
func (r *Request) complete() (ok bool) {
	if !r.done {
		r.done = true
		e, from := r.p.recv(r.post, r.src, r.tag)
		r.from = from
		if e != nil {
			r.data, r.iov = e.data, e.iov
			r.p.w.releaseEnvelope(e)
			r.ok = true
		}
	}
	return r.ok
}

// Wait completes the receive and returns its data and source;
// nil data with the posted source means the peer crashed or tripped the
// deadline (see Recv).
func (r *Request) Wait() (data []byte, from int) {
	if r.complete() {
		// Views wanted as bytes are concatenated once and kept.
		r.data, r.iov = asBytes(r.data, r.iov), nil
	}
	return r.data, r.from
}

// waitIov completes the request like Wait but returns the payload as views
// (see RecvIov); a nil table reports a failed receive.
func (r *Request) waitIov() [][]byte {
	if r.complete() {
		r.data, r.iov = nil, asViews(r.data, r.iov)
	}
	return r.iov
}

// WaitallInto completes a set of requests and returns the received payloads
// in request order in caller scratch: out is resized
// to len(reqs) (reusing its capacity) and returned, so a round loop waits
// without allocating. It consumes the requests: each is released back to the
// pool and its slot nilled, so callers must not Wait on them again.
func WaitallInto(reqs []*Request, out [][]byte) [][]byte {
	out = slices.Grow(out[:0], len(reqs))[:len(reqs)]
	for i, r := range reqs {
		out[i] = nil
		if r != nil {
			out[i], _ = r.Wait()
			retire(reqs, i)
		}
	}
	return out
}

// WaitallIov is WaitallInto for payloads consumed as views: out[i] is
// request i's view table (nil for a failed receive).
func WaitallIov(reqs []*Request, out [][][]byte) [][][]byte {
	out = slices.Grow(out[:0], len(reqs))[:len(reqs)]
	for i, r := range reqs {
		out[i] = nil
		if r != nil {
			out[i] = r.waitIov()
			retire(reqs, i)
		}
	}
	return out
}

// retire releases a completed request back to the pool and nils its slot.
func retire(reqs []*Request, i int) {
	r := reqs[i]
	p := r.p
	*r = Request{}
	p.reqs = append(p.reqs, r)
	reqs[i] = nil
}
