package mpi

import (
	"math"
	"slices"
	"sync"

	"flexio/internal/integrity"
	"flexio/internal/metrics"
	"flexio/internal/sim"
	"flexio/internal/stats"
	"flexio/internal/trace"
)

// collSync implements a reusable all-ranks rendezvous: every collective is
// built on one round of "deposit a value, wait for everyone, read the
// snapshot". The snapshot also carries the maximum entering clock, which
// models the inherent synchronization of collective operations.
//
// The rendezvous is liveness-aware: a publish waits only for the ranks
// still marked live, so a crashed rank (markDead) releases its peers
// instead of deadlocking them, and — when a deadline is armed — a live
// rank whose entering clock trails the earliest arrival by more than the
// deadline is flagged suspect and its clock contribution capped, modelling
// survivors that stop waiting at the timeout. Every publish carries a
// failure version (failVer): ranks compare it against the last version
// they saw to learn about deaths and suspects at the same rendezvous,
// which is what makes the abort decision collective.
type collSync struct {
	mu        sync.Mutex
	cond      *sync.Cond
	size      int
	gen       int
	arrived   int
	vals      []interface{}
	clocks    []sim.Time
	snapVals  []interface{}
	i64vals   []int64
	snapI64   []int64
	snapMax   sim.Time
	snapVer   uint64
	snapBy    int // rank whose (capped) clock set snapMax; first max wins
	poisoned  bool
	kindI64   bool
	deadline  sim.Time // 0 = no deadline guard
	live      []bool
	suspect   []bool // sticky straggler flags
	deposited []bool
	failVer   uint64
	deadCount int
	suspCount int
	// deathPending makes the first publish after a death charge the
	// detection timeout: survivors sat at the rendezvous until the
	// deadline expired before concluding the rank was gone.
	deathPending bool
}

// deadlineTie is the share of the deadline by which an arrival may exceed it
// and still count as on time: far above the rounding of clocks summed in
// different orders, far below anything a rank does.
const deadlineTie = 1e-9

func newCollSync(size int) *collSync {
	c := &collSync{
		size:      size,
		vals:      make([]interface{}, size),
		clocks:    make([]sim.Time, size),
		i64vals:   make([]int64, size),
		snapI64:   make([]int64, size),
		live:      make([]bool, size),
		suspect:   make([]bool, size),
		deposited: make([]bool, size),
	}
	for i := range c.live {
		c.live[i] = true
	}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// poison unblocks all waiters after a rank panic so the failure surfaces
// instead of deadlocking the test binary.
func (c *collSync) poison() {
	c.mu.Lock()
	c.poisoned = true
	c.mu.Unlock()
	c.cond.Broadcast()
}

// setDeadline arms (or with 0 disarms) the rendezvous deadline.
func (c *collSync) setDeadline(d sim.Time) {
	c.mu.Lock()
	c.deadline = d
	c.mu.Unlock()
}

// markDead records rank's crash and, if a rendezvous was only waiting on
// it, publishes so the survivors proceed. Called from the dying rank's own
// goroutine, which is never deposited-and-waiting at that moment — so the
// death always lands between generations, at the same generation on every
// run: detection is deterministic.
func (c *collSync) markDead(rank int) {
	c.mu.Lock()
	if c.live[rank] {
		c.live[rank] = false
		c.deadCount++
		c.failVer++
		c.deathPending = true
		c.tryPublish()
	}
	c.mu.Unlock()
	c.cond.Broadcast()
}

// markSuspect flags rank as a straggler (sticky). Suspects stay live —
// they still rendezvous — but every rank learns about them through the
// failure version and escalates via the error agreement.
func (c *collSync) markSuspect(rank int) {
	c.mu.Lock()
	if c.live[rank] && !c.suspect[rank] {
		c.suspect[rank] = true
		c.suspCount++
		c.failVer++
	}
	c.mu.Unlock()
}

// isDead reports whether rank has crashed.
func (c *collSync) isDead(rank int) bool {
	c.mu.Lock()
	d := !c.live[rank]
	c.mu.Unlock()
	return d
}

// liveOther reports whether any rank other than self is still live —
// i.e. whether a wildcard (Any-source) receive could still be satisfied
// by a future send. Self is excluded: sends are eager, so a pending
// self-send already sits in the mailbox and is matched by the scan rather
// than awaited.
func (c *collSync) liveOther(self int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for r := 0; r < c.size; r++ {
		if r != self && c.live[r] {
			return true
		}
	}
	return false
}

// ver returns the current failure version.
func (c *collSync) ver() uint64 {
	c.mu.Lock()
	v := c.failVer
	c.mu.Unlock()
	return v
}

// failureSets returns the crashed and suspect rank lists in rank order.
// Allocates; only called on the failure path.
func (c *collSync) failureSets() (dead, suspects []int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for r := 0; r < c.size; r++ {
		if !c.live[r] {
			dead = append(dead, r)
		} else if c.suspect[r] {
			suspects = append(suspects, r)
		}
	}
	return dead, suspects
}

// revive resets all liveness state so the world can run a recovery
// attempt: every rank live again, no suspects, failure version back to
// zero, any half-collected generation discarded.
func (c *collSync) revive() {
	c.mu.Lock()
	for i := range c.live {
		c.live[i] = true
		c.suspect[i] = false
		c.deposited[i] = false
		c.vals[i] = nil
	}
	c.arrived = 0
	c.deadCount = 0
	c.suspCount = 0
	c.failVer = 0
	c.snapVer = 0
	c.deathPending = false
	c.mu.Unlock()
}

// tryPublish publishes the snapshot if every live rank has deposited.
// Caller holds c.mu.
func (c *collSync) tryPublish() {
	if c.arrived == 0 {
		return
	}
	for r := 0; r < c.size; r++ {
		if c.live[r] && !c.deposited[r] {
			return
		}
	}
	// Deadline guard: the earliest arrival defines the wait origin; any
	// live rank arriving more than the deadline later is a straggler.
	// Its clock contribution is capped at origin+deadline — survivors do
	// not wait past the timeout — and it is flagged suspect so the
	// failure version changes under everyone at this same publish. A rank
	// that waited out one detection timeout for a dead peer, from the clock
	// another rank enters with, arrives exactly one deadline after it: a
	// tie, which float rounding must not turn into a straggler.
	var base sim.Time
	if c.deadline > 0 {
		first := true
		for r := 0; r < c.size; r++ {
			if c.live[r] && c.deposited[r] && (first || c.clocks[r] < base) {
				base, first = c.clocks[r], false
			}
		}
		late := base + c.deadline*(1+deadlineTie)
		for r := 0; r < c.size; r++ {
			if c.live[r] && c.deposited[r] && c.clocks[r] > late && !c.suspect[r] {
				c.suspect[r] = true
				c.suspCount++
				c.failVer++
			}
		}
	}
	var m sim.Time
	by := -1
	for r := 0; r < c.size; r++ {
		if !c.live[r] || !c.deposited[r] {
			continue
		}
		t := c.clocks[r]
		if c.deadline > 0 && t > base+c.deadline {
			t = base + c.deadline
		}
		if t > m || by < 0 {
			m = t
			by = r
		}
	}
	if c.deathPending {
		// Survivors waited out one detection timeout for the rank that
		// died since the last publish.
		m += c.deadline
		c.deathPending = false
	}
	if c.kindI64 {
		copy(c.snapI64, c.i64vals)
		for r := 0; r < c.size; r++ {
			if !c.live[r] || !c.deposited[r] {
				c.snapI64[r] = 0
			}
		}
	} else {
		snap := make([]interface{}, c.size)
		for r := 0; r < c.size; r++ {
			if c.live[r] && c.deposited[r] {
				snap[r] = c.vals[r]
			}
		}
		c.snapVals = snap
	}
	c.snapMax = m
	c.snapVer = c.failVer
	c.snapBy = by
	c.arrived = 0
	for r := 0; r < c.size; r++ {
		c.deposited[r] = false
		c.vals[r] = nil
	}
	c.gen++
	c.cond.Broadcast()
}

// exchange deposits val for this rank and returns every rank's value
// (crashed ranks' slots are nil), the snapshot clock, the failure version
// at publish time, the rendezvous generation (the same on every
// participating rank, so trace instants tagged with it pair up across
// tracks), and the rank whose arrival released the rendezvous.
func (c *collSync) exchange(rank int, clock sim.Time, val interface{}) ([]interface{}, sim.Time, uint64, int, int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	gen := c.gen
	c.vals[rank] = val
	c.clocks[rank] = clock
	c.deposited[rank] = true
	c.arrived++
	c.kindI64 = false
	c.tryPublish()
	for c.gen == gen && !c.poisoned {
		c.cond.Wait()
	}
	if c.poisoned {
		panic("mpi: collective aborted after peer failure")
	}
	return c.snapVals, c.snapMax, c.snapVer, gen, c.snapBy
}

// exchangeInt64 is exchange specialized to one int64 per rank. It reuses
// persistent deposit and snapshot buffers — no interface boxing, no
// per-generation allocation. Reuse is safe because the next generation's
// snapshot is only published once every rank has deposited again, which
// each rank does only after it finished reading the current one. The
// returned slice is that shared snapshot: callers must copy out what they
// keep and must not write to it. Crashed ranks' slots read zero.
func (c *collSync) exchangeInt64(rank int, clock sim.Time, val int64) ([]int64, sim.Time, uint64, int, int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	gen := c.gen
	c.i64vals[rank] = val
	c.clocks[rank] = clock
	c.deposited[rank] = true
	c.arrived++
	c.kindI64 = true
	c.tryPublish()
	for c.gen == gen && !c.poisoned {
		c.cond.Wait()
	}
	if c.poisoned {
		panic("mpi: collective aborted after peer failure")
	}
	return c.snapI64, c.snapMax, c.snapVer, gen, c.snapBy
}

// log2ceil returns ceil(log2(n)), at least 1 for n > 1 and 0 for n <= 1.
func log2ceil(n int) int {
	if n <= 1 {
		return 0
	}
	return int(math.Ceil(math.Log2(float64(n))))
}

// treeLatency is the synchronization cost of a binomial-tree collective.
func (p *Proc) treeLatency() sim.Time {
	return sim.Time(float64(log2ceil(p.w.size))*p.w.cfg.CollLatencyFactor) * p.w.cfg.NetLatency
}

// traceColl records the paired rendezvous instants for one collective:
// enter at the clock this rank arrived with, exit at its release clock
// (p.clock — call after the clock update; both pushes stay in timestamp
// order because nothing else is recorded in between). seq is the
// world-global rendezvous generation, identical on every participating
// rank, so the instants pair up across tracks; by is the rank whose late
// arrival released everyone.
func (p *Proc) traceColl(enter sim.Time, seq, by int) {
	if p.Trace == nil {
		return
	}
	p.Trace.Instant1(enter, trace.CollEnterName, trace.I(trace.SeqTag, int64(seq)))
	p.Trace.Instant2(p.clock, trace.CollExitName, trace.I(trace.SeqTag, int64(seq)), trace.I(trace.ByTag, int64(by)))
}

// recordVectorRow accounts one per-destination row of a vector collective
// (alltoallv/w, allgather, bcast) into the communication matrix and — when
// inside a two-phase round — the inter/intra-node shuffle split. Empty
// rows are skipped so message counts stay meaningful.
func (p *Proc) recordVectorRow(dst int, n int64) {
	if n == 0 {
		return
	}
	shuffle := p.round >= 0
	if shuffle {
		if p.w.node(p.rank) == p.w.node(dst) {
			p.Metrics.Add(metrics.CShuffleIntraNodeBytes, n)
		} else {
			p.Metrics.Add(metrics.CShuffleInterNodeBytes, n)
		}
	}
	if m := p.w.comm; m != nil {
		m.add(p.rank, dst, n, shuffle)
	}
}

// Barrier synchronizes all ranks: every clock advances to the maximum
// entering clock plus a binomial-tree latency term.
func (p *Proc) Barrier() {
	p.preRendezvous()
	enter := p.clock
	_, m, ver, seq, by := p.w.coll.exchange(p.rank, p.clock, nil)
	p.clock = sim.Max(p.clock, m) + p.treeLatency()
	p.traceColl(enter, seq, by)
	p.noteVer(ver)
}

// Allgather collects every rank's buffer; result[i] is rank i's
// contribution (nil for crashed ranks).
func (p *Proc) Allgather(data []byte) [][]byte {
	p.preRendezvous()
	enter := p.clock
	vals, m, ver, seq, by := p.w.coll.exchange(p.rank, p.clock, data)
	out := make([][]byte, p.w.size)
	var others int64
	for i, v := range vals {
		b, _ := v.([]byte)
		out[i] = b
		if i != p.rank {
			others += int64(len(b))
			p.recordVectorRow(i, int64(len(data)))
		}
	}
	p.clock = sim.Max(p.clock, m) + p.treeLatency() + p.w.cfg.TransferTime(others)
	p.Stats.Add(stats.CBytesComm, others)
	p.Metrics.Add(metrics.CCommBytes, others)
	p.traceColl(enter, seq, by)
	p.noteVer(ver)
	return out
}

// AllgatherInt64Into is Allgather for a single int64 per rank, gathering
// into caller scratch (len must be the world size) so hot paths can reuse a
// buffer. Crashed
// ranks' slots read zero; callers that need to tell "zero" from "dead"
// consult PeerFailure after the call.
func (p *Proc) AllgatherInt64Into(v int64, out []int64) {
	p.preRendezvous()
	enter := p.clock
	snap, m, ver, seq, by := p.w.coll.exchangeInt64(p.rank, p.clock, v)
	copy(out, snap)
	p.clock = sim.Max(p.clock, m) + p.treeLatency() + p.w.cfg.TransferTime(int64(8*(p.w.size-1)))
	p.traceColl(enter, seq, by)
	p.noteVer(ver)
}

// AllreduceRequest is a split-phase int64 allreduce (MPI_Iallreduce): the
// rendezvous ran when it was started, in host order where a blocking
// allreduce would have run, so collective sequence numbers, the crash rules
// keyed on them and the deadline guard over deposit clocks do not depend on
// when it is waited. It completes in the background: at the later of this
// rank's clock at start and the latest entering clock, plus the tree latency
// and the transfer of the folded values. Wait pays only what is left of that,
// applies the failure version it published and records its exit instant. The
// zero value is not a request.
type AllreduceRequest struct {
	p       *Proc
	acc     int64
	start   sim.Time // this rank's clock when it entered the rendezvous
	max     sim.Time // the rendezvous's maximum entering clock
	ver     uint64   // the failure version the rendezvous published
	seq, by int
}

// IallreduceMaxInt64 starts an allreduce of the maximum of v across ranks:
// it deposits v at the rendezvous and folds the snapshot under its return,
// allocating nothing. The rank's clock does not move.
func (p *Proc) IallreduceMaxInt64(v int64) AllreduceRequest {
	p.preRendezvous()
	snap, m, ver, seq, by := p.w.coll.exchangeInt64(p.rank, p.clock, v)
	p.Trace.Instant1(p.clock, trace.CollEnterName, trace.I(trace.SeqTag, int64(seq)))
	return AllreduceRequest{p: p, acc: slices.Max(snap), start: p.clock, max: m, ver: ver, seq: seq, by: by}
}

// Wait completes the allreduce and returns its result. The clock moves to
// the later of the rank's clock now and the allreduce's completion, so a wait
// issued right after the start costs exactly what a blocking allreduce does
// and one issued after the completion costs nothing; then the published
// failure version is applied (PeerFailure).
func (r AllreduceRequest) Wait() int64 {
	p := r.p
	done := sim.Max(r.start, r.max) + p.treeLatency() + p.w.cfg.TransferTime(int64(8*(p.w.size-1)))
	p.clock = sim.Max(p.clock, done)
	p.Trace.Instant2(p.clock, trace.CollExitName, trace.I(trace.SeqTag, int64(r.seq)), trace.I(trace.ByTag, int64(r.by)))
	p.noteVer(r.ver)
	return r.acc
}

// PeerFailed reports whether the failure version the allreduce's rendezvous
// published names a crashed or stalled rank. Every rank of the rendezvous
// reads the same answer, whatever it observed since (a receive between start
// and Wait may have revealed a later failure to it alone).
func (r AllreduceRequest) PeerFailed() bool { return r.ver != 0 }

// AllreduceMaxInt64 returns the maximum of v across ranks.
func (p *Proc) AllreduceMaxInt64(v int64) int64 {
	return p.IallreduceMaxInt64(v).Wait()
}

// Alltoallv exchanges per-destination buffers: send[d] goes to rank d, and
// the result's entry s is the buffer rank s sent here. Entries may be nil
// (crashed ranks' rows always are). Each rank's clock advances by the tree
// latency plus the transfer time of the larger of its total send and total
// receive volume, modelling a well-scheduled exchange (MPI_Alltoallv /
// MPI_Alltoallw).
func (p *Proc) Alltoallv(send [][]byte) [][]byte {
	if len(send) != p.w.size {
		panic("mpi: Alltoallv send slice must have one entry per rank")
	}
	p.preRendezvous()
	enter := p.clock
	vals, m, ver, seq, by := p.w.coll.exchange(p.rank, p.clock, send)
	out := make([][]byte, p.w.size)
	var vol vectorVolume
	for d, b := range send {
		p.recordVectorRow(d, int64(len(b)))
		vol.addSend(p, d, int64(len(b)))
	}
	var extra sim.Time
	var rbytes int64
	for s, v := range vals {
		row, ok := v.([][]byte)
		if !ok {
			continue // crashed rank: leave out[s] nil
		}
		out[s] = row[p.rank]
		n := int64(len(out[s]))
		vol.addRecv(p, s, n)
		rbytes += n
		if rf := p.w.rf; rf != nil && n > 0 {
			if rep, h, hit := rf.corruptHit(s, p.rank, int64(seq)); hit {
				d, fixed, silent := p.rowCorruption(s, n, rep)
				extra += d
				if silent {
					bad := make([]byte, n)
					copy(bad, out[s])
					bit := h % uint64(n*8)
					bad[bit/8] ^= 1 << (bit % 8)
					out[s] = bad
				} else if !fixed {
					out[s] = nil
				}
			}
		}
	}
	p.clock = sim.Max(p.clock, m) + p.treeLatency() + vol.transferTime(p)
	if p.w.integ != nil {
		// Checksumming the outgoing rows and verifying the incoming ones
		// is one streaming pass over each, priced like a memcpy.
		extra += p.w.cfg.MemcpyTime(vol.sent() + rbytes)
	}
	p.clock += extra
	p.Stats.Add(stats.CBytesComm, vol.sent())
	p.Metrics.Add(metrics.CCommBytes, vol.sent())
	p.traceColl(enter, seq, by)
	p.noteVer(ver)
	return out
}

// rowCorruption resolves one corrupted vector-collective row for the
// receiver. With the checksummed datapath off it reports silent=true: the
// caller delivers a flipped copy and nobody notices. With it on, the
// receiver detects the mismatch at the rendezvous and runs the bounded
// re-request protocol against the row's sender; the returned charge is
// the modelled retransmit latency, and fixed reports whether a clean copy
// arrived within the bound (the caller's aliased row is already pristine
// — the flipped copy only ever existed in flight). An unrepairable row
// arms the sticky integrity error, exactly like the envelope path.
func (p *Proc) rowCorruption(src int, n int64, rep int) (charge sim.Time, fixed, silent bool) {
	if p.w.integ == nil {
		return 0, false, true
	}
	intra := src != p.rank && p.w.node(src) == p.w.node(p.rank)
	for attempt := 1; attempt <= integrity.MaxReRequests; attempt++ {
		switch {
		case src == p.rank:
			charge += p.w.cfg.MemcpyTime(n)
		case intra:
			charge += 2*p.w.cfg.IntraNodeHopLatency() + p.w.cfg.IntraNodeTransferTime(n)
		default:
			charge += 2*p.w.cfg.NetLatency + p.w.cfg.TransferTime(n)
		}
		if attempt >= rep {
			p.Metrics.NoteWireIntegrity(true)
			return charge, true, false
		}
	}
	p.Metrics.NoteWireIntegrity(false)
	p.noteIntegrityFailure(src)
	return charge, false, false
}

// vectorVolume accumulates a vector collective's per-destination byte
// counts split by the node map, so inter-node traffic pays the network
// price while same-node rows move at the intra-node bandwidth.
type vectorVolume struct {
	sentInter, sentIntra   int64
	recvdInter, recvdIntra int64
}

func (v *vectorVolume) addSend(p *Proc, dst int, n int64) {
	if dst == p.rank {
		return
	}
	if p.w.node(p.rank) == p.w.node(dst) {
		v.sentIntra += n
	} else {
		v.sentInter += n
	}
}

func (v *vectorVolume) addRecv(p *Proc, src int, n int64) {
	if src == p.rank {
		return
	}
	if p.w.node(p.rank) == p.w.node(src) {
		v.recvdIntra += n
	} else {
		v.recvdInter += n
	}
}

func (v *vectorVolume) sent() int64 { return v.sentInter + v.sentIntra }

// transferTime prices the exchange as the sum of the two links' bottleneck
// volumes: the NIC carries max(sent, received) inter-node bytes while the
// shared-memory path carries max(sent, received) same-node bytes.
func (v *vectorVolume) transferTime(p *Proc) sim.Time {
	inter := v.sentInter
	if v.recvdInter > inter {
		inter = v.recvdInter
	}
	intra := v.sentIntra
	if v.recvdIntra > intra {
		intra = v.recvdIntra
	}
	return p.w.cfg.TransferTime(inter) + p.w.cfg.IntraNodeTransferTime(intra)
}

// AlltoallvIov is Alltoallv with iovec-style payloads: send[d] is a list
// of segments for rank d, gathered by the transport without the sender
// concatenating them first (MPI_Alltoallw with derived types). out[s] is
// the segment list rank s sent here, aliasing the sender's memory — the
// receiver must consume it before the sender reuses those buffers, which
// the collective engines guarantee by recycling only at rendezvous
// boundaries. Crashed ranks' rows are nil. Cost accounting is identical
// to Alltoallv for the same total bytes.
func (p *Proc) AlltoallvIov(send [][][]byte) [][][]byte {
	if len(send) != p.w.size {
		panic("mpi: AlltoallvIov send slice must have one entry per rank")
	}
	p.preRendezvous()
	enter := p.clock
	vals, m, ver, seq, by := p.w.coll.exchange(p.rank, p.clock, send)
	out := make([][][]byte, p.w.size)
	var vol vectorVolume
	for d, iov := range send {
		var row int64
		for _, b := range iov {
			row += int64(len(b))
		}
		p.recordVectorRow(d, row)
		vol.addSend(p, d, row)
	}
	var extra sim.Time
	var rbytes int64
	for s, v := range vals {
		row, ok := v.([][][]byte)
		if !ok {
			continue // crashed rank: leave out[s] nil
		}
		out[s] = row[p.rank]
		var got int64
		for _, b := range out[s] {
			got += int64(len(b))
		}
		vol.addRecv(p, s, got)
		rbytes += got
		if rf := p.w.rf; rf != nil && got > 0 {
			if rep, h, hit := rf.corruptHit(s, p.rank, int64(seq)); hit {
				d, fixed, silent := p.rowCorruption(s, got, rep)
				extra += d
				if silent {
					out[s] = corruptIov(out[s], h, got)
				} else if !fixed {
					out[s] = nil
				}
			}
		}
	}
	p.clock = sim.Max(p.clock, m) + p.treeLatency() + vol.transferTime(p)
	if p.w.integ != nil {
		extra += p.w.cfg.MemcpyTime(vol.sent() + rbytes)
	}
	p.clock += extra
	p.Stats.Add(stats.CBytesComm, vol.sent())
	p.Metrics.Add(metrics.CCommBytes, vol.sent())
	p.traceColl(enter, seq, by)
	p.noteVer(ver)
	return out
}

// corruptIov returns a copy of an iovec row with one bit flipped in the
// segment covering the hashed bit position. Only the corrupted segment's
// bytes are copied (plus the slice header row): the sender's memory is
// never mutated, and the untouched segments still alias it.
func corruptIov(row [][]byte, bitHash uint64, total int64) [][]byte {
	out := make([][]byte, len(row))
	copy(out, row)
	bit := int64(bitHash % uint64(total*8))
	for i, seg := range out {
		segBits := int64(len(seg)) * 8
		if bit < segBits {
			bad := make([]byte, len(seg))
			copy(bad, seg)
			bad[bit/8] ^= 1 << (bit % 8)
			out[i] = bad
			break
		}
		bit -= segBits
	}
	return out
}
