// Package mpi is an in-process simulation of the MPI runtime features the
// collective I/O implementations need: ranks with private virtual clocks,
// eager point-to-point messaging with tag matching, nonblocking requests
// whose completion times credit communication/computation overlap, and the
// collective operations (barrier, bcast, allgather, allreduce, alltoallv/w)
// used by two-phase I/O.
//
// Each rank is a goroutine that, like an MPI process, outlives its calls: a
// world's first Run starts one per rank, every later Run hands each its
// Proc, so a warm collective call allocates nothing, and the goroutines end
// once the world is garbage (see rankGate).
//
// Time is virtual (sim.Time): sending, receiving, computing and file system
// access advance a rank's clock according to the sim.Config cost model, so
// "bandwidth" measured over virtual time responds to the same effects the
// paper measures — message counts, request sizes, serialized computation,
// and server contention — without real hardware.
package mpi

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"

	"flexio/internal/integrity"
	"flexio/internal/metrics"
	"flexio/internal/sim"
	"flexio/internal/stats"
	"flexio/internal/trace"
)

// Any matches any source rank or any tag in Recv/Irecv.
const Any = -1

// World is a communicator: a fixed set of ranks sharing mailboxes and
// collective state.
type World struct {
	size  int
	cfg   *sim.Config
	boxes []*mailbox
	coll  *collSync
	procs []*Proc
	regs  []*metrics.Registry // regs[r] is procs[r].Metrics
	sink  *trace.Sink
	met   *metrics.Set
	// rf is the rank-level fault plan (nil = no rank faults); every
	// fault-injection check in the datapath is gated on it so the
	// fault-free steady state pays one nil comparison.
	rf *RankFaultSchedule
	// anyFail flips to 1 at the first crash; it gates the dead-peer
	// check in mailbox waits so the healthy path stays branch-cheap.
	anyFail atomic.Int32
	// nodeOf maps ranks to simulated nodes for the inter/intra-node
	// shuffle-byte split (nil = one rank per node).
	nodeOf func(rank int) int
	// nodes caches the distinct-node count under nodeOf, recomputed by
	// SetNodeMap so per-op NodeCount calls stay allocation-free.
	nodes int
	// integ is the wire-checksum hasher (nil = integrity off); when set,
	// every point-to-point payload is checksummed at the sender and
	// verified at the receiver, and vector-collective rows are verified
	// at their rendezvous. One nil check on the integrity-off path.
	integ *integrity.Hasher
	// The rank goroutines' shared state, allocated by the first Run and
	// reused by every call: fn is the current call, done counts its ranks
	// out, and panics carries their failures (one slot per rank).
	ranks  *rankGate
	fn     func(p *Proc)
	done   sync.WaitGroup
	panics chan string
}

// NewWorld creates a communicator with size ranks using the given cost
// model. It panics on an invalid configuration, which is always a
// programming error in the harness.
func NewWorld(size int, cfg *sim.Config) *World {
	if size <= 0 {
		panic(fmt.Sprintf("mpi: world size must be positive, got %d", size))
	}
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	w := &World{
		size:  size,
		cfg:   cfg,
		boxes: make([]*mailbox, size),
		coll:  newCollSync(size),
		procs: make([]*Proc, size),
		regs:  make([]*metrics.Registry, size),
		nodes: size,
	}
	for i := range w.boxes {
		w.boxes[i] = newMailbox()
	}
	for i := range w.procs {
		w.regs[i] = metrics.NewRegistry(i)
		w.procs[i] = &Proc{w: w, rank: i, round: -1, Metrics: w.regs[i]}
	}
	return w
}

// Size returns the number of ranks.
func (w *World) Size() int { return w.size }

// Config returns the cost model.
func (w *World) Config() *sim.Config { return w.cfg }

// Proc returns the rank's process handle (valid before, during, and after
// Run; clocks and stats persist across Run calls).
func (w *World) Proc(rank int) *Proc { return w.procs[rank] }

// Run executes fn once per rank, each on its rank's goroutine, and waits for
// all to finish. A panic in any rank is re-raised (with its rank) after the
// others complete or deadlock detection would be hopeless, so tests fail
// loudly. Run may be called multiple times, one call at a time and never
// from inside fn; clocks continue from their previous values (call
// ResetClocks between independent experiments).
//
// A rank's goroutine outlives its calls, as an MPI process does: the first
// Run starts one per rank and every later Run hands each its Proc, so a
// warm Run allocates nothing and a rank's stack grows once per world. A
// panic or an injected crash leaves the goroutine waiting for the next
// call; a runtime.Goexit ends it, and the next Run starts a new one. See
// rankGate for how the goroutines end with the world.
func (w *World) Run(fn func(p *Proc)) {
	if w.ranks == nil {
		w.ranks = &rankGate{in: make([]chan *Proc, w.size)}
		runtime.SetFinalizer(w.ranks, (*rankGate).close)
		w.panics = make(chan string, w.size)
	}
	w.fn = fn
	w.done.Add(w.size)
	for r, p := range w.procs {
		in := w.ranks.in[r]
		if in == nil {
			in = make(chan *Proc, 1)
			w.ranks.in[r] = in
			go rankLoop(in)
		}
		in <- p
	}
	w.done.Wait()
	// fn's captures (a caller's file system, say) are the caller's to
	// keep: a world kept after its last call must not hold them.
	w.fn = nil
	select {
	case msg := <-w.panics:
		for len(w.panics) > 0 {
			<-w.panics
		}
		panic("mpi: " + msg)
	default:
	}
}

// rankGate holds the channels a world's rank goroutines wait on between
// calls; in[r] is nil until rank r's goroutine starts, and again once a call
// ended it. A waiting goroutine holds only its channel, never the World or
// a Proc, so a dropped world is garbage while its goroutines still wait.
// The finalizer sits on this gate rather than on the World, which its procs
// point back to (the runtime does not finalize an object in a cycle): the
// first GC after the drop frees the world and its procs, and the gate's
// finalizer closes the channels, which ends the goroutines.
type rankGate struct{ in []chan *Proc }

func (g *rankGate) close() {
	for _, in := range g.in {
		if in != nil {
			close(in)
		}
	}
}

// rankLoop is one rank's goroutine: it runs the current call for each Proc
// its channel hands it, until the channel closes.
func rankLoop(in <-chan *Proc) {
	for p := range in {
		p.w.serve(p)
	}
}

// serve runs the current call's fn on p and counts the rank out of it.
func (w *World) serve(p *Proc) {
	returned := false
	defer func() {
		if !returned {
			switch r := recover(); r.(type) {
			case nil:
				// runtime.Goexit: this goroutine ends with the call.
				w.ranks.in[p.rank] = nil
			case rankCrash:
				// Injected crash: the rank dies quietly. crashNow
				// already marked it dead and woke its peers, who
				// detect the failure through the liveness machinery
				// instead of a test panic.
			default:
				// Re-panicking on the Run goroutine loses the rank's
				// stack; carry it in the message.
				w.panics <- fmt.Sprintf("rank %d: %v\n%s", p.rank, r, debug.Stack())
				// Unblock peers stuck in collectives or receives so
				// the process doesn't deadlock before reporting.
				w.coll.poison()
				for _, b := range w.boxes {
					b.poisonAndWake()
				}
			}
		}
		w.done.Done()
	}()
	w.fn(p)
	returned = true
}

// EnableTracing attaches a virtual-time trace sink with the given per-rank
// event capacity (non-positive means trace.DefaultCapacity) and hands each
// rank its tracer. Call it before Run; it returns the sink for export.
func (w *World) EnableTracing(capacity int) *trace.Sink {
	w.sink = trace.NewSink(w.size, capacity)
	for i, p := range w.procs {
		p.Trace = w.sink.Tracer(i)
	}
	return w.sink
}

// TraceSink returns the attached trace sink (nil when tracing is off).
func (w *World) TraceSink() *trace.Sink { return w.sink }

// EnableSampledTracing attaches a trace sink under the given sampling
// policy, on top of which the world adds the ranks whose causal structure
// the critical-path profiler cannot do without: every node leader under
// the installed node map (members' pre-aggregation traffic funnels through
// them) and every victim of the installed rank-fault plan (failover
// participants). Unsampled ranks get nil tracers — they pay one nil check
// per instrumentation point and no ring memory — so trace memory is
// O(always + K) instead of O(ranks). Call it after SetNodeMap and
// SetRankFaults, before Run.
func (w *World) EnableSampledTracing(capacity int, policy trace.SamplePolicy) *trace.Sink {
	always := append([]int(nil), policy.Always...)
	leaders := make([]bool, w.size)
	w.procs[0].NodeLeadersInto(leaders, nil)
	for r, lead := range leaders {
		if lead {
			always = append(always, r)
		}
	}
	if w.rf != nil {
		always = append(always, w.rf.Victims()...)
	}
	policy.Always = always
	w.sink = trace.NewSampledSink(w.size, capacity, policy.SampleRanks(w.size))
	for i, p := range w.procs {
		p.Trace = w.sink.Tracer(i)
	}
	return w.sink
}

// EnableMetrics attaches histograms and flight-recorder rings to the ranks'
// registries and returns the set over them for exposition, dumps, and
// analysis. Call it before Run.
func (w *World) EnableMetrics() *metrics.Set {
	w.met = metrics.Attach(w.regs, 0, nil)
	return w.met
}

// MetricsSet returns the attached metrics set (nil when metrics are off).
func (w *World) MetricsSet() *metrics.Set { return w.met }

// EnableMetricsRollup is EnableMetrics with flight-recorder rings only on
// the node leaders under the installed node map plus the ranks the attached
// trace sink samples (registries stay per-rank: they are small and must
// stay lock-free for the owning goroutine), and returns the set with the
// per-node rollup view for O(nodes) exposition. Together with
// EnableSampledTracing this holds per-run telemetry memory to
// O(nodes + sampled ranks). Call it after SetNodeMap (and after
// EnableSampledTracing if sampling), before Run.
func (w *World) EnableMetricsRollup(flightCap int) (*metrics.Set, *metrics.Rollup) {
	leaders := make([]bool, w.size)
	w.procs[0].NodeLeadersInto(leaders, nil)
	sink := w.sink
	w.met = metrics.Attach(w.regs, flightCap, func(rank int) bool {
		return leaders[rank] || sink.Sampled(rank)
	})
	return w.met, metrics.NewRollup(w.met, w.nodeOf)
}

// EnableCommMatrix empties every rank's peer row, so the traffic the
// returned view reports starts here. Call it before Run.
func (w *World) EnableCommMatrix() *CommMatrix {
	for _, p := range w.procs {
		p.peers.reset()
	}
	return w.CommMatrix()
}

// CommMatrix returns the rank×rank view over the ranks' peer rows.
func (w *World) CommMatrix() *CommMatrix { return &CommMatrix{w: w} }

// SetNodeMap installs the rank→node placement used to split shuffle bytes
// into inter-node vs. intra-node (shuffle_internode_bytes, DESIGN §11).
// nil restores the default of one rank per node (all traffic inter-node).
// Call it before Run.
func (w *World) SetNodeMap(nodeOf func(rank int) int) {
	w.nodeOf = nodeOf
	w.nodes = w.countNodes()
}

// NodeMap returns the installed rank→node placement (nil = one rank per
// node).
func (w *World) NodeMap() func(rank int) int { return w.nodeOf }

// node returns the simulated node hosting rank r.
func (w *World) node(r int) int {
	if w.nodeOf == nil {
		return r
	}
	return w.nodeOf(r)
}

// ResetClocks makes the world ready for an independent experiment: it
// zeroes every rank's virtual clock, round and failure state, drops
// undelivered messages, and clears every rank's registry (counters, phase
// times, histograms), its peer row, the flight recorder and the trace sink
// (its timestamps restart from zero).
func (w *World) ResetClocks() {
	w.revive(0)
	for _, p := range w.procs {
		p.collSeq = 0
		p.sendSeq = 0
		p.round = -1
		p.peers.reset()
		p.Metrics.Reset()
	}
	w.sink.Reset()
	w.met.Flight().Reset()
}

// EnableIntegrity arms the checksummed datapath: every point-to-point
// payload is summed (seeded by seed) at the sender, carried in its
// envelope, and verified at the receiver; vector-collective rows verify
// at the rendezvous. A mismatch triggers the bounded re-request protocol
// and, when that fails, a sticky per-rank integrity error the collective
// engines fold into the error agreement. Call it before Run.
func (w *World) EnableIntegrity(seed int64) {
	w.integ = integrity.NewHasher(seed)
}

// IntegrityEnabled reports whether the checksummed datapath is armed.
func (w *World) IntegrityEnabled() bool { return w.integ != nil }

// SetRankFaults installs a rank-level fault plan (nil disables). Call it
// before Run; it applies to every subsequent collective and send.
func (w *World) SetRankFaults(s *RankFaultSchedule) { w.rf = s }

// SetCollDeadline arms a virtual-time deadline on every rendezvous and
// point-to-point wait: a peer trailing by more than d is flagged
// unresponsive instead of waited on forever. Zero disarms. Call it before
// Run.
func (w *World) SetCollDeadline(d sim.Time) { w.coll.deadline = d }

// FailedRanks returns the ranks currently considered failed — crashed or
// flagged as stragglers — in rank order. It is the dead set a resumed
// collective hands to the failover assigner.
func (w *World) FailedRanks() []int {
	dead, suspects := w.coll.failureSets()
	out := append([]int{}, dead...)
	out = append(out, suspects...)
	slices.Sort(out)
	return out
}

// ReviveAll clears every failure: all ranks are live again (a crashed
// rank models a restarted process rejoining), suspects are forgiven,
// undelivered messages from the failed attempt are dropped, and every
// clock jumps to the latest clock so the recovered world resumes from a
// common "now" — a straggler's inflated clock would otherwise re-trip
// deadline detection immediately. Consumed fault rules stay consumed, so
// the recovery attempt runs clean. Call between Run calls only.
func (w *World) ReviveAll() { w.revive(w.MaxClock()) }

// revive clears every failure and sets every clock to now: all ranks live,
// no undelivered messages, no failure a rank has seen or still holds.
func (w *World) revive(now sim.Time) {
	w.coll.revive()
	for _, b := range w.boxes {
		b.drain()
	}
	for _, p := range w.procs {
		p.clock = now
		p.nicBusy = 0
		p.verSeen = 0
		p.peerErr = nil
		p.integErr = nil
		p.failSeen = 0
	}
	w.anyFail.Store(0)
}

// MaxClock returns the latest virtual clock across ranks.
func (w *World) MaxClock() sim.Time {
	var m sim.Time
	for _, p := range w.procs {
		if p.clock > m {
			m = p.clock
		}
	}
	return m
}

// Recorders returns every rank's stats view.
func (w *World) Recorders() []*stats.Recorder {
	out := make([]*stats.Recorder, w.size)
	for i, reg := range w.regs {
		out[i] = stats.Of(reg)
	}
	return out
}

// Totals returns every rank's registry merged into one.
func (w *World) Totals() *metrics.Registry { return metrics.Merge(w.regs...) }

// Proc is one rank's handle: its identity, virtual clock, and books. All
// methods must be called only from the goroutine running that rank.
type Proc struct {
	w     *World
	rank  int
	clock sim.Time
	// nicBusy serializes incoming point-to-point transfers: a rank's
	// link can only receive one message at a time, so an aggregator
	// ingesting data from many clients is throughput-limited — the
	// effect that makes aggregator load balancing matter.
	nicBusy sim.Time
	// Trace records this rank's virtual-time spans and events; nil (the
	// default) records nothing, so instrumentation stays in place
	// unconditionally. Set for all ranks by World.EnableTracing.
	Trace *trace.Tracer
	// Metrics is this rank's one store of counters, gauges and phase
	// times (stats.Of reads it by table name); World.EnableMetrics
	// attaches its histograms and flight ring.
	Metrics *metrics.Registry
	// collSeq counts this rank's collective operations and sendSeq its
	// point-to-point sends: the deterministic streams rank-fault rules
	// trigger on.
	collSeq int64
	sendSeq int64
	// roundSends counts the sends since the rank entered its current round.
	roundSends int64
	// peers is this rank's traffic per destination (see book); its
	// message counts number the per-message edge ids
	// ((seq*size)+src)*size+dst, which are stable across goroutine
	// schedules because each (src,dst) stream is sequenced by the sender
	// alone.
	peers peerRow
	// round is the current two-phase round (-1 outside one), mirrored
	// from mpiio.File.SetRound for round-triggered fault rules.
	round int
	// verSeen / peerErr / failSeen cache the failure state this rank has
	// observed: verSeen is the last rendezvous failure version consumed,
	// peerErr the sticky ErrRankUnresponsive describing the failed
	// peers, failSeen how many failed peers have been counted into the
	// deadline-trip metric.
	verSeen  uint64
	peerErr  error
	failSeen int
	// integErr is the sticky integrity failure: a payload arrived with a
	// bad checksum and the bounded re-request protocol could not recover
	// it. The engines consume it (TakeIntegrityFailure) at the next round
	// boundary and turn it into a uniform ErrDataIntegrity abort.
	integErr error
	// The envelopes this rank sends and its receive requests, recycled
	// (see newEnvelope): envs and reqs are taken from and refilled by this
	// rank alone, envBack by the receivers of its envelopes.
	envs    []*envelope
	envBack atomic.Pointer[envelope]
	reqs    []*Request
	// iovSend holds the send tables of this rank's last two AlltoallvIov
	// calls, which peers read through the rendezvous, and iovOut is the
	// table AlltoallvIov returns, refilled by each call.
	iovSend [2][][][]byte
	iovOut  [][][]byte
}

// Rank returns this process's rank in the world.
func (p *Proc) Rank() int { return p.rank }

// Size returns the world size.
func (p *Proc) Size() int { return p.w.size }

// World returns the communicator.
func (p *Proc) World() *World { return p.w }

// Config returns the cost model.
func (p *Proc) Config() *sim.Config { return p.w.cfg }

// Clock returns the rank's current virtual time.
func (p *Proc) Clock() sim.Time { return p.clock }

// AdvanceClock adds d (which must be non-negative) to the rank's clock;
// used by higher layers to charge modelled computation.
func (p *Proc) AdvanceClock(d sim.Time) {
	if d < 0 {
		panic(fmt.Sprintf("mpi: negative clock advance %v on rank %d", d, p.rank))
	}
	p.clock += d
}

// SyncClock moves the clock forward to t if t is later.
func (p *Proc) SyncClock(t sim.Time) {
	if t > p.clock {
		p.clock = t
	}
}

// Interval is a charged phase interval, opened by Begin or Begin1 and
// closed by End or EndAs.
type Interval struct {
	ph    metrics.Phase
	start sim.Time
}

// Begin opens an interval of phase ph now, with its trace span. The
// variadic tags are built even when tracing is off: hot paths use Begin1,
// or pass nil tags when the tracer is nil.
func (p *Proc) Begin(ph metrics.Phase, tags ...trace.Tag) Interval {
	p.Trace.Begin(p.clock, ph.String(), tags...)
	return Interval{ph: ph, start: p.clock}
}

// Begin1 is Begin with exactly one tag, allocation-free when tracing is off.
func (p *Proc) Begin1(ph metrics.Phase, tag trace.Tag) Interval {
	p.Trace.Begin1(p.clock, ph.String(), tag)
	return Interval{ph: ph, start: p.clock}
}

// End closes iv: the clock's advance since it opened is booked to its
// phase, sum and histogram together, and its trace span ends.
func (p *Proc) End(iv Interval) { p.EndAs(iv, p.clock-iv.start) }

// EndAs is End booking d, for an interval that only advanced the clock by
// d: the phase books d itself, not the clock difference it rounds to.
func (p *Proc) EndAs(iv Interval, d sim.Time) {
	p.Metrics.Charge(iv.ph, d)
	p.Trace.End(p.clock)
}

// SetRound tags this rank with the current two-phase round (-1 = outside
// a collective round) and fires round-triggered rank faults: a scheduled
// stall charges the clock, a scheduled crash kills the rank here — after
// the previous round's rendezvous, before this round's.
func (p *Proc) SetRound(r int) {
	p.round, p.roundSends = r, 0
	if rf := p.w.rf; rf != nil && r >= 0 {
		stall, crash := rf.atRound(p.rank, r)
		if stall > 0 {
			p.clock += stall
		}
		if crash {
			p.crashNow()
		}
	}
}

// Round returns the two-phase round this rank is in (-1 outside one).
func (p *Proc) Round() int { return p.round }

// preRendezvous runs at the top of every collective operation: it
// advances the rank's collective sequence number and fires
// sequence-triggered crashes. One nil check on the fault-free path.
func (p *Proc) preRendezvous() {
	p.collSeq++
	if rf := p.w.rf; rf != nil {
		if rf.crashAt(crashRule{rank: p.rank, seq: p.collSeq}) {
			p.crashNow()
		}
	}
}

// crashNow kills this rank: it is marked dead in the collective liveness
// state (releasing any rendezvous waiting only on it), blocked receivers
// are woken so they re-check peer liveness, and the goroutine unwinds
// with the private crash panic World.Run absorbs.
func (p *Proc) crashNow() {
	p.Trace.Instant1(p.clock, trace.CrashName, trace.I(trace.RankTag, int64(p.rank)))
	for p.Trace.Depth() > 0 {
		// A crash inside a span (mid-exchange, inside a collective) ends
		// the span with the rank, so the trace stays well formed.
		p.Trace.End(p.clock)
	}
	p.w.coll.markDead(p.rank)
	p.w.anyFail.Store(1)
	for _, b := range p.w.boxes {
		b.wake()
	}
	panic(rankCrash{rank: p.rank})
}

// noteVer consumes a rendezvous failure version: when it differs from the
// last version this rank saw, the rank refreshes its view of dead and
// suspect peers, counts the newly failed ones into the deadline-trip
// metric, and arms PeerFailure. All ranks reading the same publish see
// the same version, so they reach the same conclusion — that is what
// makes the subsequent abort agreement unanimous. The fault-free path is
// one integer compare.
func (p *Proc) noteVer(ver uint64) {
	if ver == p.verSeen {
		return
	}
	p.verSeen = ver
	dead, suspects := p.w.coll.failureSets()
	n := len(dead) + len(suspects)
	if n > p.failSeen {
		p.Metrics.Add(metrics.CDeadlineTrips, int64(n-p.failSeen))
		p.failSeen = n
	}
	if n > 0 {
		p.peerErr = fmt.Errorf("%w: dead ranks %v, stalled ranks %v", ErrRankUnresponsive, dead, suspects)
	} else {
		p.peerErr = nil
	}
}

// PeerFailure returns the sticky peer-failure error (wrapping
// ErrRankUnresponsive) describing crashed or straggling peers this rank
// has observed, or nil while everyone looks healthy. It is cleared by
// World.ReviveAll.
func (p *Proc) PeerFailure() error { return p.peerErr }

// TakeIntegrityFailure consumes the pending unrepairable-corruption error
// (wrapping integrity.ErrDataIntegrity), returning it — nil when there is
// none — and clearing it. Unlike PeerFailure it describes one poisoned
// payload, not a permanent rank state, so an aborted collective does not
// poison the next one: the corrupted payload dies with the abort, and a
// resume runs clean unless corruption strikes again.
func (p *Proc) TakeIntegrityFailure() error {
	err := p.integErr
	p.integErr = nil
	return err
}

// noteIntegrityFailure arms the sticky integrity error for a payload from
// src that could not be recovered.
func (p *Proc) noteIntegrityFailure(src int) {
	p.integErr = fmt.Errorf("%w: payload from rank %d to rank %d unrecoverable after %d re-requests",
		integrity.ErrDataIntegrity, src, p.rank, integrity.MaxReRequests)
}
