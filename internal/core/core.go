package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"flexio/internal/datatype"
	"flexio/internal/metrics"
	"flexio/internal/mpi"
	"flexio/internal/mpiio"
	"flexio/internal/realm"
	"flexio/internal/trace"
)

const (
	tagFlat = 3000
	tagData = 4000
	tagBack = 5000
)

// CommStrategy selects how the data exchange phase moves bytes.
type CommStrategy int

const (
	// Nonblocking overlaps each round's incoming data with the previous
	// round's file I/O using Irecv/Isend (paper §5.4's overlap path).
	Nonblocking CommStrategy = iota
	// Alltoallw uses the collective exchange; on machines with a
	// dedicated collective network this is the fast path, and it avoids
	// the pack/unpack copies by communicating noncontiguously straight
	// from the user and collective buffers.
	Alltoallw
	// Blocking is the exchange of ROMIO's two-phase code: point-to-point
	// like Nonblocking, but everything of a round is posted at once (all
	// Irecvs, all Isends, a wait for everything; a read's pieces are taken
	// with blocking receives) and the round's file I/O follows with nothing
	// overlapped, so there is no trailing write or agreement after the last
	// round. The model charges no copies for it: the one pass ROMIO makes
	// is into its integrated sieve buffer (mpiio.IntegratedSieve).
	Blocking
)

// String names the strategy.
func (c CommStrategy) String() string {
	switch c {
	case Alltoallw:
		return "alltoallw"
	case Blocking:
		return "blocking"
	}
	return "nonblocking"
}

// Options configures the engine. The zero value gives the paper's
// defaults: even realms over the aggregate access region, data sieving
// beneath the collective buffer, nonblocking exchange.
type Options struct {
	// Assigner decides file realms. Nil means realm.Even{}.
	Assigner realm.Assigner
	// Align requests realm boundaries at multiples of this many bytes
	// (the paper's file-realm alignment hint; set it to the file system
	// stripe size).
	Align int64
	// Persistent keeps the realms of the first collective call for the
	// whole life of the file, anchored at byte zero (PFRs, paper §5.2).
	Persistent bool
	// Comm selects the data exchange strategy.
	Comm CommStrategy
	// Method is the buffer access method used to move the collective
	// buffer to/from storage (ignored when Conditional is set).
	Method mpiio.Method
	// Conditional enables conditional data sieving: per collective
	// call, aggregators pick naive I/O when the filetype extent is at
	// least condThreshold and data sieving below it (paper §6.3).
	Conditional bool
	// HeapMerge enables the client-side binary-heap merge across
	// aggregator realms instead of one access pass per aggregator.
	HeapMerge bool
	// Degraded enables graceful degradation: when a round's buffer access
	// fails under data sieving, the aggregator re-issues the round with
	// naive per-segment I/O before reporting an error (conditional sieving
	// repurposed as fault recovery — naive I/O touches only the useful
	// bytes, so it sidesteps faults on the sieve path).
	Degraded bool
	// Preagg enables node-local pre-aggregation (two-level exchange):
	// under the installed node map, each node's leader merges its
	// co-residents' accesses and payload streams and exchanges with the
	// aggregators on their behalf, so only one rank per node talks across
	// the network. Requires a node map with multi-rank nodes to have any
	// effect; output stays byte-identical to the per-rank exchange.
	Preagg bool
	// Validate checks realm coverage of the aggregate access region
	// before every call and, on every aggregator memo hit, rebuilds the
	// merge plans from the requests just received and aborts the
	// collective unless they equal the cached ones (debugging aid: the
	// rebuild costs what a memo miss costs in host time, none in virtual).
	Validate bool
	// Journal, when set, records which (aggregator, round) writes became
	// durable so a collective resumed after a rank failure replays only
	// the unfinished rounds (see ResumeCollective). Nil disables
	// journalling at zero cost.
	Journal *mpiio.WriteJournal
}

// Impl implements mpiio.Collective. One Impl is shared by every rank
// goroutine of a world; what a rank keeps across calls (layout memo, scratch)
// is segregated per rank, and only the realm assignment is shared. Because
// that state is keyed by rank index, an Impl must not serve two concurrently
// running worlds: give each simulation its own (buffer pools stay shared).
type Impl struct {
	o      Options
	form   requestForm
	assign assignCache

	scratch rankTable[rankScratch]
}

// rankScratch is one rank's state across collective calls: its layout memo
// and reusable working memory, the planner's below, the executor's embedded.
type rankScratch struct {
	roundScratch
	clients    memo[clientKey, clientEntry]
	aggs       memo[aggKey, aggEntry]
	bounds     []int64
	recvs      []*mpi.Request // an aggregator's request receives, per rank (nil where none is expected)
	msgs       [][]byte
	miss       planScratch
	realmDisps []int64
	// Node-local pre-aggregation (see preagg.go): the stage's state, this
	// rank's request as a member forwards it, who leads the other nodes.
	pre     preaggState
	preEnc  []byte
	leaders []bool
	// last is the access the list form flattened last (see access).
	last struct {
		ft            datatype.Type
		disp, dataLen int64
		work          int64 // pairs the flattening evaluated
		st, en        int64 // first and last+1 offset; st > en when empty
	}
}

// planScratch is the working memory of planning a layout the memo has not
// seen: everything the intersections and the round merge need and the stored
// entry does not keep. It stays in the rank scratch while misses recur (a
// checkpoint loop installs a new view, and misses, on every call) and is
// dropped by the first call that hits on both sides, so the build of one
// large enumerated layout does not stay pinned under a steady state that
// never plans again.
type planScratch struct {
	// ac and rc are the access and realm cursors of the intersection in
	// progress, re-pointed (never rebuilt) per client and per aggregator.
	ac, rc datatype.Cursor
	pieces []datatype.Piece // one intersection's output

	// Client side, HeapMerge: one realm cursor and one piece list per aggregator.
	heap   realmHeap
	rcs    []datatype.Cursor
	rcPtrs []*datatype.Cursor
	perAgg [][]datatype.Piece

	// Client side, list form: the rank's flattened access and one
	// aggregator's share of it.
	mine, share []datatype.Seg
	// Client side, flat form: the rank's request, encoded to find its shape
	// in the memo after an exact miss.
	enc []byte

	// Aggregator side: the decoded requests (segments in one block), then
	// every client's pieces as file segments in client order with the round
	// of each, client c's ending at ends[c]; next[c] walks them round by
	// round. merger, clientRuns and roundSegs serve one round's merge; segs
	// and peers collect all rounds' results, (len(segs), len(peers)) in cuts
	// after each, before the plans' blocks are filled at their exact size.
	flats      []datatype.Flat
	reqSegs    []datatype.Seg
	fileSegs   []datatype.Seg
	pieceRound []int32
	ends, next []int
	merger     datatype.RunMerger
	clientRuns [][]datatype.Seg
	roundSegs  []datatype.Seg
	segs       []datatype.Seg
	peers      []peerBytes
	cuts       []int
}

// sized returns s truncated or grown to n zeroed entries, reusing capacity:
// how the engine sizes per-call tables in its rank scratch.
func sized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// New builds an engine with the given options.
func New(o Options) *Impl {
	if o.Assigner == nil {
		o.Assigner = realm.Even{}
	}
	return &Impl{o: o}
}

// ROMIO builds the baseline the paper compares against, a model of ROMIO's
// two-phase collective I/O (Thakur, Gropp, Lusk — "Data sieving and
// collective I/O in ROMIO"): the same planner with ROMIO's request form (the
// whole access flattened into offset/length pairs, each aggregator sent its
// share: O(M) on the wire and O(M) to plan), an even partition of the
// aggregate access region into file domains, everything of a round posted at
// once (Blocking) and data sieving integrated into the collective buffer.
// Those four are fixed: o's Assigner, Comm and Method are overridden, and
// realm alignment, persistent realms, conditional sieving and the heap merge,
// which ROMIO does not have, are refused. Journal, Degraded, Preagg and
// Validate work as they do for New.
func ROMIO(o Options) *Impl {
	if o.Align != 0 || o.Persistent || o.Conditional || o.HeapMerge {
		panic("core: ROMIO has no realm alignment, persistent realms, conditional sieving or heap merge")
	}
	o.Assigner, o.Comm, o.Method = realm.Even{}, Blocking, mpiio.IntegratedSieve
	return &Impl{o: o, form: listRequests}
}

// condThreshold is the filetype extent at which Options.Conditional crosses
// from data sieving to naive I/O: 24 KB, the crossover measured on this
// repository's simulated system (the paper measured ~16 KB on its Lustre
// testbed and notes the exact numbers are unique to the particular system,
// §6.3).
const condThreshold = 24 << 10

// Name implements mpiio.Collective.
func (i *Impl) Name() string {
	if i.form == listRequests {
		return "romio-twophase"
	}
	return fmt.Sprintf("flexio(%s,%s)", i.o.Assigner.Name(), i.o.Comm)
}

// WriteAll implements mpiio.Collective.
func (i *Impl) WriteAll(f *mpiio.File, buf []byte, memtype datatype.Type, count int64) error {
	return i.collective(f, buf, memtype, count, true)
}

// ReadAll implements mpiio.Collective.
func (i *Impl) ReadAll(f *mpiio.File, buf []byte, memtype datatype.Type, count int64) error {
	return i.collective(f, buf, memtype, count, false)
}

// pieceLists is what one client exchanges with every aggregator, grouped by
// two-phase round (client side; the aggregator keeps a roundPlan instead).
// Only the stream side of a piece matters once the rounds are formed, so the
// pieces are kept as ranges of the client's data stream. The blocks keep
// their memory from one filling (Start, then Add per aggregator) to the next.
type pieceLists struct {
	// runs lists every aggregator's, and within it every round's, pieces in
	// the order the payload travels (file-offset order), neighbours that are
	// adjacent in the stream merged into one range: both ends consume payloads
	// by byte count, so a range is one view however many pieces it covers.
	runs []streamRun
	// rounds locates each round's runs and carries their byte count, for
	// aggregator a the rounds up to its last in rounds[ends[a-1]:ends[a]];
	// rounds the access skips are zero.
	rounds []roundSpan
	ends   []int
	naggs  int
}

// streamRun is a contiguous range of a client's linear data stream.
type streamRun struct{ at, n int64 }

type roundSpan struct {
	first, end int // into runs
	bytes      int64
}

// Start empties the lists of naggs aggregators; Add fills them in rank order.
func (pl *pieceLists) Start(naggs int) {
	pl.runs, pl.rounds, pl.ends, pl.naggs = pl.runs[:0], pl.rounds[:0], pl.ends[:0], naggs
}

// Add forms the rounds of the pieces this client exchanges with the next
// aggregator: its access intersected with that aggregator's realm, which the
// intersection emitted with non-decreasing rounds. It may reorder ps and keeps
// no reference to it.
func (pl *pieceLists) Add(ps []datatype.Piece) {
	runs, rbase := pl.runs, len(pl.rounds)
	for k := 0; k < len(ps); {
		r := ps[k].Round
		end := k
		sorted := true
		for ; end < len(ps) && ps[end].Round == r; end++ {
			sorted = sorted && (end == k || ps[end-1].File.Off <= ps[end].File.Off)
		}
		if !sorted {
			// A round's payload travels in file-offset order: the
			// aggregator's merger sorts a run that is not, and both ends
			// must walk the same sequence.
			slices.SortStableFunc(ps[k:end], func(x, y datatype.Piece) int { return cmp.Compare(x.File.Off, y.File.Off) })
		}
		for len(pl.rounds)-rbase < r {
			pl.rounds = append(pl.rounds, roundSpan{}) // a round the access skips
		}
		sp := roundSpan{first: len(runs)}
		for ; k < end; k++ {
			pc := ps[k]
			sp.bytes += pc.File.Len
			if n := len(runs); n > sp.first && runs[n-1].at+runs[n-1].n == pc.AStream {
				runs[n-1].n += pc.File.Len
			} else {
				runs = append(runs, streamRun{at: pc.AStream, n: pc.File.Len})
			}
		}
		sp.end = len(runs)
		pl.rounds = append(pl.rounds, sp)
	}
	pl.runs, pl.ends = runs, append(pl.ends, len(pl.rounds))
}

// span is round r of aggregator a, zero where it exchanges nothing.
func (pl *pieceLists) span(a, r int) roundSpan {
	if a >= len(pl.ends) {
		return roundSpan{}
	}
	if a > 0 {
		r += pl.ends[a-1]
	}
	if r >= pl.ends[a] {
		return roundSpan{}
	}
	return pl.rounds[r]
}

func (pl *pieceLists) of(a, r int) []streamRun {
	sp := pl.span(a, r)
	return pl.runs[sp.first:sp.end]
}

func (pl *pieceLists) bytes(a, r int) int64 { return pl.span(a, r).bytes }

func (i *Impl) collective(f *mpiio.File, buf []byte, memtype datatype.Type, count int64, write bool) error {
	// A write's stream is the user's bytes in stream order — the caller's
	// buffer itself when the memory type is dense, lent segment by segment
	// when its gapped segments are long, a packed pooled copy otherwise —
	// and peers read it in place: every exchange hands the aggregators views
	// of it (mpiio.Stream.Views). A read's stream is private. Node-local
	// pre-aggregation swaps the stream (a member hands a pooled copy of its
	// own to the leader, a leader continues with the merged one). Alltoallw
	// communicates directly from the user buffer: its linearization is free
	// of charge. The point-to-point strategies model the pack.
	cs, err := f.CollectiveStream(buf, memtype, count, write, i.o.Comm != Alltoallw)
	if err != nil {
		return err
	}
	err = i.run(f, &cs, buf, memtype, count, write)
	// Not deferred: every consumer of the stream's views is ordered before
	// a normal return by the final agreement's rendezvous (an abort's by the
	// barrier in finish), but an injected crash unwinds this rank while peers
	// may still be reading them, and a dying rank must drop its stream, not
	// pool it.
	cs.Release()
	return err
}

// refused is what an aggregator that could not use a request contributes to
// the round-count agreement: larger than any round count, so every rank
// leaves through the error agreement before round 0.
const refused = math.MaxInt64

// run is the collective call proper, on an already linearized stream. The
// request form (form.go) decides what is described, sent and decoded; the
// rest, and the order of every charge, message and collective, is the same
// for both forms except where noted.
func (i *Impl) run(f *mpiio.File, cs *mpiio.Stream, buf []byte, memtype datatype.Type, count int64, write bool) error {
	p := f.Proc()
	info := f.Info()
	cb := info.CollBufSize
	dataLen := datatype.TotalSize(memtype, count)

	naggs := info.CbNodes
	if naggs == 0 {
		naggs = p.Size()
	}
	amAgg := p.Rank() < naggs
	scr := i.scratch.For(p.Rank(), p.Size())
	list := i.form == listRequests

	// --- Describe the access. ---
	view := f.View()
	acc, st, en := i.access(f, scr, dataLen)

	// --- Aggregate access region. ---
	aarSt, aarEn := accessRegion(p, st, en, &scr.bounds)
	if aarEn <= aarSt {
		return nil
	}

	// --- File realms. ---
	asg, err := i.realms(f, naggs, aarSt, aarEn, dataLen)
	if err != nil {
		return err
	}
	realms, sig := asg.Realms, asg.Sig
	if i.o.Validate {
		if err := realm.Coverage(realms, aarSt, aarEn); err != nil {
			return fmt.Errorf("core: %w", err)
		}
	}

	// --- Metrics: realm layout health (alignment against the actual
	// stripe width) and the flight recorder's layout context. ---
	stripe := f.FS().Config().StripeSize
	scr.realmDisps = sized(scr.realmDisps, len(realms))
	var misaligned int64
	for k := range realms {
		scr.realmDisps[k] = realms[k].Disp
		if realms[k].Disp%stripe != 0 {
			misaligned++
		}
	}
	p.Metrics.Add(metrics.CRealmsAssigned, int64(len(realms)))
	p.Metrics.Add(metrics.CRealmsMisaligned, misaligned)
	p.Metrics.SetGauge(metrics.GNAggs, float64(naggs))
	if p.Rank() == 0 {
		p.Metrics.SetRealmContext(naggs, stripe, i.o.Align, scr.realmDisps)
		p.Metrics.SetTopology(p.NodeCount())
	}

	// --- Node-local pre-aggregation: leaders absorb their co-residents'
	// accesses and streams, members fall silent for the rest of the call
	// (under the list form they still send every aggregator an empty list). ---
	var pre *preaggState
	streamLen := dataLen // what the rounds move for this rank: a leader's is its node's
	if i.o.Preagg {
		pre = &scr.pre
		if list {
			acc = scr.flattened(f, dataLen)
		}
		scr.preEnc = i.form.appendAccess(scr.preEnc[:0], acc)
		merged, swapped := pre.exchange(f, i.form, i.o.Journal.Dead(), cs, scr.preEnc, dataLen, scr.bounds, write)
		if swapped && pre.Plan.Leads(p.Rank()) {
			streamLen = pre.Total
			acc = datatype.Flat{Size: pre.Total, Count: 1, Limit: -1, Segs: merged}
			if n := len(merged); n > 0 {
				acc.Extent = merged[n-1].End()
			}
		} else if swapped {
			// An empty access produces no pieces, so a member sends nothing
			// to any aggregator in the rounds.
			acc = datatype.FlatOf(datatype.Bytes(0), view.Disp, 0)
			acc.Limit = 0
		}
	}

	if i.o.Journal != nil {
		if write {
			// Open (or re-open) the write journal under this realm
			// layout's epoch: a resume whose failover layout matches skips
			// the rounds already durable, one that moved realms replays
			// from scratch (round numbers under the old layout name
			// different regions).
			i.o.Journal.Begin(sig)
		}
		// Reads resume too (idempotently, with nothing to skip); the
		// failover still reroutes their realms and is still recorded.
		if i.o.Journal.Resuming() && p.Rank() == 0 {
			p.Metrics.NoteFailover(i.o.Journal.Dead(), len(realms))
			for _, d := range i.o.Journal.Dead() {
				p.Trace.Instant2(p.Clock(), trace.FailoverName,
					trace.I(trace.DeadTag, int64(d)), trace.I(trace.RealmsTag, int64(len(realms))))
			}
		}
	}

	// --- Memoized layout lookup (client side). The key pins everything
	// the requests and piece lists depend on; see memo.go for the
	// invalidation rules. On a hit or a rebase, the requests and
	// intersections are reused and the ChargePairs sequence the miss path
	// would issue is replayed verbatim, so virtual time and stats are
	// unaffected.
	ck := clientKey{ft: view.Filetype, disp: view.Disp,
		dataLen: streamLen, cb: cb, naggs: naggs, sig: sig}
	if pre != nil {
		ck.pre = pre.pre
	}
	ce := scr.clients.Get(ck)
	client := memoHit
	if list && pre == nil && (ce == nil || i.o.Validate) {
		acc = scr.flattened(f, dataLen)
	}
	if ce == nil {
		ce, client = i.clientMiss(scr, ck, acc, realms, aarEn, cb, streamLen)
		scr.clients.Keep(ck)
	}
	noteMemo(p, "client", client)
	var clientErr error
	if client != memoMiss && i.o.Validate {
		clientErr = i.checkClient(&scr.miss, ce, acc, realms, aarEn, cb, streamLen)
	}

	// --- Request exchange. It always happens — only the decoding is
	// memoizable, keyed by a hash of the bytes actually received. An
	// aggregator posts its receives before it sends, so the requests cross
	// the wire while it does what needs no message (paper §5.4): ROMIO's
	// split, or the flexible design's client-side intersections, which sit
	// between two exchange spans. ROMIO charges its merge inside the exchange,
	// the flexible design its aggregator side after it. ---
	iv := p.Begin1(metrics.PExchange, trace.S("what", "requests"))
	// Under the flat form a pre-aggregation member sends no request: its
	// leader's speaks for it.
	silent := pre != nil && !list
	if amAgg {
		if silent {
			// Only node leaders send merged requests; members get the same
			// empty-access stand-in a dead rank would.
			scr.leaders = sized(scr.leaders, p.Size())
			p.NodeLeadersInto(scr.leaders, i.o.Journal.Dead())
		}
		scr.recvs = sized(scr.recvs, p.Size())
		if !postAtWait {
			scr.postRequests(p, silent, false)
		}
	}
	if list {
		chargeAll(f, ce.charges)
	}
	if !silent || pre.Plan.Leads(p.Rank()) {
		for a := 0; a < naggs; a++ {
			p.Metrics.Add(metrics.CReqBytes, int64(len(ce.request(a))))
			p.Send(a, tagFlat, ce.request(a))
		}
	}
	if !list {
		p.End(iv)
		chargeAll(f, ce.charges)
		if amAgg {
			iv = p.Begin1(metrics.PExchange, trace.S("what", "requests"))
		}
	}
	var ae *aggEntry
	agg := memoHit
	// planErr is a request this aggregator could not use. The sender got the
	// empty stand-in of a dead rank, so the collective keeps its shape up to
	// the first agreement, which the error seeds: every rank aborts.
	var planErr error
	if amAgg {
		if postAtWait {
			scr.postRequests(p, silent, true)
		}
		scr.msgs = mpi.WaitallInto(scr.recvs, scr.msgs)
		ak := aggKey{cb: cb, naggs: naggs, sig: sig}
		ak.req, ak.at = requestKey(scr.msgs, i.rebases())
		ae = scr.aggs.Get(ak)
		if ae == nil {
			ae, agg, planErr = i.aggMiss(scr, ak, realms, p.Rank(), aarSt, aarEn, cb)
			// A failure-degraded request set (stand-ins for dead or
			// unusable senders) must not poison the cache for later
			// healthy collectives: it goes without a key.
			if p.PeerFailure() == nil && planErr == nil {
				scr.aggs.Keep(ak)
			}
		}
		noteMemo(p, "agg", agg)
		if agg != memoMiss && i.o.Validate {
			planErr = i.checkPlans(&scr.miss, scr.msgs, ae, realms, p.Rank(), aarSt, aarEn, cb)
		}
		if list {
			chargeAll(f, ae.charges)
		}
	}
	if list || amAgg {
		p.End(iv)
	}
	if planErr == nil {
		planErr = clientErr
	}
	if client == memoHit && agg == memoHit {
		scr.miss = planScratch{} // nothing was planned: see planScratch
	}

	pl := plan{pieces: &ce.pieces, cb: cb, method: i.o.Method, err: planErr}
	if amAgg {
		pl.agg = &ae.aggPlans
	}
	if pre != nil && pre.Err != nil {
		pl.err = pre.Err
	}
	if list {
		// ROMIO computes the round count from the domain size: domain 0 is
		// never the shortest.
		lo, hi := domain(realms, 0, aarEn)
		pl.rounds = int((hi - lo + cb - 1) / cb)
		// A request list that arrived corrupted past the re-request budget
		// reads as an empty access. A read's aggregator would then never
		// send that client its pieces, and the client, whose own view of
		// its access is intact, would wait forever. Only the receiving
		// aggregator knows, so when the checksummed datapath is armed every
		// rank rendezvous here and aborts before the rounds begin.
		if p.World().IntegrityEnabled() {
			reqErr := planErr
			if ierr := p.TakeIntegrityFailure(); ierr != nil {
				reqErr = fmt.Errorf("core: request exchange: %w", ierr)
			}
			if err := mpiio.AgreeError(p, reqErr); err != nil {
				return err
			}
		}
	} else {
		if i.o.Conditional {
			// Conditional data sieving: decide by the (globally agreed)
			// filetype extent of the access, before the round count, so a
			// read's first round is read the way the rounds read.
			pl.method = mpiio.DataSieve
			if p.AllreduceMaxInt64(view.Filetype.Extent()) >= condThreshold {
				pl.method = mpiio.Naive
			}
		}
		// Flexible realms can end anywhere: the ranks agree on the round
		// count, after the aggregator side's intersections. A read aggregator
		// reads and splits its first round while the count is in flight.
		var myRounds int64
		if amAgg {
			chargeAll(f, ae.charges)
			myRounds = int64(len(ae.Rounds))
		}
		if planErr != nil {
			myRounds = refused
		}
		countReq := p.IallreduceMaxInt64(myRounds)
		if !write && myRounds > 0 && pl.err == nil {
			i.readFirst(f, &scr.roundScratch, &pl)
		}
		agreed := countReq.Wait()
		if agreed == 0 || agreed == refused {
			p.Barrier()
			// A peer failure can shrink the surviving access to nothing; the
			// barrier's rendezvous delivered the same failure version to
			// every survivor, so this abort is uniform.
			if perr := p.PeerFailure(); perr != nil {
				return fmt.Errorf("%w (rank %d: %v)",
					mpiio.ClassError(mpiio.ClassUnresponsive), p.Rank(), perr)
			}
			// Corrupted control-plane traffic can also shrink the access to
			// nothing: a flat-access payload that exhausted its re-request
			// budget reads as an empty access, so no rounds run and the
			// sticky failure armed at the receiver would otherwise leak into
			// the next collective. Agree on it here so every rank aborts
			// with ClassIntegrity instead of silently writing nothing. A
			// request an aggregator refused ends the call here too: its
			// sender would wait for bytes nobody serves; so does a member's
			// request its leader refused, whose member holds no stream.
			ierr := pl.err
			if e := p.TakeIntegrityFailure(); e != nil {
				ierr = fmt.Errorf("core: access exchange: %w", e)
			}
			if err := mpiio.AgreeError(p, ierr); err != nil {
				return err
			}
			if !write {
				clear(cs.B) // no round placed anything
				return f.UnpackMemory(cs.B, buf, memtype, count)
			}
			return nil
		}
		pl.rounds = int(agreed)
	}

	// --- Execution: everything above was planning. ---
	err = i.rounds(f, &scr.roundScratch, cs, &pl, write)
	// Reads under pre-aggregation: the leader scatters each member its bytes
	// and takes back its own; an abort above skips this uniformly.
	if err == nil && !write && pre != nil {
		err = pre.scatter(f, cs, dataLen)
	}
	return i.finish(f, cs.B, buf, memtype, count, write, err)
}

// postAtWait, set only by tests, posts each request receive where it is
// waited, as a blocking receive would: the schedule to compare against.
var postAtWait bool

// postRequests posts a receive for every request an aggregator waits for: a
// silent form's (the flat form under pre-aggregation) from node leaders only.
// wait completes each as it is posted.
func (scr *rankScratch) postRequests(p *mpi.Proc, silent, wait bool) {
	for c := range scr.recvs {
		if !silent || scr.leaders[c] {
			scr.recvs[c] = p.Irecv(c, tagFlat)
			if wait {
				scr.recvs[c].Wait()
			}
		}
	}
}

// chargeAll issues a recorded ChargePairs sequence.
func chargeAll(f *mpiio.File, charges []int64) {
	for _, n := range charges {
		f.ChargePairs(n)
	}
}

// accessRegion is where every call starts: the ranks exchange the bounds of
// their accesses ([st, en); st > en for a rank that moves nothing) and get the
// aggregate access region, empty (aarEn <= aarSt) when nobody moves a byte.
// *buf keeps what was gathered: rank r's bounds are (*buf)[r] and (*buf)[P+r].
func accessRegion(p *mpi.Proc, st, en int64, buf *[]int64) (aarSt, aarEn int64) {
	iv := p.Begin1(metrics.PExchange, trace.S("what", "bounds"))
	n := p.Size()
	all := sized(*buf, 2*n)
	*buf = all
	p.AllgatherInt64Into(st, all[:n])
	p.AllgatherInt64Into(en, all[n:])
	aarSt, aarEn = slices.Min(all[:n]), slices.Max(all[n:])
	p.End(iv)
	return aarSt, aarEn
}

// memoNotes is how each memo outcome is counted and traced.
var memoNotes = [...]struct {
	counter metrics.Counter
	result  string
}{
	memoMiss:   {metrics.CMemoMisses, "miss"},
	memoHit:    {metrics.CMemoHits, "hit"},
	memoRebase: {metrics.CMemoRebases, "rebase"},
}

// noteMemo records one side's memo lookup in the rank's counters and trace.
func noteMemo(p *mpi.Proc, side string, o memoOutcome) {
	n := memoNotes[o]
	p.Metrics.Inc(n.counter)
	p.Trace.Instant2(p.Clock(), "isect_cache", trace.S("side", side), trace.S("result", n.result))
}

// realms resolves the file realm set: the one persisted with the file, or the
// engine's assignment for this call, computed from the region and, for an
// assigner that reads them, the gathered accesses.
func (i *Impl) realms(f *mpiio.File, naggs int, aarSt, aarEn, dataLen int64) (*realm.Assignment, error) {
	if i.o.Persistent {
		// A resume must not honour realms persisted before the failure:
		// they still route file regions through the dead aggregator. The
		// failover assignment recomputed below replaces them via SetPFR.
		if prev := f.PFR(); prev != nil && !i.o.Journal.Resuming() {
			return prev, nil
		}
		// PFRs designate assignments for the entire file, anchored at
		// byte zero.
		aarSt = 0
		if sz := f.FS().Size(f.Name()); sz > aarEn {
			aarEn = sz
		}
	}
	var accesses [][]byte
	if i.o.Assigner.NeedsSegs() {
		accesses = gatherAllSegs(f, dataLen)
	}
	asg, pairs, err := i.assigned(f.Proc(), naggs, aarSt, aarEn, accesses)
	if err != nil {
		return nil, err
	}
	f.ChargePairs(pairs)
	if i.o.Persistent {
		f.SetPFR(asg)
	}
	return asg, nil
}

// assigned is the one path to an assignment: every rank of a call asks the
// engine's cache (see assignCache) under the same key, the first decodes the
// accesses, merges them and runs the assigner, the other P-1 receive the same
// immutable realms and the pairs the merge went through, which each charges.
func (i *Impl) assigned(p *mpi.Proc, naggs int, aarSt, aarEn int64, accesses [][]byte) (*realm.Assignment, int64, error) {
	key := assignKey{world: p.World(), naggs: naggs, start: aarSt, end: aarEn, accesses: hashSeed}
	for _, enc := range accesses {
		key.accesses = hashBytes(key.accesses, enc)
	}
	c := &i.assign
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.key != key { // never the zero key: it names a world
		ctx := realm.Context{NAggs: naggs, Start: aarSt, End: aarEn, Align: i.o.Align, NodeOf: p.Node}
		var pairs int64
		if accesses != nil {
			var err error
			if ctx.AllSegs, ctx.RankSegs, pairs, err = mergeAccessLists(accesses); err != nil {
				return nil, 0, err
			}
		}
		realms, err := i.o.Assigner.Assign(ctx)
		if err != nil {
			return nil, 0, fmt.Errorf("core: realm assignment: %w", err)
		}
		c.key, c.val, c.pairs = key, &realm.Assignment{Realms: realms, Sig: realmSignature(realms)}, pairs
	}
	return c.val, c.pairs, nil
}

// gatherAllSegs exchanges every rank's flattened access — the O(M) exchange
// some assigners (load balancing, node-local placement) genuinely need: P·M
// pairs arrive at every rank. A crashed rank's slot is nil.
func gatherAllSegs(f *mpiio.File, dataLen int64) [][]byte {
	return f.Proc().Allgather(datatype.EncodeSegs(f.ResolveAccess(dataLen)))
}

// mergeAccessLists decodes every rank's gathered access list (a nil slot
// reads as no access) and returns their sorted, coalesced union, the lists
// themselves — what topology-aware assigners attribute to nodes — and how
// many pairs went in. A list that does not decode is an error on every rank
// alike: they all hold the same gathered bytes, so the collective is left
// uniformly.
func mergeAccessLists(all [][]byte) (union []datatype.Seg, perRank [][]datatype.Seg, pairs int64, err error) {
	perRank = make([][]datatype.Seg, len(all))
	var merged []datatype.Seg
	for r, enc := range all {
		if enc == nil {
			continue
		}
		at := len(merged)
		if merged, err = datatype.DecodeSegsAppend(enc, merged); err != nil {
			return nil, nil, 0, fmt.Errorf("core: access list of rank %d: %w", r, err)
		}
		perRank[r] = slices.Clone(merged[at:])
	}
	slices.SortFunc(merged, func(a, b datatype.Seg) int { return cmp.Compare(a.Off, b.Off) })
	pairs = int64(len(merged))
	union = merged[:0]
	for _, s := range merged {
		if n := len(union); n > 0 && s.Off <= union[n-1].End() {
			if s.End() > union[n-1].End() {
				union[n-1].Len = s.End() - union[n-1].Off
			}
			continue
		}
		union = append(union, s)
	}
	return union, perRank, pairs, nil
}

// clientPieces intersects this rank's access with every realm into ce's
// piece lists and the pair charges the caller issues.
func (i *Impl) clientPieces(ms *planScratch, ce *clientEntry, myFlat datatype.Flat, realms []realm.Realm, cb int64) {
	if err := myFlat.CursorInto(&ms.ac); err != nil {
		panic(fmt.Sprintf("core: own access: %v", err)) // built from a validated filetype
	}
	naggs := len(realms)
	if i.o.HeapMerge {
		// Not sized(): the entries keep their tables and capacity.
		ms.rcs, ms.perAgg = slices.Grow(ms.rcs[:0], naggs)[:naggs], slices.Grow(ms.perAgg[:0], naggs)[:naggs]
		ms.rcPtrs = sized(ms.rcPtrs, naggs)
		for a := range realms {
			realms[a].CursorInto(&ms.rcs[a])
			ms.rcPtrs[a] = &ms.rcs[a]
			ms.perAgg[a] = ms.perAgg[a][:0]
		}
		work := heapMerge(&ms.heap, &ms.ac, ms.rcPtrs, cb, ms.perAgg) + ms.ac.Work()
		for a := range ms.rcs {
			work += ms.rcs[a].Work()
			ce.pieces.Add(ms.perAgg[a])
		}
		ce.charges = append(ce.charges, work)
		return
	}
	// The paper's base client algorithm: one pass over the access per
	// aggregator — O(M·A) for enumerated filetypes, near O(M) for
	// succinct ones thanks to instance skipping.
	for a := range realms {
		ms.ac.Reset()
		realms[a].CursorInto(&ms.rc)
		ms.pieces = datatype.Intersect(&ms.ac, &ms.rc, cb, ms.pieces[:0])
		ce.charges = append(ce.charges, ms.ac.Work()+ms.rc.Work())
		ce.pieces.Add(ms.pieces)
	}
}

// noAccess is the request of a rank that takes no part: dead, unresponsive,
// a pre-aggregated member, or one whose request could not be decoded.
var noAccess = datatype.Flat{Limit: -1}

// planAgg decodes the requests an aggregator received and merges them into
// its plan, replacing what ae held, with the pair charges the form issues. A
// request that cannot be used gets the empty stand-in a nil message (a dead
// rank) gets, and the first such error is returned for the first agreement to
// carry. [lo, hi) is the aggregate access region.
func (i *Impl) planAgg(ms *planScratch, ae *aggEntry, msgs [][]byte, realms []realm.Realm, rank int, lo, hi, cb int64) error {
	dlo, dhi := domain(realms, rank, hi)
	flats, pairs, bad := i.form.decode(ms, msgs, dlo, dhi)
	var err error
	ae.charges, err = ae.Build(ms, flats, realms[rank], lo, hi, cb, ae.charges[:0])
	if i.form == listRequests {
		// ROMIO's merge is charged by the pairs it received, not by the
		// intersections that locate them.
		ae.charges = append(ae.charges[:0], pairs)
	}
	if bad != nil {
		return bad
	}
	return err
}

// aggMiss finds or builds this aggregator's entry after an exact miss: the
// entry of the same request shape rebased (see rebase.go), or a fresh plan in
// the least recently used slot. The error is planAgg's.
func (i *Impl) aggMiss(scr *rankScratch, ak aggKey, realms []realm.Realm, rank int, lo, hi, cb int64) (*aggEntry, memoOutcome, error) {
	if i.rebases() {
		k, ae := scr.aggs.Find(func(k *aggKey, _ *aggEntry) bool {
			o := *k
			o.at = ak.at
			return o == ak
		})
		if ae != nil && ae.rebase(&scr.aggs, &scr.miss, scr.msgs, realms[rank], lo, hi, cb, ak.at-k.at) {
			return ae, memoRebase, nil
		}
	}
	ae := scr.aggs.Evict()
	err := i.planAgg(&scr.miss, ae, scr.msgs, realms, rank, lo, hi, cb)
	return ae, memoMiss, err
}

// checkPlans is the Validate cross-check of a memo hit or rebase: the plans
// are rebuilt from the requests just received and must equal the cached ones.
// The error seeds the first agreement, so a stale plan aborts every rank
// together before it can move a byte.
func (i *Impl) checkPlans(ms *planScratch, msgs [][]byte, ae *aggEntry, realms []realm.Realm, rank int, lo, hi, cb int64) error {
	var fresh aggEntry
	if err := i.planAgg(ms, &fresh, msgs, realms, rank, lo, hi, cb); err != nil {
		return err
	}
	if !fresh.equal(&ae.aggPlans) || !slices.Equal(fresh.charges, ae.charges) {
		return fmt.Errorf("core: memoized merge plan differs from a fresh build")
	}
	return nil
}

// roundPlan is one aggregator round with its merge already done: what is
// left per call is to walk order and move payload bytes. Plans depend only
// on what the aggregator memo key pins (requests, realms, cb), so a hit
// round does no comparisons and no lookups.
type roundPlan struct {
	Order []datatype.RunItem // every piece in file order, as (client, len)
	Segs  []datatype.Seg     // Order coalesced into the round's I/O list
	Total int64
	Peers []peerBytes // the clients with bytes in this round, in rank order
	at    int         // where Segs starts in the aggregator's segs block
}

// peerBytes is what one client moves in one round of an aggregator.
type peerBytes struct {
	Client int
	Bytes  int64
}

// aggPlans is an aggregator's merged rounds, up to the last its realm has data
// in, and the blocks they are cut from, which Build truncates and refills.
type aggPlans struct {
	Rounds []roundPlan
	order  []datatype.RunItem
	segs   []datatype.Seg
	peers  []peerBytes
}

// Round is round r's plan: an aggregator whose realm runs out before the
// collective's last round gets the empty plan.
func (ap *aggPlans) Round(r int) *roundPlan {
	if r >= len(ap.Rounds) {
		return &noRound
	}
	return &ap.Rounds[r]
}

// segsOf is the I/O list of rounds first..last, one slice of the block Build
// lays the rounds out in back to back: nothing is copied.
func (ap *aggPlans) segsOf(first, last int) []datatype.Seg {
	end := &ap.Rounds[last]
	return ap.segs[ap.Rounds[first].at : end.at+len(end.Segs)]
}

// equal reports whether two builds planned the same rounds.
func (ap *aggPlans) equal(o *aggPlans) bool {
	return slices.EqualFunc(ap.Rounds, o.Rounds, func(x, y roundPlan) bool {
		return x.Total == y.Total && slices.Equal(x.Order, y.Order) && slices.Equal(x.Segs, y.Segs) && slices.Equal(x.Peers, y.Peers)
	})
}

// Build intersects every client's access with this aggregator's realm and
// merges the pieces round by round into ap, replacing what it held, and
// returns charges extended by each client's pair work. The flats must have
// been validated (DecodeFlat, DecodeSegs); [lo, hi) is the aggregate access
// region the ranks agreed on, and a client with a piece outside it (a damaged
// request that still decoded: under an unbounded tail realm its offset would
// size the round table) is planned as absent and named in the error, which
// the caller's first agreement carries. The work happens in ms.
func (ap *aggPlans) Build(ms *planScratch, flats []datatype.Flat, rm realm.Realm, lo, hi, cb int64, charges []int64) ([]int64, error) {
	// Every client's pieces, as file segments with the round of each.
	ms.fileSegs, ms.pieceRound, ms.ends = ms.fileSegs[:0], ms.pieceRound[:0], ms.ends[:0]
	nrounds := 0
	var bad error
	rm.CursorInto(&ms.rc)
	for c := range flats {
		if err := flats[c].CursorInto(&ms.ac); err != nil {
			panic(fmt.Sprintf("core: request of rank %d: %v", c, err)) // validated at decode
		}
		ms.rc.Reset()
		ms.pieces = datatype.Intersect(&ms.ac, &ms.rc, cb, ms.pieces[:0])
		charges = append(charges, ms.ac.Work()+ms.rc.Work())
		at := len(ms.fileSegs)
		for _, pc := range ms.pieces {
			if pc.File.Off < lo || pc.File.End() > hi {
				if bad == nil {
					bad = fmt.Errorf("core: bad request from rank %d: bytes [%d,%d) outside the access region [%d,%d)", c, pc.File.Off, pc.File.End(), lo, hi)
				}
				ms.fileSegs, ms.pieceRound, ms.pieces = ms.fileSegs[:at], ms.pieceRound[:at], ms.pieces[:0]
				break
			}
			ms.fileSegs = append(ms.fileSegs, pc.File)
			ms.pieceRound = append(ms.pieceRound, int32(pc.Round))
		}
		if n := len(ms.pieces); n > 0 { // rounds never decrease along a client's pieces
			nrounds = max(nrounds, ms.pieces[n-1].Round+1)
		}
		ms.ends = append(ms.ends, len(ms.fileSegs))
	}

	// Merge round by round: client c's pieces of the round are the next ones
	// of its list.
	ms.next = append(ms.next[:0], 0)
	ms.next = append(ms.next, ms.ends[:len(ms.ends)-1]...)
	ms.clientRuns = sized(ms.clientRuns, len(flats))
	ms.segs, ms.peers, ms.cuts = ms.segs[:0], ms.peers[:0], ms.cuts[:0]
	order := slices.Grow(ap.order[:0], len(ms.fileSegs)) // shared by all rounds
	rounds := sized(ap.Rounds, nrounds)
	for r := range rounds {
		rp := &rounds[r]
		for c := range flats {
			lo, hi := ms.next[c], ms.next[c]
			var n int64
			for ; hi < ms.ends[c] && ms.pieceRound[hi] == int32(r); hi++ {
				n += ms.fileSegs[hi].Len
			}
			ms.next[c] = hi
			ms.clientRuns[c] = ms.fileSegs[lo:hi]
			if n > 0 {
				ms.peers = append(ms.peers, peerBytes{Client: c, Bytes: n})
			}
		}
		rp.Order, ms.roundSegs, rp.Total = ms.merger.Merge(ms.clientRuns, order[len(order):], ms.roundSegs)
		order = order[:len(order)+len(rp.Order)]
		ms.segs = append(ms.segs, ms.roundSegs...)
		ms.cuts = append(ms.cuts, len(ms.segs), len(ms.peers))
	}
	segs, peers := append(ap.segs[:0], ms.segs...), append(ap.peers[:0], ms.peers...)
	var s0, p0 int
	for r := range rounds {
		s1, p1 := ms.cuts[2*r], ms.cuts[2*r+1]
		rounds[r].Segs, rounds[r].Peers, rounds[r].at = segs[s0:s1:s1], peers[p0:p1:p1], s0
		s0, p0 = s1, p1
	}
	ap.Rounds, ap.order, ap.segs, ap.peers = rounds, order, segs, peers
	return charges, bad
}
