package core

import (
	"cmp"
	"fmt"
	"reflect"
	"slices"
	"sync"

	"flexio/internal/bufpool"
	"flexio/internal/datatype"
	"flexio/internal/metrics"
	"flexio/internal/mpi"
	"flexio/internal/mpiio"
	"flexio/internal/realm"
	"flexio/internal/stats"
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
)

// String names the strategy.
func (c CommStrategy) String() string {
	if c == Alltoallw {
		return "alltoallw"
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
	// least CondThreshold and data sieving below it (paper §6.3).
	Conditional bool
	// CondThreshold is the extent crossover for Conditional; zero means
	// 24 KB, the crossover measured on this repository's simulated
	// system (the paper measured ~16 KB on its Lustre testbed and notes
	// the exact numbers are unique to the particular system, §6.3).
	CondThreshold int64
	// HeapMerge enables the client-side binary-heap merge across
	// aggregator realms instead of one access pass per aggregator.
	HeapMerge bool
	// TreeRequests ships the filetype's constructor tree instead of its
	// flattened form in the request exchange (paper §5.3's "higher
	// level description"): smaller still for regular nested types, at
	// the cost of the aggregator expanding the tree on arrival.
	TreeRequests bool
	// Degraded enables graceful degradation: when a round's buffer
	// access fails under data sieving, the aggregator re-issues that
	// round with naive per-segment I/O before reporting an error
	// (conditional sieving repurposed as fault recovery — naive I/O
	// touches only the useful bytes, so it sidesteps faults on the
	// sieve path).
	Degraded bool
	// Degrade, when non-nil, extends Degraded dynamically: the fallback
	// additionally engages whenever it reports true at the moment a sieve
	// round fails. A tenancy layer points it at its per-OST circuit
	// breakers so collectives already in flight route around a browning-
	// out target without reopening the file. It is called only on round
	// failures (never on the hot path) and must be safe for concurrent
	// use by all ranks.
	Degrade func() bool
	// Preagg enables node-local pre-aggregation (two-level exchange):
	// under the installed node map, each node's leader merges its
	// co-residents' accesses and payload streams and exchanges with the
	// aggregators on their behalf, so only one rank per node talks across
	// the network. Requires a node map with multi-rank nodes to have any
	// effect; output stays byte-identical to the per-rank exchange.
	// Overrides TreeRequests (merged accesses have no constructor tree, so
	// every request travels in flattened form).
	Preagg bool
	// SpreadAggs spreads the cb_nodes aggregators across distinct nodes
	// instead of packing the first ranks: when the hint asks for fewer
	// aggregators than ranks, every rank keeps an (often empty) slot and
	// realms are handed round-robin across nodes via realm.Spread, so
	// node-major rank placement no longer funnels all aggregation traffic
	// through the first node's NIC. Off by default — the packed layout is
	// what ROMIO does and what the rank-chaos victim logic assumes.
	SpreadAggs bool
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
// goroutine of a world; the memo cache is locked, and mutable per-call
// scratch is segregated per rank. Because scratch is keyed by rank index,
// a single Impl must not serve two concurrently running worlds — give
// each simulation its own engine instance (the global buffer pools are
// still shared).
type Impl struct {
	o    Options
	memo memoCache

	mu      sync.Mutex
	scratch []*rankScratch
}

// rankScratch is one rank's reusable working memory across collective
// calls: the merge outputs, exchange bookkeeping, and iovec tables that
// would otherwise be reallocated every round. A rank never holds these
// across a rendezvous where a peer could still read them — everything
// here is either rank-private or consumed by peers before the round's
// closing collective (see the ownership notes in writeRounds/readRounds).
type rankScratch struct {
	allSt, allEn []int64
	msgs         [][]byte
	miss         missScratch
	cur          []viewCursor // per-client read position while gathering a round
	iov          [][][]byte   // views this rank sends, per destination
	recvIov      [][][]byte   // views this rank received, per source (nonblocking)
	waited       [][][]byte   // WaitallIov output, in request order
	reqs         []*mpi.Request
	from         []int
	realmDisps   []int64
	// Node-local pre-aggregation working set (see preagg.go).
	pre        preaggState
	preBufs    [][]byte
	mergedSegs []datatype.Seg
	leaders    []bool
}

// missScratch is the working memory of planning a layout the memo has not
// seen: everything the intersections and the round merge need and the stored
// entry does not keep. It stays in the rank scratch while misses recur (a
// checkpoint loop installs a new view, and misses, on every call) and is
// dropped by the first call that hits on both sides, so the build of one
// large enumerated layout does not stay pinned under a steady state that
// never plans again.
type missScratch struct {
	// ac and rc are the access and realm cursors of the intersection in
	// progress, re-pointed (never rebuilt) per client and per aggregator.
	ac, rc datatype.Cursor
	pieces []datatype.Piece // one intersection's output

	// Client side: every aggregator's grouped rounds, before the entry's
	// arenas are cut to size; cuts holds (len(runs), len(rounds)) after each
	// aggregator (and, in turn, the aggregator side's (len(segs), len(peers))
	// after each round).
	runs   []streamRun
	rounds []roundSpan
	cuts   []int
	// HeapMerge: one realm cursor and one piece list per aggregator.
	heap   realmHeap
	rcs    []datatype.Cursor
	rcPtrs []*datatype.Cursor
	perAgg [][]datatype.Piece

	// Aggregator side: the decoded requests (segments in one block), then
	// every client's pieces as file segments in client order with the round
	// of each, client c's ending at ends[c]; next[c] walks them round by
	// round. merger, clientRuns and roundSegs serve one round's merge; segs
	// and peers collect all rounds' results before the entry's blocks are
	// cut to size.
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
}

// degradeNow reports whether a failed sieve round should fall back to
// naive I/O: statically via Options.Degraded, or dynamically while the
// Degrade hook (a tenancy layer's breaker check) says so.
func (i *Impl) degradeNow() bool {
	return i.o.Degraded || (i.o.Degrade != nil && i.o.Degrade())
}

func (i *Impl) scratchFor(rank int) *rankScratch {
	i.mu.Lock()
	defer i.mu.Unlock()
	for len(i.scratch) <= rank {
		i.scratch = append(i.scratch, nil)
	}
	if i.scratch[rank] == nil {
		i.scratch[rank] = &rankScratch{}
	}
	return i.scratch[rank]
}

// sized returns s truncated/grown to n entries, reusing capacity.
func sized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	var zero T
	for k := range s {
		s[k] = zero
	}
	return s
}

// New builds an engine with the given options.
func New(o Options) *Impl {
	if o.Assigner == nil {
		o.Assigner = realm.Even{}
	}
	if o.CondThreshold <= 0 {
		o.CondThreshold = 24 << 10
	}
	return &Impl{o: o}
}

// Name implements mpiio.Collective.
func (i *Impl) Name() string {
	return fmt.Sprintf("flexio(%s,%s)", i.o.Assigner.Name(), i.o.Comm)
}

// Options returns the engine's configuration.
func (i *Impl) Options() Options { return i.o }

// WriteAll implements mpiio.Collective.
func (i *Impl) WriteAll(f *mpiio.File, buf []byte, memtype datatype.Type, count int64) error {
	return i.collective(f, buf, memtype, count, true)
}

// ReadAll implements mpiio.Collective.
func (i *Impl) ReadAll(f *mpiio.File, buf []byte, memtype datatype.Type, count int64) error {
	return i.collective(f, buf, memtype, count, false)
}

// roundPieces is what one client exchanges with one aggregator, grouped by
// two-phase round (client side; the aggregator keeps a roundPlan instead).
// Only the stream side of a piece matters once the rounds are formed, so
// the pieces are kept as ranges of the client's data stream.
type roundPieces struct {
	// runs lists every round's pieces in the order the payload travels
	// (file-offset order), neighbours that are adjacent in the stream
	// merged into one range: both ends consume payloads by byte count, so
	// a range is one view however many pieces it covers.
	runs []streamRun
	// rounds[r] locates round r's runs and carries their byte count;
	// rounds the access skips are zero.
	rounds []roundSpan
}

// streamRun is a contiguous range of a client's linear data stream.
type streamRun struct{ at, n int64 }

type roundSpan struct {
	first, end int // into runs
	bytes      int64
}

// groupRounds forms the rounds of one aggregator's pieces, which the
// intersection emitted with non-decreasing rounds, appending the stream runs
// to runs and one roundSpan per round up to the last to rounds (spans index
// the runs appended here, from zero). It may reorder ps and keeps no
// reference to it: all three slices are the caller's scratch.
func groupRounds(ps []datatype.Piece, runs []streamRun, rounds []roundSpan) ([]streamRun, []roundSpan) {
	base, rbase := len(runs), len(rounds)
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
		for len(rounds)-rbase < r {
			rounds = append(rounds, roundSpan{}) // a round the access skips
		}
		sp := roundSpan{first: len(runs) - base}
		for ; k < end; k++ {
			pc := ps[k]
			sp.bytes += pc.File.Len
			if n := len(runs); n > base+sp.first && runs[n-1].at+runs[n-1].n == pc.AStream {
				runs[n-1].n += pc.File.Len
			} else {
				runs = append(runs, streamRun{at: pc.AStream, n: pc.File.Len})
			}
		}
		sp.end = len(runs) - base
		rounds = append(rounds, sp)
	}
	return runs, rounds
}

func (rp *roundPieces) of(r int) []streamRun {
	if r >= len(rp.rounds) {
		return nil
	}
	return rp.runs[rp.rounds[r].first:rp.rounds[r].end]
}

func (rp *roundPieces) bytes(r int) int64 {
	if r >= len(rp.rounds) {
		return 0
	}
	return rp.rounds[r].bytes
}

// sealPieces cuts a client entry's piece lists out of scratch: every
// aggregator's runs in one block and rounds in another, each at its exact
// size, with cuts as groupRounds' caller recorded them.
func sealPieces(runs []streamRun, rounds []roundSpan, cuts []int) []roundPieces {
	runs, rounds = slices.Clone(runs), slices.Clone(rounds)
	out := make([]roundPieces, len(cuts)/2)
	var r0, s0 int
	for a := range out {
		r1, s1 := cuts[2*a], cuts[2*a+1]
		out[a] = roundPieces{runs: runs[r0:r1:r1], rounds: rounds[s0:s1:s1]}
		r0, s0 = r1, s1
	}
	return out
}

func (i *Impl) collective(f *mpiio.File, buf []byte, memtype datatype.Type, count int64, write bool) error {
	// --- Linearize user data. A write's stream is the user's bytes in
	// stream order — the caller's buffer itself when the memory type is
	// dense, a packed pooled copy otherwise — and peers read it in place:
	// every exchange hands the aggregators views of it. A read's stream is
	// private. Node-local pre-aggregation swaps the stream (a member hands
	// its own to the leader, a leader continues with the merged one).
	var cs mpiio.Stream
	if write {
		// Alltoallw communicates directly from the user buffer: its
		// linearization is free of charge. Nonblocking models the pack.
		var err error
		if cs, err = f.Linearize(buf, memtype, count, i.o.Comm != Alltoallw); err != nil {
			return err
		}
	} else {
		cs = mpiio.ReadStreamBuf(datatype.TotalSize(memtype, count))
	}
	err := i.run(f, &cs, buf, memtype, count, write)
	// Not deferred: every consumer of the stream's views is ordered before
	// a normal return by the closing Barrier/AgreeError rendezvous, but an
	// injected crash unwinds this rank while peers may still be reading
	// them, and a dying rank must drop its stream, not pool it.
	cs.Release()
	return err
}

// run is the collective call proper, on an already linearized stream.
func (i *Impl) run(f *mpiio.File, cs *mpiio.Stream, buf []byte, memtype datatype.Type, count int64, write bool) error {
	p := f.Proc()
	info := f.Info()
	cb := info.CollBufSize
	dataLen := datatype.TotalSize(memtype, count)

	naggs := info.CbNodes
	if naggs == 0 {
		naggs = p.Size()
	}
	// Spreading keeps one slot per rank but gives realms to only the
	// cb_nodes slots realm.Spread picks across nodes; the other slots are
	// inert (empty realm, zero exchange bytes), exactly like a failed-over
	// aggregator's.
	spreadActive := 0
	if i.o.SpreadAggs && naggs < p.Size() && p.NodeCount() > 1 {
		spreadActive = naggs
		naggs = p.Size()
	}
	amAgg := p.Rank() < naggs
	scr := i.scratchFor(p.Rank())

	// --- Describe the access succinctly. ---
	view := f.View()
	ftSize := view.Filetype.Size()
	var myFlat datatype.Flat
	if dataLen > 0 && ftSize > 0 {
		instances := (dataLen + ftSize - 1) / ftSize
		myFlat = datatype.FlatOf(view.Filetype, view.Disp, instances)
		myFlat.Limit = dataLen
	} else {
		myFlat = datatype.FlatOf(datatype.Bytes(0), view.Disp, 0)
		myFlat.Limit = 0
	}
	f.ChargePairs(int64(len(myFlat.Segs)))

	// --- Aggregate access region. ---
	var st, en int64 = 1 << 62, -1
	if dataLen > 0 {
		st, en = f.AccessBounds(dataLen)
	}
	t0 := p.Clock()
	p.Trace.Begin1(t0, stats.PExchange, trace.S("what", "bounds"))
	scr.allSt = sized(scr.allSt, p.Size())
	scr.allEn = sized(scr.allEn, p.Size())
	allSt, allEn := scr.allSt, scr.allEn
	p.AllgatherInt64Into(st, allSt)
	p.AllgatherInt64Into(en, allEn)
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
		return nil
	}

	// --- File realms. ---
	realms, err := i.realms(f, naggs, spreadActive, aarSt, aarEn, dataLen)
	if err != nil {
		return err
	}
	if i.o.Validate {
		if err := realm.Coverage(realms, aarSt, aarEn); err != nil {
			return fmt.Errorf("core: %w", err)
		}
	}

	// --- Metrics: realm layout health (alignment against the actual
	// stripe width) and the flight recorder's layout context. ---
	if p.Metrics != nil {
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
	}

	// --- Node-local pre-aggregation: leaders absorb their co-residents'
	// accesses and streams, members fall silent for the rest of the call.
	var pre *preaggState
	if i.o.Preagg {
		myFlat, pre = i.preaggExchange(f, scr, cs, myFlat, dataLen, write)
	}

	// --- Memoized layout lookup (client side). The key pins everything
	// the piece lists depend on; see memo.go for the invalidation rules.
	// On a hit, the request encoding and intersections are reused and the
	// ChargePairs sequence the miss path would issue is replayed verbatim,
	// so virtual time and stats are unaffected.
	sig := realmSignature(realms)
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
	ck := clientKey{rank: p.Rank(), ft: view.Filetype, disp: view.Disp,
		dataLen: dataLen, cb: cb, naggs: naggs, sig: sig}
	if pre != nil {
		ck.pre = pre.pre
	}
	ce := i.memo.getClient(ck)
	clientHit := ce != nil
	if clientHit {
		p.Stats.Add(stats.CIsectCacheHits, 1)
		p.Metrics.Inc(metrics.CMemoHits)
		p.Trace.Instant2(p.Clock(), "isect_cache",
			trace.S("side", "client"), trace.S("result", "hit"))
	} else {
		p.Stats.Add(stats.CIsectCacheMisses, 1)
		p.Metrics.Inc(metrics.CMemoMisses)
		p.Trace.Instant2(p.Clock(), "isect_cache",
			trace.S("side", "client"), trace.S("result", "miss"))
		ce = &clientEntry{}
		if i.o.TreeRequests && pre == nil {
			// A merged access has no constructor tree; pre-aggregated
			// requests always travel in flattened form.
			ce.enc = encodeTreeRequest(view.Filetype, myFlat.Disp, myFlat.Count, myFlat.Limit)
		} else {
			ce.enc = myFlat.Encode()
		}
	}

	// --- Request exchange: flattened filetypes (O(D) on the wire) or
	// constructor trees (smaller still for regular nested types). The
	// exchange itself always happens — only the decoding is memoizable,
	// keyed by a hash of the bytes actually received. ---
	t0 = p.Clock()
	p.Trace.Begin1(t0, stats.PExchange, trace.S("what", "requests"))
	if pre == nil || pre.plan.Leads(p.Rank()) {
		for a := 0; a < naggs; a++ {
			p.Stats.Add(stats.CReqBytes, int64(len(ce.enc)))
			p.Send(a, tagFlat, ce.enc)
		}
	}
	var ae *aggEntry
	var ak aggKey
	aggHit := false
	var flats []datatype.Flat
	// reqErr is a request this aggregator could not decode. The sender got
	// the empty stand-in of a dead rank, so the collective keeps its shape
	// up to the first agreement, which the error seeds: every rank aborts.
	var reqErr error
	if amAgg {
		if pre != nil {
			// Only node leaders send merged requests; members get the same
			// empty-access stand-in a dead rank would.
			scr.leaders = sized(scr.leaders, p.Size())
			p.NodeLeadersInto(scr.leaders, i.o.Journal.Dead())
		}
		scr.msgs = sized(scr.msgs, p.Size())
		h := uint64(hashSeed)
		for c := 0; c < p.Size(); c++ {
			var msg []byte
			if pre == nil || scr.leaders[c] {
				msg, _ = p.Recv(c, tagFlat)
			}
			scr.msgs[c] = msg
			h = hashBytes(h, msg)
		}
		ak = aggKey{rank: p.Rank(), req: h, cb: cb, naggs: naggs, sig: sig}
		ae = i.memo.getAgg(ak)
		aggHit = ae != nil
		if aggHit {
			p.Stats.Add(stats.CIsectCacheHits, 1)
			p.Metrics.Inc(metrics.CMemoHits)
			p.Trace.Instant2(p.Clock(), "isect_cache",
				trace.S("side", "agg"), trace.S("result", "hit"))
		} else {
			p.Stats.Add(stats.CIsectCacheMisses, 1)
			p.Metrics.Inc(metrics.CMemoMisses)
			p.Trace.Instant2(p.Clock(), "isect_cache",
				trace.S("side", "agg"), trace.S("result", "miss"))
			var expand int64
			flats, expand, reqErr = i.decodeRequests(&scr.miss, scr.msgs, pre == nil)
			ae = &aggEntry{charges: make([]int64, 1, 1+len(flats))}
			ae.charges[0] = expand
		}
		f.ChargePairs(ae.charges[0]) // tree expansion, replayed on a hit
	}
	p.ChargeTime(stats.PExchange, p.Clock()-t0)
	p.Trace.End(p.Clock())

	// --- Client-side intersection: my access against every realm. ---
	// Flatten time is charged (and traced) by the ChargePairs calls below;
	// no blanket interval here, or the pair processing would count twice.
	if clientHit && (!amAgg || aggHit) {
		scr.miss = missScratch{} // nothing to plan: see missScratch
	}
	if !clientHit {
		if dataLen > 0 {
			ce.pieces, ce.charges = i.clientPieces(&scr.miss, myFlat, realms, cb)
		} else {
			ce.pieces = make([]roundPieces, naggs)
		}
		i.memo.putClient(ck, ce)
	}
	for _, n := range ce.charges {
		f.ChargePairs(n)
	}
	myPieces := ce.pieces

	// --- Aggregator-side intersection: every client's filetype against
	// my realm, merged into one plan per round. ---
	myRounds := 0
	var planErr error
	if amAgg {
		if !aggHit {
			buildPlans(&scr.miss, ae, flats, realms[p.Rank()], cb)
			// A failure-degraded request set (stand-ins for dead or
			// undecodable senders above) must not poison the cache for
			// later healthy collectives.
			if p.PeerFailure() == nil && reqErr == nil {
				i.memo.putAgg(ak, ae)
			}
			planErr = reqErr
		} else if i.o.Validate {
			planErr = i.checkPlans(&scr.miss, scr.msgs, ae, realms[p.Rank()], cb, pre == nil)
		}
		for _, n := range ae.charges[1:] {
			f.ChargePairs(n)
		}
		myRounds = len(ae.rounds)
	}

	ntimes := int(p.AllreduceMaxInt64(int64(myRounds)))
	if ntimes == 0 {
		p.Barrier()
		// A peer failure can shrink the surviving access to nothing; the
		// barrier's rendezvous delivered the same failure version to every
		// survivor, so this abort is uniform.
		if perr := p.PeerFailure(); perr != nil {
			return fmt.Errorf("%w (rank %d: %v)",
				mpiio.ClassError(mpiio.ClassUnresponsive), p.Rank(), perr)
		}
		// Corrupted control-plane traffic can also shrink the access to
		// nothing: a flat-access payload that exhausted its re-request
		// budget reads as an empty access, so no rounds run and the
		// sticky failure armed at the receiver would otherwise leak into
		// the next collective. Agree on it here so every rank aborts with
		// ClassIntegrity instead of silently writing nothing. Requests no
		// aggregator could decode shrink it the same way.
		ierr := planErr
		if e := p.TakeIntegrityFailure(); e != nil {
			ierr = fmt.Errorf("core: access exchange: %w", e)
		}
		if err := mpiio.AgreeError(p, ierr); err != nil {
			return err
		}
		if !write {
			return f.UnpackMemory(cs.B, buf, memtype, count)
		}
		return nil
	}

	method := i.o.Method
	if i.o.Conditional {
		// Conditional data sieving: decide by the (globally agreed)
		// filetype extent of the access.
		ext := p.AllreduceMaxInt64(view.Filetype.Extent())
		if ext >= i.o.CondThreshold {
			method = mpiio.Naive
		} else {
			method = mpiio.DataSieve
		}
	}

	preErr := planErr
	if pre != nil && pre.err != nil {
		preErr = pre.err
	}
	if write {
		err = i.writeRounds(f, scr, cs.B, myPieces, ae, ntimes, naggs, method, preErr)
	} else {
		err = i.readRounds(f, scr, cs.B, myPieces, ae, ntimes, naggs, method, preErr)
		if pre != nil {
			err = i.preaggScatter(f, scr, cs, pre, dataLen, err)
		}
	}

	// Synchronize before reporting: a rank that hit a local I/O error
	// must still complete the collective (its peers are in the barrier).
	p.Barrier()
	if err != nil {
		return err
	}
	// Success: retire the journal's recovery state. Every rank is past its
	// rounds (the barrier above), so clearing the committed set and the
	// resume flags here cannot race a Done check, and the next collective
	// on this engine starts fresh instead of skipping rounds or
	// re-reporting the failover.
	i.o.Journal.Complete()
	if !write {
		return f.UnpackMemory(cs.B, buf, memtype, count)
	}
	return nil
}

// realms resolves the file realm set, honouring persistence.
func (i *Impl) realms(f *mpiio.File, naggs, spreadActive int, aarSt, aarEn, dataLen int64) ([]realm.Realm, error) {
	if i.o.Persistent {
		// A resume must not honour realms persisted before the failure:
		// they still route file regions through the dead aggregator. The
		// failover assignment recomputed below replaces them via SetPFR.
		if prev := f.PFR(); prev != nil && !i.o.Journal.Resuming() {
			return prev, nil
		}
	}
	ctx := realm.Context{
		NAggs:  naggs,
		Start:  aarSt,
		End:    aarEn,
		Align:  i.o.Align,
		NodeOf: f.Proc().Node,
	}
	if i.o.Persistent {
		// PFRs designate assignments for the entire file, anchored at
		// byte zero.
		ctx.Start = 0
		if sz := f.FS().Size(f.Name()); sz > ctx.End {
			ctx.End = sz
		}
	}
	if i.o.Assigner.NeedsSegs() {
		ctx.AllSegs, ctx.RankSegs = i.gatherAllSegs(f, dataLen)
	}
	assigner := i.o.Assigner
	if spreadActive > 0 {
		// Spread nests inside Failover: dead slots drop out first, then
		// the spread picks among the survivors, so a resume never routes
		// a realm through a dead rank.
		if fo, ok := assigner.(realm.Failover); ok {
			fo.Base = realm.Spread{Base: fo.Base, Active: spreadActive}
			assigner = fo
		} else {
			assigner = realm.Spread{Base: assigner, Active: spreadActive}
		}
	}
	realms, err := assigner.Assign(ctx)
	if err != nil {
		return nil, fmt.Errorf("core: realm assignment: %w", err)
	}
	if i.o.Persistent {
		f.SetPFR(realms)
	}
	return realms, nil
}

// gatherAllSegs builds the combined flattened access of every rank — the
// O(M) exchange some assigners (load balancing) genuinely need — and the
// per-rank lists topology-aware assigners attribute to nodes.
func (i *Impl) gatherAllSegs(f *mpiio.File, dataLen int64) ([]datatype.Seg, [][]datatype.Seg) {
	p := f.Proc()
	mine := f.ResolveAccess(dataLen)
	all := p.Allgather(datatype.EncodeSegs(mine))
	perRank := make([][]datatype.Seg, p.Size())
	var merged []datatype.Seg
	for r, enc := range all {
		segs, err := datatype.DecodeSegs(enc)
		if err != nil {
			continue
		}
		perRank[r] = segs
		merged = append(merged, segs...)
	}
	slices.SortFunc(merged, func(a, b datatype.Seg) int {
		switch {
		case a.Off < b.Off:
			return -1
		case a.Off > b.Off:
			return 1
		}
		return 0
	})
	out := merged[:0]
	for _, s := range merged {
		if n := len(out); n > 0 && s.Off <= out[n-1].End() {
			if s.End() > out[n-1].End() {
				out[n-1].Len = s.End() - out[n-1].Off
			}
			continue
		}
		out = append(out, s)
	}
	f.ChargePairs(int64(len(merged)))
	return out, perRank
}

// clientPieces intersects this rank's access with every realm and returns
// the per-aggregator piece lists, cut to size out of scratch, with the pair
// charges the caller issues.
func (i *Impl) clientPieces(ms *missScratch, myFlat datatype.Flat, realms []realm.Realm, cb int64) ([]roundPieces, []int64) {
	if err := myFlat.CursorInto(&ms.ac); err != nil {
		panic(fmt.Sprintf("core: own access: %v", err)) // built from a validated filetype
	}
	naggs := len(realms)
	ms.runs, ms.rounds, ms.cuts = ms.runs[:0], ms.rounds[:0], ms.cuts[:0]
	var charges []int64
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
			ms.runs, ms.rounds = groupRounds(ms.perAgg[a], ms.runs, ms.rounds)
			ms.cuts = append(ms.cuts, len(ms.runs), len(ms.rounds))
		}
		charges = []int64{work}
	} else {
		// The paper's base client algorithm: one pass over the access per
		// aggregator — O(M·A) for enumerated filetypes, near O(M) for
		// succinct ones thanks to instance skipping.
		charges = make([]int64, naggs)
		for a := range realms {
			ms.ac.Reset()
			realms[a].CursorInto(&ms.rc)
			ms.pieces = datatype.Intersect(&ms.ac, &ms.rc, cb, ms.pieces[:0])
			charges[a] = ms.ac.Work() + ms.rc.Work()
			ms.runs, ms.rounds = groupRounds(ms.pieces, ms.runs, ms.rounds)
			ms.cuts = append(ms.cuts, len(ms.runs), len(ms.rounds))
		}
	}
	return sealPieces(ms.runs, ms.rounds, ms.cuts), charges
}

// noAccess is the request of a rank that takes no part: dead, unresponsive,
// a pre-aggregated member, or one whose request could not be decoded.
var noAccess = datatype.Flat{Limit: -1}

// decodeRequests turns the request messages an aggregator received into
// accesses in ms, returning the tree-expansion work alongside. A nil message
// stands in an empty access so the collective keeps its structure through to
// the next agreement point; deserting here would strand the surviving ranks.
// A message that does not decode gets the same stand-in, and the first such
// error is returned for that agreement to carry.
func (i *Impl) decodeRequests(ms *missScratch, msgs [][]byte, trees bool) (flats []datatype.Flat, expand int64, bad error) {
	ms.flats, ms.reqSegs = slices.Grow(ms.flats[:0], len(msgs))[:len(msgs)], ms.reqSegs[:0]
	flats = ms.flats
	for c, msg := range msgs {
		var err error
		switch {
		case msg == nil:
			flats[c] = noAccess
		case i.o.TreeRequests && trees:
			var work int64
			flats[c], work, err = decodeTreeRequest(msg)
			expand += work
		default:
			flats[c], ms.reqSegs, err = datatype.DecodeFlatAppend(msg, ms.reqSegs)
		}
		if err == nil && flats[c].Count < 0 {
			err = fmt.Errorf("unbounded access (count %d)", flats[c].Count)
		}
		if err != nil {
			flats[c] = noAccess
			if bad == nil {
				bad = fmt.Errorf("core: bad request from rank %d: %w", c, err)
			}
		}
	}
	return flats, expand, bad
}

// roundPlan is one aggregator round with its merge already done: what is
// left per call is to walk order and move payload bytes. Plans depend only
// on what the aggregator memo key pins (requests, realms, cb), so a hit
// round does no comparisons and no lookups.
type roundPlan struct {
	order []datatype.RunItem // every piece in file order, as (client, len)
	segs  []datatype.Seg     // order coalesced into the round's I/O list
	total int64
	peers []peerBytes // the clients with bytes in this round, in rank order
}

type peerBytes struct {
	client int
	bytes  int64
}

// buildPlans intersects every client's access with this aggregator's realm
// and merges the pieces round by round into ae.rounds, appending the
// per-client pair charges (which the caller issues) to ae.charges. The work
// happens in ms; what the entry keeps is allocated once the sizes are known:
// one block each for all rounds' order, segs and peers.
func buildPlans(ms *missScratch, ae *aggEntry, flats []datatype.Flat, rm realm.Realm, cb int64) {
	// Every client's pieces, as file segments with the round of each.
	ms.fileSegs, ms.pieceRound, ms.ends = ms.fileSegs[:0], ms.pieceRound[:0], ms.ends[:0]
	nrounds := 0
	rm.CursorInto(&ms.rc)
	for c := range flats {
		if err := flats[c].CursorInto(&ms.ac); err != nil {
			panic(fmt.Sprintf("core: request of rank %d: %v", c, err)) // decodeRequests validated it
		}
		ms.rc.Reset()
		ms.pieces = datatype.Intersect(&ms.ac, &ms.rc, cb, ms.pieces[:0])
		ae.charges = append(ae.charges, ms.ac.Work()+ms.rc.Work())
		for _, pc := range ms.pieces {
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
	order := make([]datatype.RunItem, 0, len(ms.fileSegs)) // shared by all rounds
	ae.rounds = make([]roundPlan, nrounds)
	for r := range ae.rounds {
		rp := &ae.rounds[r]
		for c := range flats {
			lo, hi := ms.next[c], ms.next[c]
			var n int64
			for ; hi < ms.ends[c] && ms.pieceRound[hi] == int32(r); hi++ {
				n += ms.fileSegs[hi].Len
			}
			ms.next[c] = hi
			ms.clientRuns[c] = ms.fileSegs[lo:hi]
			if n > 0 {
				ms.peers = append(ms.peers, peerBytes{client: c, bytes: n})
			}
		}
		rp.order, ms.roundSegs, rp.total = ms.merger.Merge(ms.clientRuns, order[len(order):], ms.roundSegs)
		order = order[:len(order)+len(rp.order)]
		ms.segs = append(ms.segs, ms.roundSegs...)
		ms.cuts = append(ms.cuts, len(ms.segs), len(ms.peers))
	}
	segs, peers := slices.Clone(ms.segs), slices.Clone(ms.peers)
	var s0, p0 int
	for r := range ae.rounds {
		s1, p1 := ms.cuts[2*r], ms.cuts[2*r+1]
		ae.rounds[r].segs, ae.rounds[r].peers = segs[s0:s1:s1], peers[p0:p1:p1]
		s0, p0 = s1, p1
	}
}

// checkPlans is the Validate cross-check of a memo hit: the plans are
// rebuilt from the requests just received and must equal the cached ones.
// The error seeds the first round-boundary agreement, so a stale plan
// aborts every rank together before it can move a byte.
func (i *Impl) checkPlans(ms *missScratch, msgs [][]byte, ae *aggEntry, rm realm.Realm, cb int64, trees bool) error {
	flats, expand, err := i.decodeRequests(ms, msgs, trees)
	if err != nil {
		return err
	}
	fresh := &aggEntry{charges: []int64{expand}}
	buildPlans(ms, fresh, flats, rm, cb)
	if !reflect.DeepEqual(fresh, ae) {
		return fmt.Errorf("core: memoized merge plan differs from a fresh build")
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
// only host copy of the shuffle. cur is zeroed per-client scratch. A dead
// sender's slot arrives nil and is skipped (the caller's peer-failure guard
// aborts the round, and WriteStream refuses a short buffer regardless).
func (rp *roundPlan) gather(dst []byte, cur []viewCursor, views [][][]byte) []byte {
	for _, it := range rp.order {
		c := it.Run
		for n := it.Len; n > 0; {
			b := cur[c].take(views[c], n)
			if b == nil {
				break
			}
			dst = append(dst, b...)
			n -= int64(len(b))
		}
	}
	return dst
}

// pieceViews appends one view of the stream per round-r run of pieces: the
// iovec both transports carry by reference, with no client-side copy.
func pieceViews(dst [][]byte, stream []byte, rp *roundPieces, r int) [][]byte {
	for _, run := range rp.of(r) {
		dst = append(dst, stream[run.at:run.at+run.n])
	}
	return dst
}

// roundIov returns the scratch iovec table truncated to one empty
// per-rank slot, reusing the inner slices' capacity.
func roundIov(scr *rankScratch, size int) [][][]byte {
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

func (i *Impl) writeRounds(f *mpiio.File, scr *rankScratch, stream []byte,
	myPieces []roundPieces, ae *aggEntry, ntimes, naggs int, method mpiio.Method, preErr error) error {

	p := f.Proc()
	amAgg := ae != nil

	// Pending I/O from the previous round (nonblocking pipeline). On an
	// I/O error the rank keeps participating in the round's exchange
	// (deserting a collective would deadlock the communicator); at each
	// round boundary all ranks agree on the worst error class and either
	// all continue or all abort with the same error.
	//
	// pendSegs aliases the round's (immutable) plan.
	var pendSegs []datatype.Seg
	var pendData []byte
	firstErr := preErr // a leader's failed pre-aggregation aborts round 0
	j := i.o.Journal

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
		if err != nil && i.degradeNow() && method == mpiio.DataSieve {
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
		rp := ae.round(r)

		// Both strategies carry views of the stream, one per run of
		// pieces, by reference: no client-side payload copy on the host. The views
		// are dead before this rank reuses the iovec table or recycles the
		// stream, because the aggregators gather them before the round's
		// closing AgreeError.
		send := roundIov(scr, p.Size())
		for a := 0; a < naggs; a++ {
			send[a] = pieceViews(send[a], stream, &myPieces[a], r)
		}
		var recvIov [][][]byte
		if i.o.Comm == Alltoallw {
			t0 := p.Clock()
			p.Trace.Begin1(t0, stats.PComm, trace.S("what", "alltoallv"))
			recvIov = p.AlltoallvIov(send)
			p.ChargeTime(stats.PComm, p.Clock()-t0)
			p.Trace.End(p.Clock())
		} else {
			// Nonblocking: post receives, send, then overlap the
			// previous round's file I/O with the incoming data.
			t0 := p.Clock()
			p.Trace.Begin1(t0, stats.PComm, trace.S("what", "post+send"))
			reqs := scr.reqs[:0]
			for _, pb := range rp.peers {
				reqs = append(reqs, p.Irecv(pb.client, tagData+r%1024))
			}
			for a := 0; a < naggs; a++ {
				if n := myPieces[a].bytes(r); n > 0 {
					// The modelled pack of the message.
					f.ChargeCopy(n)
					p.IsendIov(a, tagData+r%1024, send[a])
				}
			}
			p.ChargeTime(stats.PComm, p.Clock()-t0)
			p.Trace.End(p.Clock())

			// Overlap: previous round's I/O happens while this
			// round's data is in flight.
			flush(r - 1)

			t0 = p.Clock()
			p.Trace.Begin1(t0, stats.PComm, trace.S("what", "waitall"))
			if amAgg {
				scr.recvIov = sized(scr.recvIov, p.Size())
				recvIov = scr.recvIov
				scr.waited = mpi.WaitallIov(reqs, scr.waited)
				for k, pb := range rp.peers {
					recvIov[pb.client] = scr.waited[k]
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
				total = rp.total
			}
			roundRecv = total
			if total > 0 {
				p.Trace.Instant2(p.Clock(), "round_bytes",
					trace.I(trace.RoundTag, int64(r)), trace.I(trace.BytesTag, total))
				// Assemble the collective buffer (gap-free: only
				// useful data, unlike the integrated sieve buffer).
				// This is the single host copy of the shuffle; only the
				// nonblocking model charges it.
				scr.cur = sized(scr.cur, p.Size())
				concat := rp.gather(bufpool.Get(total)[:0], scr.cur, recvIov)
				if i.o.Comm != Alltoallw {
					f.ChargeCopy(total)
				}
				pendSegs, pendData = rp.segs, concat
				if i.o.Comm == Alltoallw {
					// No pipeline in collective mode: write now.
					flush(r)
				}
			}
		}
		p.Trace.End(p.Clock()) // round span

		// Flight record before the boundary agreement, so an aborting
		// round's exchange traffic is still captured. (The last round's
		// pipelined write lands after its record — see the final flush.)
		if p.Metrics != nil {
			var sendBytes int64
			for a := 0; a < naggs; a++ {
				sendBytes += myPieces[a].bytes(r)
			}
			p.Metrics.EndRound(p.Stats, probe, r, amAgg, sendBytes, roundRecv)
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

func (i *Impl) readRounds(f *mpiio.File, scr *rankScratch, stream []byte,
	myPieces []roundPieces, ae *aggEntry, ntimes, naggs int, method mpiio.Method, preErr error) error {

	p := f.Proc()
	amAgg := ae != nil
	firstErr := preErr // a leader's failed pre-aggregation aborts round 0

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
		// Both strategies serve each client views of the pooled read
		// buffer, one per piece, by reference: the buffer is retired only
		// after the round's AgreeError, once every client has placed its
		// data.
		probe := p.Metrics.BeginRound(p.Stats)
		sendIov := roundIov(scr, p.Size())
		var retire []byte
		rp := ae.round(r)
		roundRecv := rp.total
		if amAgg {
			segs, total := rp.segs, rp.total
			if total > 0 {
				p.Trace.Instant2(p.Clock(), "round_bytes",
					trace.I(trace.RoundTag, int64(r)), trace.I(trace.BytesTag, total))
				// ReadStream fills every byte of rbuf on success; on
				// error the agreement below aborts the collective, so
				// stale pooled contents are never placed.
				rbuf := bufpool.Get(total)
				if firstErr != nil {
					clear(rbuf)
				} else {
					err := f.ReadStream(segs, rbuf, method)
					if err != nil && i.degradeNow() && method == mpiio.DataSieve {
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
				for _, it := range rp.order {
					sendIov[it.Run] = append(sendIov[it.Run], rbuf[pos:pos+it.Len])
					pos += it.Len
				}
				retire = rbuf
				if i.o.Comm != Alltoallw {
					// The modelled split into per-client messages.
					f.ChargeCopy(total)
				}
			}
		}

		// Exchange.
		t0 := p.Clock()
		p.Trace.Begin1(t0, stats.PComm, trace.S("what", "exchange"))
		var recv [][][]byte
		if i.o.Comm == Alltoallw {
			recv = p.AlltoallvIov(sendIov)
		} else {
			reqs := scr.reqs[:0]
			from := scr.from[:0]
			for a := 0; a < naggs; a++ {
				if myPieces[a].bytes(r) > 0 {
					reqs = append(reqs, p.Irecv(a, tagBack+r%1024))
					from = append(from, a)
				}
			}
			for _, pb := range rp.peers {
				p.IsendIov(pb.client, tagBack+r%1024, sendIov[pb.client])
			}
			scr.recvIov = sized(scr.recvIov, p.Size())
			recv = scr.recvIov
			scr.waited = mpi.WaitallIov(reqs, scr.waited)
			for k, a := range from {
				recv[a] = scr.waited[k]
			}
			scr.reqs, scr.from = reqs[:0], from[:0]
		}
		for a := 0; a < naggs; a++ {
			// A dead or stalled aggregator's slot is nil: nothing is
			// placed, and the round-boundary agreement below aborts the
			// read before any partial data reaches the user buffer.
			placeIov(stream, &myPieces[a], r, recv[a])
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
			var sendBytes int64
			for a := 0; a < naggs; a++ {
				sendBytes += myPieces[a].bytes(r)
			}
			p.Metrics.EndRound(p.Stats, probe, r, amAgg, sendBytes, roundRecv)
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
func placeIov(stream []byte, rp *roundPieces, r int, views [][]byte) {
	var cur viewCursor
	for _, run := range rp.of(r) {
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
