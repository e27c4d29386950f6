// Package twophase is the baseline: a faithful model of the original
// ROMIO-style two-phase collective I/O implementation the paper compares
// against (Thakur, Gropp, Lusk — "Data sieving and collective I/O in
// ROMIO").
//
// Its defining characteristics, all modelled:
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
//
// The first two are this package, a planner: it decides what every rank
// exchanges with every aggregator in every round and charges what ROMIO's
// planning costs. The last two are settings (core.Blocking,
// mpiio.IntegratedSieve) of the round executor it shares with
// flexio/internal/core. There is no round loop here.
package twophase

import (
	"encoding/binary"
	"fmt"
	"slices"

	"flexio/internal/core"
	"flexio/internal/datatype"
	"flexio/internal/metrics"
	"flexio/internal/mpiio"
	"flexio/internal/realm"
	"flexio/internal/stats"
	"flexio/internal/trace"
)

const tagReq = 1000

// Impl implements mpiio.Collective. Like core.Impl, one Impl is shared by
// every rank goroutine of a world (plan memo and scratch are per rank) and
// must not serve two concurrently running worlds.
type Impl struct {
	// exec runs the rounds, and holds the journal and the degrade hook (see
	// NewJournaled, NewDegradable).
	exec core.Executor
	// preagg enables the node-local pre-aggregation stage (see preagg.go).
	preagg bool
	// validate cross-checks every aggregator memo hit (see WithValidate).
	validate bool

	scratch core.RankTable[rankScratch]
}

func newImpl(j *mpiio.WriteJournal, degrade func() bool) *Impl {
	return &Impl{exec: core.Executor{Comm: core.Blocking, Journal: j, Degrade: degrade}}
}

// New returns the baseline implementation.
func New() *Impl { return newImpl(nil, nil) }

// NewJournaled returns the baseline with a write journal attached: reruns
// against the same journal skip rounds that were already durable when a
// previous attempt aborted. The baseline has no realm flexibility: a
// recovered rank resumes its old fixed file domain, so the journal's epoch is
// the domain layout itself.
func NewJournaled(j *mpiio.WriteJournal) *Impl { return newImpl(j, nil) }

// NewDegradable returns the baseline with a dynamic degrade hook, the
// tenant service's entry point for routing jobs off a failing OST: while
// the hook reports true, failed sieve rounds fall back to naive I/O
// (touching only useful bytes) instead of aborting the collective. It is
// called only on round failures and must be safe for concurrent use.
func NewDegradable(degrade func() bool) *Impl { return newImpl(nil, degrade) }

// WithPreagg enables node-local pre-aggregation (the two-level exchange)
// and returns the receiver for chaining with any constructor. It requires
// a node map on the world to have any effect; with the default identity
// map every rank is its own leader and the stage is a no-op.
func (i *Impl) WithPreagg() *Impl {
	i.preagg = true
	return i
}

// WithValidate makes every aggregator memo hit rebuild its plan from the
// requests just received and abort the collective unless it equals the
// cached one (core.Options.Validate for this engine: a debugging aid that
// costs a miss in host time, nothing in virtual). It returns the receiver.
func (i *Impl) WithValidate() *Impl {
	i.validate = true
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

// The plan memo keeps the contract of core's (core/memo.go): an entry is a
// pure function of its key, every communication step still happens on a hit
// (requests are sent and received, only building and decoding them is
// skipped), and the pair charges planning would have issued are replayed in
// the original order, so clocks and counters cannot tell a hit from a miss.
//
// clientKey pins what a rank's requests and stream ranges depend on: its
// access (filetype by identity, displacement, size) and the file domains, a
// function of the aggregate access region and the aggregator count, cut into
// rounds of cb bytes.
type clientKey struct {
	ft            datatype.Type
	disp, dataLen int64
	cb            int64
	naggs         int
	aarSt, aarEn  int64
}

type clientEntry struct {
	encs   [][]byte        // the request sent to each aggregator: its share of the pairs
	enc    []byte          // the block they are cut from
	pieces core.PieceLists // per aggregator, the stream range of each round
	pairs  int64           // ChargePairs replay of the split
}

// aggKey replaces the access with a hash of the request messages received
// this call, so any client changing its access misses.
type aggKey struct {
	req          uint64
	cb           int64
	naggs        int
	aarSt, aarEn int64
}

// aggEntry is an aggregator's merge plan at the size this engine can afford:
// the clients' entries already hold every pair of the file once, as
// encodings, and full round plans (the merge order at 16 bytes a piece, the
// I/O lists at 16 more) would hold it twice again. The entry keeps what the
// merge decided, the client each piece comes from; aggWalk reads the rest of
// a round off the requests as they arrive, along that order.
type aggEntry struct {
	from   []int32 // the client of every piece: file order within a round, rounds back to back
	rounds []aggRound
	peers  []core.PeerBytes // every round's, back to back
	widest int              // pieces of the largest round
	pairs  int64            // ChargePairs replay: every pair received
}

// equal reports whether two builds planned the same rounds.
func (ae *aggEntry) equal(o *aggEntry) bool {
	return ae.widest == o.widest && ae.pairs == o.pairs && slices.Equal(ae.from, o.from) &&
		slices.EqualFunc(ae.rounds, o.rounds, func(x, y aggRound) bool {
			return x.pieces == y.pieces && x.total == y.total && slices.Equal(x.peers, y.peers)
		})
}

type aggRound struct {
	pieces int // how many entries of from are this round's
	total  int64
	peers  []core.PeerBytes
}

// aggWalk serves an aggregator's rounds to the executor (core.AggRounds),
// decoding every client's request once per call, piece by piece in the
// entry's order: a piece is the rest of its client's current pair up to the
// end of the round's window. One round is materialized at a time (the
// blocking exchange is done with a round before it asks for the next).
type aggWalk struct {
	ae     *aggEntry
	lo, cb int64 // the domain's start and the window size
	// Per client, the pairs of its request not yet handed out in full, and
	// the bytes of the first of them that were.
	cur []struct {
		pairs []byte
		used  int64
	}
	next  int // first entry of ae.from not yet walked
	order []datatype.RunItem
	segs  []datatype.Seg
	plan  core.RoundPlan
}

func (w *aggWalk) start(ae *aggEntry, msgs [][]byte, lo, cb int64) {
	w.ae, w.lo, w.cb, w.next = ae, lo, cb, 0
	w.cur = core.Sized(w.cur, len(msgs))
	for c, msg := range msgs {
		if len(msg) > 4 {
			w.cur[c].pairs = msg[4:]
		}
	}
	if cap(w.order) < ae.widest {
		w.order, w.segs = make([]datatype.RunItem, 0, ae.widest), make([]datatype.Seg, 0, ae.widest)
	}
}

// Round implements core.AggRounds.
func (w *aggWalk) Round(r int) *core.RoundPlan {
	w.plan = core.RoundPlan{}
	if r >= len(w.ae.rounds) {
		return &w.plan // the domain ran out before this round
	}
	rd := &w.ae.rounds[r]
	order, segs := w.order[:0], w.segs[:0]
	whi := w.lo + int64(r+1)*w.cb
	for _, c := range w.ae.from[w.next : w.next+rd.pieces] {
		cu := &w.cur[c]
		if len(cu.pairs) < 16 {
			break // only a collision of the memo key gets here; the executor refuses the short list
		}
		off := int64(binary.LittleEndian.Uint64(cu.pairs))
		end := off + int64(binary.LittleEndian.Uint64(cu.pairs[8:]))
		off += cu.used
		if end <= whi {
			cu.pairs, cu.used = cu.pairs[16:], 0
		} else {
			cu.used += whi - off
			end = whi
		}
		order = append(order, datatype.RunItem{Run: c, Len: end - off})
		if n := len(segs); n > 0 && segs[n-1].End() == off {
			segs[n-1].Len += end - off
		} else {
			segs = append(segs, datatype.Seg{Off: off, Len: end - off})
		}
	}
	w.next += rd.pieces
	w.order, w.segs = order, segs
	w.plan = core.RoundPlan{Order: order, Segs: segs, Total: rd.total, Peers: rd.peers}
	return &w.plan
}

// rankScratch is one rank's plan memo and working memory across calls.
type rankScratch struct {
	clients core.Memo[clientKey, clientEntry]
	aggs    core.Memo[aggKey, aggEntry]

	rounds core.RoundScratch
	walk   aggWalk
	// Node-local pre-aggregation: the stage's state and this rank's whole
	// access as a member forwards it.
	pre    core.PreaggState
	preEnc []byte
	bounds []int64
	msgs   [][]byte
	disps  []int64
	// last is the access the rank flattened last. A steady caller repeats
	// it, and what flattening is needed for before the file domains are known
	// (its pair charge and the access bounds) replays from here.
	last struct {
		ft            datatype.Type
		disp, dataLen int64
		work          int64 // pairs the flattening evaluated
		st, en        int64 // first and last+1 offset; st > en when empty
	}
	plan planScratch
}

// planScratch is what planning needs and the entries do not keep. Like
// core's, it is dropped by the first call that hits on both sides.
type planScratch struct {
	core   core.PlanScratch
	plans  core.AggPlans    // the merge, before an entry keeps what it decided
	ends   []int            // where each aggregator's request ends in the encoding block
	mine   []datatype.Seg   // this rank's flattened access
	share  []datatype.Seg   // one aggregator's share of it
	pieces []datatype.Piece // that share cut at the round windows
	reqs   []datatype.Seg   // every request received, decoded into one block
	flats  []datatype.Flat
}

func (i *Impl) collective(f *mpiio.File, buf []byte, memtype datatype.Type, count int64, write bool) error {
	// A write's stream is read in place by the aggregators (each gets a view
	// of its contiguous share); a read's is private. Pre-aggregation swaps
	// the stream (a member hands its own to the leader, a leader continues
	// with the merged one).
	cs, err := f.CollectiveStream(buf, memtype, count, write, true)
	if err != nil {
		return err
	}
	err = i.run(f, &cs, buf, memtype, count, write)
	// Not deferred: the round-boundary agreements order every reader of
	// the stream's views before a normal return, but an injected crash
	// unwinds this rank while an aggregator may still be gathering from
	// them, and a dying rank must drop its stream, not pool it.
	cs.Release()
	return err
}

// run is the collective call proper, on an already linearized stream:
// planning here, execution in core.
func (i *Impl) run(f *mpiio.File, cs *mpiio.Stream, buf []byte, memtype datatype.Type, count int64, write bool) error {
	p := f.Proc()
	cb := f.Info().CollBufSize
	naggs := f.Info().CbNodes
	if naggs == 0 {
		naggs = p.Size()
	}
	amAgg := p.Rank() < naggs
	dataLen := datatype.TotalSize(memtype, count)
	view := f.View()
	scr := i.scratch.For(p.Rank(), p.Size())
	ps, last := &scr.plan, &scr.last

	// Flatten the whole access: the O(M) flattened-access representation is
	// this implementation's currency. A repeated access replays the charge;
	// under pre-aggregation the pairs themselves go to the node leader.
	var mySegs []datatype.Seg
	flattened := i.preagg || last.ft != view.Filetype || last.disp != view.Disp || last.dataLen != dataLen
	if flattened {
		last.ft, last.disp, last.dataLen = view.Filetype, view.Disp, dataLen
		ps.mine, last.work = f.AppendAccess(ps.mine[:0], dataLen)
		mySegs = ps.mine
		last.st, last.en = 1<<62, -1
		if n := len(mySegs); n > 0 {
			last.st, last.en = mySegs[0].Off, mySegs[n-1].End()
		}
	}
	f.ChargePairs(last.work)

	aarSt, aarEn := core.AccessRegion(p, last.st, last.en, &scr.bounds)
	if aarEn <= aarSt {
		return nil // no process accesses any data
	}

	// Node-local pre-aggregation, after the bounds exchange so the aggregate
	// region reflects every rank's true access: the node leaders absorb
	// their members' segments and payloads, members continue with an empty
	// access. The merged lists are deduplicated unions, so the domains and
	// round windows carve out exactly the byte sets the members would have
	// shipped individually.
	var pre *core.PreaggState
	if i.preagg {
		pre = &scr.pre
		scr.preEnc = datatype.AppendSegsEncoding(scr.preEnc[:0], mySegs)
		if merged, swapped := pre.Exchange(f, i.exec.Journal.Dead(), cs, scr.preEnc, segRuns, dataLen, scr.bounds, write); swapped {
			mySegs = merged
		}
	}

	// Even file domains over the aggregate access region, realm.Even's
	// unaligned arithmetic: aggregator a owns [aarSt+a*chunk, +chunk), the
	// last one whatever lies beyond. Domain 0 is never the shortest, so it
	// sets the round count every rank walks.
	d := domains{st: aarSt, en: aarEn, chunk: (aarEn - aarSt + int64(naggs) - 1) / int64(naggs), naggs: naggs}
	ntimes := int((d.chunk + cb - 1) / cb)

	// Metrics: even domains are whatever the aggregate access region
	// dictates, so misalignment against the stripe width is the common case.
	if p.Metrics != nil {
		stripe := f.FS().Config().StripeSize
		scr.disps = core.Sized(scr.disps, naggs)
		var misaligned int64
		for a := range scr.disps {
			lo, hi := d.of(a)
			scr.disps[a] = min(lo, aarEn)
			if lo < hi && lo%stripe != 0 {
				misaligned++
			}
		}
		p.Metrics.Add(metrics.CRealmsAssigned, int64(naggs))
		p.Metrics.Add(metrics.CRealmsMisaligned, misaligned)
		p.Metrics.SetGauge(metrics.GNAggs, float64(naggs))
		if p.Rank() == 0 {
			p.Metrics.SetRealmContext(naggs, stripe, 0, scr.disps)
			p.Metrics.SetTopology(p.NodeCount())
		}
	}

	// Split my access per aggregator and ship the offset/length pairs: O(M)
	// processing, O(M) request bytes on the wire. A pre-aggregated access
	// depends on what the co-residents asked for, which the key does not
	// pin, so it is planned on every call.
	t0 := p.Clock()
	p.Trace.Begin1(t0, stats.PExchange, trace.S("what", "requests"))
	ck := clientKey{ft: view.Filetype, disp: view.Disp, dataLen: dataLen,
		cb: cb, naggs: naggs, aarSt: aarSt, aarEn: aarEn}
	var ce *clientEntry
	if !i.preagg {
		ce = scr.clients.Get(ck)
	}
	clientHit := ce != nil
	core.NoteMemo(p, "client", clientHit)
	if !clientHit {
		if !flattened { // the last access again, but the domains moved under it
			ps.mine, _ = f.AppendAccess(ps.mine[:0], dataLen)
			mySegs = ps.mine
		}
		ce = scr.clients.Evict()
		ps.planClient(ce, mySegs, d, cb)
		if !i.preagg {
			scr.clients.Keep(ck)
		}
	}
	f.ChargePairs(ce.pairs)
	for a := 0; a < naggs; a++ {
		p.Stats.Add(stats.CReqBytes, int64(len(ce.encs[a])))
		p.Send(a, tagReq, ce.encs[a])
	}

	// Aggregators receive every rank's request list and merge them into a
	// plan. The exchange always happens; only decoding and merging are
	// memoizable, keyed by a hash of the bytes actually received.
	var ae *aggEntry
	aggHit := false
	// planErr is a request this aggregator could not use. The sender got the
	// empty stand-in of a dead rank, so the collective keeps its shape up to
	// the first agreement, which the error seeds: every rank aborts.
	var planErr error
	if amAgg {
		scr.msgs = core.Sized(scr.msgs, p.Size())
		h := core.HashSeed
		for c := range scr.msgs {
			// A nil message is a dead or unresponsive client: its access
			// reads as empty, so the collective keeps its structure through
			// to the next agreement (deserting here would strand the
			// surviving ranks in their exchanges).
			scr.msgs[c], _ = p.Recv(c, tagReq)
			h = core.HashBytes(h, scr.msgs[c])
		}
		ak := aggKey{req: h, cb: cb, naggs: naggs, aarSt: aarSt, aarEn: aarEn}
		ae = scr.aggs.Get(ak)
		aggHit = ae != nil
		core.NoteMemo(p, "agg", aggHit)
		if !aggHit {
			ae = scr.aggs.Evict()
			planErr = ps.planAgg(ae, scr.msgs, d, p.Rank(), cb)
			// A failure-degraded request set (stand-ins for dead or unusable
			// senders) must not poison the cache for later healthy calls: it
			// goes without a key.
			if p.PeerFailure() == nil && planErr == nil {
				scr.aggs.Keep(ak)
			}
		} else if i.validate {
			var fresh aggEntry
			if planErr = ps.planAgg(&fresh, scr.msgs, d, p.Rank(), cb); planErr == nil && !fresh.equal(ae) {
				planErr = fmt.Errorf("twophase: memoized merge plan differs from a fresh build")
			}
		}
		f.ChargePairs(ae.pairs)
	}
	p.ChargeTime(stats.PExchange, p.Clock()-t0)
	p.Trace.End(p.Clock())
	if clientHit && (!amAgg || aggHit) {
		*ps = planScratch{} // nothing to plan: see planScratch
	}

	// A request list that arrived corrupted past the re-request budget
	// reads as an empty access. A read's aggregator would then never send
	// that client its pieces, and the client, whose own view of its access is
	// intact, would wait forever: a deadlock, not an abort. Only the
	// receiving aggregator knows, so when the checksummed datapath is armed
	// every rank rendezvous here and aborts before the rounds begin.
	if p.World().IntegrityEnabled() {
		reqErr := planErr
		if ierr := p.TakeIntegrityFailure(); ierr != nil {
			reqErr = fmt.Errorf("twophase: request exchange: %w", ierr)
		}
		if err := mpiio.AgreeError(p, reqErr); err != nil {
			return err
		}
	}

	if j := i.exec.Journal; write && j != nil {
		// The journal epoch is the file-domain layout: a rerun after
		// recovery sees the same fixed domains and can skip the rounds
		// already durable (the flexio engine's failover reassignment starts
		// a fresh epoch when realms move).
		h := core.HashSeed
		for _, v := range [...]int64{int64(naggs), cb, aarSt, aarEn} {
			h = core.HashInt64(h, v)
		}
		j.Begin(h)
		if j.Resuming() && p.Rank() == 0 {
			p.Metrics.NoteFailover(j.Dead(), naggs)
			for _, dead := range j.Dead() {
				p.Trace.Instant2(p.Clock(), trace.FailoverName,
					trace.I(trace.DeadTag, int64(dead)), trace.I(trace.RealmsTag, int64(naggs)))
			}
		}
	}

	// Execution. A leader whose pre-aggregation lost a member seeds the
	// first agreement like an unusable request does, so every rank aborts
	// before a partial merge becomes durable.
	plan := core.Plan{Pieces: &ce.pieces, Rounds: ntimes, Method: mpiio.IntegratedSieve, Err: planErr}
	if amAgg {
		lo, _ := d.of(p.Rank())
		scr.walk.start(ae, scr.msgs, lo, cb)
		plan.Agg = &scr.walk
	}
	if pre != nil && pre.Err != nil {
		plan.Err = pre.Err
	}
	err := i.exec.Rounds(f, &scr.rounds, cs.B, &plan, write)
	// Reads under pre-aggregation: the leader scatters each member its
	// bytes and takes back its own; an abort above skips this uniformly.
	if err == nil && !write && pre != nil {
		err = pre.Scatter(f, cs, dataLen)
	}
	return i.exec.Finish(f, cs.B, buf, memtype, count, write, err)
}

// domains is the even partition of the aggregate access region [st, en).
type domains struct {
	st, en, chunk int64
	naggs         int
}

// of returns aggregator a's file domain [lo, hi); lo >= hi when the region
// ran out before it.
func (d domains) of(a int) (lo, hi int64) {
	lo = d.st + int64(a)*d.chunk
	return lo, min(lo+d.chunk, d.en)
}

// planClient splits an offset-sorted access at the domain boundaries and
// encodes each aggregator's share as its request. The domains ascend, so the
// shares follow one another in the access and in the stream its bytes occupy
// back to back; each share is cut again at its domain's round windows, which
// gives the stream range the aggregator receives (or sends back) per round.
func (ps *planScratch) planClient(ce *clientEntry, segs []datatype.Seg, d domains, cb int64) {
	ce.pairs = int64(len(segs))
	ce.pieces.Start(d.naggs)
	enc, ends := ce.enc[:0], ps.ends[:0]
	share, pieces := ps.share[:0], ps.pieces[:0]
	a := 0
	lo, hi := d.of(0)
	seal := func() {
		enc = datatype.AppendSegsEncoding(enc, share)
		ends = append(ends, len(enc))
		ce.pieces.Add(pieces)
		share, pieces = share[:0], pieces[:0]
		a++
		lo, hi = d.of(a)
	}
	var pos int64 // stream position of the next byte
	for _, s := range segs {
		for off := s.Off; off < s.End(); {
			for a < d.naggs-1 && off >= hi {
				seal()
			}
			end := s.End()
			if a < d.naggs-1 {
				end = min(end, hi)
			}
			share = append(share, datatype.Seg{Off: off, Len: end - off})
			for off < end {
				r := (off - lo) / cb
				n := min(end, lo+(r+1)*cb) - off
				pieces = append(pieces, datatype.Piece{Round: int(r), File: datatype.Seg{Off: off, Len: n}, AStream: pos})
				off, pos = off+n, pos+n
			}
		}
	}
	for a < d.naggs {
		seal()
	}
	ps.share, ps.pieces, ps.ends, ce.enc = share, pieces, ends, enc
	ce.encs = ce.encs[:0]
	at := 0
	for _, end := range ends {
		ce.encs, at = append(ce.encs, enc[at:end:end]), end
	}
}

// planAgg decodes the requests an aggregator received and merges them into
// its plan, replacing what ae held. A request that does not decode, or asks for bytes outside this
// aggregator's domain, gets the empty stand-in a nil message (a dead rank)
// gets, and the first such error is returned for the first agreement to
// carry.
func (ps *planScratch) planAgg(ae *aggEntry, msgs [][]byte, d domains, rank int, cb int64) error {
	lo, hi := d.of(rank)
	ps.reqs, ps.flats = ps.reqs[:0], core.Sized(ps.flats, len(msgs))
	ae.pairs, ae.widest = 0, 0
	var bad error
	for c, msg := range msgs {
		ps.flats[c] = datatype.Flat{Limit: -1} // no access
		if msg == nil {
			continue
		}
		at := len(ps.reqs)
		var err error
		ps.reqs, err = datatype.DecodeSegsAppend(msg, ps.reqs)
		req := ps.reqs[at:len(ps.reqs):len(ps.reqs)]
		if n := len(req); err == nil && n > 0 && (req[0].Off < lo || req[n-1].End() > hi) {
			err = fmt.Errorf("pairs [%d,%d) outside file domain [%d,%d)", req[0].Off, req[n-1].End(), lo, hi)
			ps.reqs = ps.reqs[:at]
		}
		switch {
		case err != nil && bad == nil:
			bad = fmt.Errorf("twophase: bad request from rank %d: %w", c, err)
		case err == nil && len(req) > 0:
			ae.pairs += int64(len(req))
			ps.flats[c] = datatype.Flat{Extent: req[len(req)-1].End(), Count: 1, Limit: -1, Segs: req}
		}
	}
	var dom realm.Realm
	if lo < hi {
		dom = realm.Realm{Disp: lo, Pattern: datatype.Bytes(hi - lo), Count: 1}
	}
	// Merge with the shared kernel and keep the order it decided.
	ps.plans.Build(&ps.core, ps.flats, dom, lo, hi, cb, nil) // every request checked against [lo, hi) above
	plans := ps.plans.Rounds
	pieces, peers := 0, 0
	for r := range plans {
		pieces, peers = pieces+len(plans[r].Order), peers+len(plans[r].Peers)
	}
	ae.from, ae.peers, ae.rounds = slices.Grow(ae.from[:0], pieces), slices.Grow(ae.peers[:0], peers), core.Sized(ae.rounds, len(plans))
	for r := range plans {
		at := len(ae.peers)
		ae.peers = append(ae.peers, plans[r].Peers...)
		ae.rounds[r] = aggRound{pieces: len(plans[r].Order), total: plans[r].Total, peers: ae.peers[at:len(ae.peers):len(ae.peers)]}
		ae.widest = max(ae.widest, len(plans[r].Order))
		for _, it := range plans[r].Order {
			ae.from = append(ae.from, it.Run)
		}
	}
	return bad
}
