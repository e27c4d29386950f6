// Package pfs simulates a Lustre-like striped parallel file system: files
// striped across object storage targets (OSTs) with per-OST service queues,
// a page-granular distributed lock manager with client-side lock caching,
// per-client page caches that absorb read-modify-write penalties, and a
// virtual-time cost model.
//
// Data correctness and timing are deliberately separated: every write is
// applied to the (sparse) file image immediately, so simulated contents are
// always exact; the lock manager and caches only determine how much virtual
// time an access costs. This mirrors the paper's use of Lustre, where the
// observed effects — 4 KB page-alignment spikes (Figure 5), lock ping-pong
// between unaligned file realms, and cache locality from persistent file
// realms (Figure 7) — are all timing effects.
package pfs

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"flexio/internal/datatype"
	"flexio/internal/integrity"
	"flexio/internal/metrics"
	"flexio/internal/pagetab"
	"flexio/internal/sim"
	"flexio/internal/trace"
)

// Op identifies a file system operation for fault injection and tracing.
type Op struct {
	Kind   string // "read", "write"
	Client int    // client id (assigned in Open order — not run-deterministic)
	Name   string
	Off    int64 // starting file offset (first segment / sieve span start)
	Len    int64 // data bytes moved (for sieve ops: useful bytes, not span bytes)
	Seq    int64 // 1-based per-client operation sequence number
	Round  int   // collective two-phase round, -1 outside a collective
	Sieve  bool  // issued by the data-sieving path (RMW prefetch or span write)
}

// FaultHook, if non-nil, is consulted before each operation; returning a
// non-nil error aborts the operation without side effects. Hooks run
// without fs.mu held, so they may call back into the FileSystem.
type FaultHook func(Op) error

// FileSystem is the shared simulated storage system. It is safe for
// concurrent use by many client goroutines.
type FileSystem struct {
	mu      sync.Mutex
	cfg     *sim.Config
	files   map[string]*fileData
	fileIDs map[string]int32 // every name ever opened -> its id; see fileData.id
	osts    []ostState
	nextID  int
	clients map[int]*Client
	sched   *FaultSchedule
	// integ/isums form the at-rest integrity layer (nil = disabled): every
	// stored page gets a checksum recorded at write time and verified on
	// read, with quarantine + ring repair on mismatch. Set once by
	// EnableIntegrity before I/O starts; never cleared.
	integ *integrity.Hasher
	isums *integrity.Store
	// zero is one page of zeros, what fileData.views returns for holes and
	// for bytes past the end of a file. Nothing writes it.
	zero []byte
}

type ostState struct {
	busyUntil sim.Time           // latest completion handed out (diagnostics)
	buckets   map[int64]sim.Time // service time binned by virtual arrival time
	lastEnd   []int64            // by file id: last served end offset, for seek detection
}

// head returns where the OST stopped in the file (0 before it first served
// it).
func (o *ostState) head(file int32) *int64 {
	for int(file) >= len(o.lastEnd) {
		o.lastEnd = append(o.lastEnd, 0)
	}
	return &o.lastEnd[file]
}

// The OST queueing model must be independent of the wall-clock order in
// which rank goroutines happen to reach the file system: ranks carry
// virtual clocks, and goroutine scheduling must not let a virtually-later
// request delay a virtually-earlier one (that both inflates totals and
// makes runs nondeterministic). Instead of a busy-until queue, each OST
// tracks how much service time arrived in a sliding window of virtual
// time; work in excess of the window length (the server's capacity over
// that span) is backlog that delays the request. Bucketed sums make the
// computation commutative, so processing order cannot matter.
// queueWindow trades off two errors: it must exceed the virtual-clock skew
// between ranks submitting "simultaneously" (so reordering is harmless),
// but bursts totalling less than the window see no contention at all, so
// it must stay well below the service time of a round's aggregate I/O.
const (
	queueWindow  sim.Time = 0.032
	queueBuckets          = 32
)

// serve admits one request with service time svc arriving at virtual time
// t and returns its completion time.
func (o *ostState) serve(t, svc sim.Time) sim.Time {
	if o.buckets == nil {
		o.buckets = make(map[int64]sim.Time)
	}
	width := queueWindow / queueBuckets
	bi := int64(t / width)
	o.buckets[bi] += svc
	var recent sim.Time
	for k := bi - queueBuckets + 1; k <= bi; k++ {
		recent += o.buckets[k]
	}
	done := t + svc + max(recent-queueWindow, 0)
	o.busyUntil = max(o.busyUntil, done)
	if len(o.buckets) > 16*queueBuckets {
		for k := range o.buckets {
			if k < bi-2*queueBuckets {
				delete(o.buckets, k)
			}
		}
	}
	return done
}

type fileData struct {
	name string
	// id indexes this file in the per-file tables kept outside it (client
	// page caches, OST head positions), so the per-page paths never hash
	// the name. An id belongs to the name for the life of the file system:
	// a name removed and created again gets its old id back, and what
	// clients still cache under it survives exactly as it did when those
	// tables were keyed by name.
	id   int32
	size int64
	// pages holds, by page index, the page's content and its lock.
	pages pagetab.Table[pageSlot]
	// stripeWriter holds, by stripe index, the id of the last client that
	// wrote into the stripe (0 = nobody yet); a different writer pays a
	// server-side extent-lock transfer (StripeLockCost) and invalidates
	// the previous writer's cached pages in the stripe.
	stripeWriter pagetab.Table[int]
}

// pageSlot is one page of a file. It stays 32 bytes (TestPageSlotSize):
// a file holds one for every page ever written or locked.
type pageSlot struct {
	data  []byte // nil = hole (never written)
	owner int32  // client id holding the exclusive lock, 0 = unlocked
}

// page returns the content of page pi, nil for a hole.
func (f *fileData) page(pi int64) []byte {
	if s := f.pages.Peek(pi); s != nil {
		return s.data
	}
	return nil
}

// NewFileSystem creates an empty file system with cfg.StripeCount OSTs.
func NewFileSystem(cfg *sim.Config) *FileSystem {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	fs := &FileSystem{
		cfg:     cfg,
		files:   make(map[string]*fileData),
		fileIDs: make(map[string]int32),
		osts:    make([]ostState, cfg.StripeCount),
		clients: make(map[int]*Client),
		zero:    make([]byte, cfg.PageSize),
	}
	return fs
}

// SetFaultSchedule installs (or clears, with nil) the fault schedule.
func (fs *FileSystem) SetFaultSchedule(s *FaultSchedule) {
	fs.mu.Lock()
	fs.sched = s
	fs.mu.Unlock()
}

// EnableIntegrity turns on the at-rest checksummed datapath: every page a
// write touches gets a seeded per-stripe-block checksum recorded, every
// page a read touches is re-verified, and mismatches are quarantined and
// repaired from the retained-block ring where possible. ringCap bounds the
// repair ring (<= 0 selects the default). Call before I/O starts; the
// layer stays on for the file system's lifetime.
func (fs *FileSystem) EnableIntegrity(seed int64, ringCap int) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.integ = integrity.NewHasher(seed)
	fs.isums = integrity.NewStore(fs.integ, ringCap)
}

// IntegrityEnabled reports whether the checksummed datapath is on.
func (fs *FileSystem) IntegrityEnabled() bool {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.isums != nil
}

// IntegrityStats returns the at-rest integrity counters (zero when the
// layer is disabled).
func (fs *FileSystem) IntegrityStats() integrity.Stats {
	fs.mu.Lock()
	st := fs.isums
	fs.mu.Unlock()
	if st == nil {
		return integrity.Stats{}
	}
	return st.Snapshot()
}

// evalFault consults the installed schedule for op. It must be called
// without fs.mu held: fault hooks may call back into the file system.
func (fs *FileSystem) evalFault(op Op) fault {
	fs.mu.Lock()
	s := fs.sched
	fs.mu.Unlock()
	if s == nil {
		return fault{}
	}
	return s.evaluate(op)
}

// Config returns the cost model.
func (fs *FileSystem) Config() *sim.Config { return fs.cfg }

func (fs *FileSystem) file(name string) *fileData {
	f := fs.files[name]
	if f == nil {
		id, seen := fs.fileIDs[name]
		if !seen {
			id = int32(len(fs.fileIDs))
			fs.fileIDs[name] = id
		}
		f = &fileData{name: name, id: id}
		fs.files[name] = f
	}
	return f
}

// Remove deletes a file and its lock state (and any integrity state, so a
// removed file cannot leave a permanently stuck quarantine backlog).
func (fs *FileSystem) Remove(name string) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if f := fs.files[name]; f != nil {
		for i := range fs.osts {
			*fs.osts[i].head(f.id) = 0
		}
	}
	delete(fs.files, name)
	if fs.isums != nil {
		fs.isums.Forget(name)
	}
}

// ResetTiming clears OST queues and all lock/cache state but preserves file
// contents; used between repetitions of an experiment.
func (fs *FileSystem) ResetTiming() {
	fs.ResetTimingKeepLocks()
	fs.mu.Lock()
	defer fs.mu.Unlock()
	for _, f := range fs.files {
		f.pages.Each(func(_ int64, s *pageSlot) { s.owner = 0 })
		f.stripeWriter.Clear()
	}
	for _, c := range fs.clients {
		c.cache.reset()
	}
}

// stripeConflicts charges server-side extent-lock transfers for stripes of
// s whose last writer is a different client, invalidating that client's
// cached pages in the stripe. Returns the total transfer cost.
func (c *Client) stripeConflicts(f *fileData, s datatype.Seg, now sim.Time) sim.Time {
	fs := c.fs
	ss := fs.cfg.StripeSize
	pagesPerStripe := ss / fs.cfg.PageSize
	var cost sim.Time
	for st := s.Off / ss; st <= (s.End()-1)/ss; st++ {
		writer := f.stripeWriter.Slot(st)
		if prev := *writer; prev != 0 && prev != c.id {
			cost += fs.cfg.StripeLockCost
			c.reg.Inc(metrics.CStripeConflicts)
			c.tr.Instant2(now, "stripe_conflict",
				trace.I("stripe", st), trace.I("prev", int64(prev)))
			if holder := fs.clients[prev]; holder != nil {
				for pi := st * pagesPerStripe; pi < (st+1)*pagesPerStripe; pi++ {
					holder.cache.drop(f.id, pi)
				}
			}
		}
		*writer = c.id
	}
	return cost
}

// ResetTimingKeepLocks clears OST queues but preserves lock ownership and
// client caches, isolating lock-protocol costs in tests.
func (fs *FileSystem) ResetTimingKeepLocks() {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	for i := range fs.osts {
		fs.osts[i].busyUntil = 0
		fs.osts[i].buckets = nil
		clear(fs.osts[i].lastEnd)
	}
}

// Size returns the current size of the named file (0 if absent).
func (fs *FileSystem) Size(name string) int64 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if f := fs.files[name]; f != nil {
		return f.size
	}
	return 0
}

// Snapshot returns a copy of the first n bytes of the file (zeros where
// unwritten), for verification in tests.
func (fs *FileSystem) Snapshot(name string, n int64) []byte {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	out := make([]byte, n)
	f := fs.files[name]
	if f == nil {
		return out
	}
	ps := fs.cfg.PageSize
	f.pages.Each(func(pi int64, s *pageSlot) {
		if base := pi * ps; base < n {
			copy(out[base:], s.data)
		}
	})
	return out
}

// Client is one compute node's view of the file system: its identity, its
// page cache, and the owning rank's registry it counts into.
type Client struct {
	fs    *FileSystem
	id    int
	cache *pageCache
	// reg is the owning rank's registry (nil records nothing), owned like tr.
	reg *metrics.Registry
	// tr records file-system events (lock revokes, stripe conflicts,
	// read-modify-writes) on the owning rank's trace; nil records nothing.
	// A client only ever emits to its own tracer — never to the tracer of
	// a client it conflicts with — so tracing stays race-free.
	tr *trace.Tracer
	// seq counts this client's operations (1-based), for fault targeting.
	seq int64
	// round is the collective two-phase round tag stamped on ops (-1
	// outside a collective); set by the MPI-IO layer.
	round int
	// lockRanges, portions, span, views, runs and sums are per-request
	// scratch (a client serves one rank goroutine, and all are consumed
	// before the request returns). sums is the integrity store's state for
	// the file of the request in flight, looked up by name once per
	// request; nil when integrity is off.
	lockRanges []pageRange
	portions   []stripePortion
	span       [1]datatype.Seg
	views      [][]byte
	runs       []integrity.Span
	sums       *integrity.File
}

// pageRange is an inclusive page-index range of one request segment.
type pageRange struct{ lo, hi int64 }

// NewClient registers a client counting into reg, which may be nil.
func (fs *FileSystem) NewClient(reg *metrics.Registry) *Client {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.nextID++
	c := &Client{
		fs:    fs,
		id:    fs.nextID,
		cache: newPageCache(fs.cfg.ClientCachePages),
		reg:   reg,
		round: -1,
	}
	fs.clients[c.id] = c
	return c
}

// ID returns the client's unique id.
func (c *Client) ID() int { return c.id }

// Close deregisters the client, releasing its page cache; the client must
// issue no further I/O. Page locks and stripe ownership it holds stay where
// they are: the next client to need them pays the same revocation it would
// have paid a live holder, there is just no cache left to invalidate.
func (c *Client) Close() {
	c.fs.mu.Lock()
	delete(c.fs.clients, c.id)
	c.fs.mu.Unlock()
}

// beginRequest resolves the per-request scratch that depends on the file.
// Called with fs.mu held, before the request touches any page.
func (c *Client) beginRequest(f *fileData) {
	c.sums = nil
	if st := c.fs.isums; st != nil {
		c.sums = st.File(f.name)
	}
}

// SetTracer attaches the owning rank's tracer (nil disables tracing).
func (c *Client) SetTracer(t *trace.Tracer) { c.tr = t }

// SetRound tags subsequent operations with a collective round number for
// fault targeting and tracing; -1 means "outside a collective round".
func (c *Client) SetRound(r int) { c.round = r }

// Handle is an open file from one client's perspective.
type Handle struct {
	c *Client
	f *fileData
}

// Open opens (creating if needed) the named file.
func (c *Client) Open(name string) *Handle {
	c.fs.mu.Lock()
	defer c.fs.mu.Unlock()
	return &Handle{c: c, f: c.fs.file(name)}
}

// Name returns the file's name.
func (h *Handle) Name() string { return h.f.name }

// WriteAt writes data at off starting at virtual time now and returns the
// completion time.
func (h *Handle) WriteAt(off int64, data []byte, now sim.Time) (sim.Time, error) {
	return h.WriteData([]datatype.Seg{{Off: off, Len: int64(len(data))}}, Bytes(data), now)
}

// ReadAt reads len(buf) bytes at off into buf.
func (h *Handle) ReadAt(off int64, buf []byte, now sim.Time) (sim.Time, error) {
	return h.ReadList([]datatype.Seg{{Off: off, Len: int64(len(buf))}}, buf, now)
}

// WriteList writes the concatenated data stream into the given file
// segments with a single request (list I/O semantics: one call overhead for
// the whole batch, as with PVFS's listio interface).
func (h *Handle) WriteList(segs []datatype.Seg, data []byte, now sim.Time) (sim.Time, error) {
	return h.WriteData(segs, Bytes(data), now)
}

// WriteData is the one plain write: data's bytes, in stream order, into the
// given file segments with a single request. WriteAt and WriteList are it
// for one buffer.
func (h *Handle) WriteData(segs []datatype.Seg, data Data, now sim.Time) (sim.Time, error) {
	return h.c.access("write", h.f, segs, segs, data, false, now)
}

// ReadList reads the given file segments into the concatenated buffer with
// a single request; a nil buf makes the read timing-only.
func (h *Handle) ReadList(segs []datatype.Seg, buf []byte, now sim.Time) (sim.Time, error) {
	dst := Bytes(buf)
	if buf == nil {
		var n int64
		for _, s := range segs {
			n += s.Len
		}
		dst = None(n)
	}
	return h.c.access("read", h.f, segs, segs, dst, false, now)
}

// Views appends to dst a view of every page fragment of segs, in list order:
// fileData.views, the walk a buffered read copies from. Every view is capped
// (cap == len) and only to be read. A view stays valid while the file is not
// written: pages are written in place, and never moved or freed while the
// file exists. Views charges nothing; the read that checks, locks and times
// the same bytes is the caller's (a timing-only ReadList or SieveRead).
func (h *Handle) Views(segs []datatype.Seg, dst [][]byte) [][]byte {
	fs := h.c.fs
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return h.f.views(segs, fs.zero, dst)
}

// views appends to dst a capped view of every page fragment of segs, in list
// order: into its page, or into zero (one zeroed page) over a hole or past
// the end of the file. The caller holds fs.mu.
func (f *fileData) views(segs []datatype.Seg, zero []byte, dst [][]byte) [][]byte {
	ps := int64(len(zero))
	for _, s := range segs {
		for abs := s.Off; abs < s.End(); {
			in := abs % ps
			n := min(ps-in, s.End()-abs)
			page := zero
			if p := f.page(abs / ps); p != nil && abs < f.size {
				page = p
			}
			dst = append(dst, page[in:in+n:in+n])
			abs += n
		}
	}
	return dst
}

// ZeroViews appends views of n zero bytes to dst, a page at most each: what
// stands in for a read whose bytes must not be served.
func (fs *FileSystem) ZeroViews(dst [][]byte, n int64) [][]byte {
	for ps := int64(len(fs.zero)); n > 0; n -= ps {
		k := min(n, ps)
		dst = append(dst, fs.zero[:k:k])
	}
	return dst
}

// access is the one storage request, in either direction. units are the
// extents it locks, charges and serves: a plain or list request's own
// segments, or a sieve window's one span. land is where its bytes land or are
// gathered from: the same segments, or the window's useful ones, which lie
// inside its span. data is those bytes, back to back: a write's source, or a
// read's destination, Bytes of a buffer or None for a timing-only read (every
// lock, check, cache fill and charge, no bytes delivered). A read copies its
// bytes from the pages fileData.views walks once its last unit is served,
// under the same hold of fs.mu: only bytes this request verified, none a
// writer holds half written.
//
// Op.Len, and the Written of a partial fault, count a write's data bytes and
// a read's unit bytes. A partial fault cuts the request to its completed
// prefix: a sieve write's span then ends at its last landed byte, and a sieve
// read delivers, and reports as Written, the useful bytes below the cut.
func (c *Client) access(kind string, f *fileData, units, land []datatype.Seg, data Data, sieve bool, now sim.Time) (sim.Time, error) {
	write := kind == "write"
	// Only empty units move nothing: a window with no useful bytes still
	// locks and times its span.
	total, err := unitBytes(kind, f.name, units, data.Len(), sieve)
	if err != nil || total == 0 {
		return now, err
	}

	fs := c.fs
	n := total
	if write {
		n = data.Len()
	}
	partial, err := c.admit(Op{Kind: kind, Name: f.name, Off: units[0].Off,
		Len: n, Sieve: sieve}, now)
	if err != nil {
		return now + fs.cfg.IOCallOverhead, err
	}
	if partial != nil {
		// Cut the request to the completed prefix; the caller sees how far
		// it got and may resume the tail.
		w := partial.Written
		switch {
		case !sieve:
			units, _ = datatype.SplitSegs(units, w)
			land, total = units, w
		case write: // the span ends at the last landed byte
			land, _ = datatype.SplitSegs(land, w)
			total = land[len(land)-1].End() - units[0].Off
		default: // the useful bytes below the cut are delivered
			total = w
			w = below(land, units[0].Off+w)
			partial.Written = w
			land, _ = datatype.SplitSegs(land, w)
		}
		if sieve {
			c.span[0] = datatype.Seg{Off: units[0].Off, Len: total}
			units = c.span[:1]
		}
		data = data.Slice(0, w)
	}

	fs.mu.Lock()
	defer fs.mu.Unlock()
	c.beginRequest(f)

	// One call overhead for the whole (possibly list) request.
	c.traceCall(now, kind, sieve, units[0].Off, total, len(units), len(land))
	t := now + fs.cfg.IOCallOverhead
	c.reg.Inc(metrics.CIOCalls)
	c.reg.Add(metrics.CIOBytes, total)

	// Lock acquisition for the whole request, then per-OST service.
	t += c.lockSpan(f, units, write, now)

	completion := t
	pos := int64(0)
	for i, u := range units {
		if u.Len == 0 {
			continue
		}
		var done sim.Time
		var rerr error
		switch {
		case !write:
			done, rerr = c.readSeg(f, u, t)
		case sieve: // every segment of the window lands in its one span
			done = c.writeSeg(f, u, land, data, true, t)
		default:
			done = c.writeSeg(f, u, units[i:i+1], data.Slice(pos, pos+u.Len), false, t)
		}
		completion = max(completion, done)
		if rerr != nil {
			// An unrepairable block fails the whole request: no byte of
			// it is delivered.
			return completion, rerr
		}
		pos += u.Len
	}
	if !write {
		if b := data.Buf(); b != nil {
			c.views = f.views(land, fs.zero, c.views[:0])
			var at int
			for _, v := range c.views {
				at += copy(b[at:], v)
			}
		}
	}
	if partial != nil {
		return completion, fmt.Errorf("pfs: %s %q: %w", kind, f.name, partial)
	}
	return completion, nil
}

// unitBytes returns the bytes of a request's units, or why the request is
// invalid: a negative offset or length, or, for a plain request, n data
// bytes where its units hold another number.
func unitBytes(kind, name string, units []datatype.Seg, n int64, sieve bool) (int64, error) {
	var total int64
	for _, s := range units {
		if s.Off < 0 || s.Len < 0 {
			return 0, fmt.Errorf("pfs: %s %q: invalid segment [%d,+%d)", kind, name, s.Off, s.Len)
		}
		total += s.Len
	}
	if !sieve && total != n {
		return 0, fmt.Errorf("pfs: %s %q: %d segment bytes but %d data bytes", kind, name, total, n)
	}
	return total, nil
}

// admit numbers one storage request, stamps op with the client, its
// sequence number and round, and asks the fault schedule about it. It
// returns the error that fails the request outright, or the partial fault
// that lets only the first Written of op.Len bytes complete (never all of
// them). Fault evaluation happens before fs.mu is taken, so hooks are free
// to call back into the file system.
func (c *Client) admit(op Op, now sim.Time) (*PartialError, error) {
	c.seq++
	op.Client, op.Seq, op.Round = c.id, c.seq, c.round
	flt := c.fs.evalFault(op)
	switch {
	case flt.class == ClassNone:
		return nil, nil
	case flt.class == ClassPartial && flt.err == nil:
		w := max(min(int64(flt.frac*float64(op.Len)), op.Len-1), 0)
		partial := &PartialError{Written: w}
		c.noteFault(now, op.Kind, flt.class, w)
		if w == 0 {
			return nil, fmt.Errorf("pfs: %s %q: %w", op.Kind, op.Name, partial)
		}
		return partial, nil
	default:
		c.noteFault(now, op.Kind, flt.class, 0)
		return nil, fmt.Errorf("pfs: %s %q: %w", op.Kind, op.Name, flt.wrapped())
	}
}

// traceCall marks one storage request in the trace: its kind, where its units
// start, their bytes and how many there are, but a sieve window's write-back
// is a sieve_write and counts the segments it lands. Guarded: four tags would
// allocate per call even with tracing off. They are built here rather than
// in the caller's frame, which stays under every page the request copies.
func (c *Client) traceCall(now sim.Time, kind string, sieve bool, off, n int64, units, land int) {
	if c.tr == nil {
		return
	}
	segs := units
	if kind == "write" && sieve {
		kind, segs = "sieve_write", land
	}
	c.tr.Instant(now, "io_call", trace.S("kind", kind),
		trace.I("off", off), trace.I("len", n), trace.I("segs", int64(segs)))
}

// noteFault records an injected fault on the owning rank's stats and trace.
// Called without fs.mu held.
func (c *Client) noteFault(now sim.Time, kind string, cl Class, written int64) {
	c.reg.Inc(metrics.CFaults)
	if c.tr != nil {
		c.tr.Instant(now, "fault", trace.S("kind", kind),
			trace.S("class", cl.String()), trace.I("written", written), trace.I("seq", c.seq))
	}
}

// degradeSvc applies any active brownout to one request's OST service time.
// Called with fs.mu held.
func (c *Client) degradeSvc(ost int, t, svc sim.Time) sim.Time {
	s := c.fs.sched
	if s == nil {
		return svc
	}
	mult, extra := s.slowdown(ost, t)
	if mult <= 1 && extra <= 0 {
		return svc
	}
	c.reg.Inc(metrics.CBrownoutServes)
	return sim.Time(mult)*svc + extra
}

// lockSpan acquires the page locks covering the request and returns the
// time cost. Grants are charged once per maximal run of pages not already
// owned (extent locks); revocations are charged per distinct conflicting
// owner run. Reads do not take ownership but must still revoke a writer's
// exclusive lock.
func (c *Client) lockSpan(f *fileData, segs []datatype.Seg, write bool, now sim.Time) sim.Time {
	fs := c.fs
	ps := fs.cfg.PageSize
	var cost sim.Time

	// Collect the distinct page range of the request.
	ranges := c.lockRanges[:0]
	for _, s := range segs {
		if s.Len == 0 {
			continue
		}
		ranges = append(ranges, pageRange{s.Off / ps, (s.Off + s.Len - 1) / ps})
	}
	c.lockRanges = ranges
	slices.SortFunc(ranges, func(a, b pageRange) int { return cmp.Compare(a.lo, b.lo) })

	lastPage := int64(-2) // avoid double-charging overlapping segment pages
	inGrantRun := false
	lastRevokedOwner := 0
	var grants, hits, flushes int64
	for _, r := range ranges {
		lo := r.lo
		if lo <= lastPage {
			lo = lastPage + 1
		}
		for pi := lo; pi <= r.hi; pi++ {
			// A write takes the lock, so it needs the slot; a read only
			// looks, and must not grow the table over holes.
			var slot *pageSlot
			if write {
				slot = f.pages.Slot(pi)
			} else {
				slot = f.pages.Peek(pi)
			}
			owner := 0
			if slot != nil {
				owner = int(slot.owner)
			}
			switch {
			case owner == c.id:
				hits++
				inGrantRun = false
			case owner != 0: // conflicting owner: revoke (callback + holder flush)
				if owner != lastRevokedOwner || !inGrantRun {
					cost += fs.cfg.LockRevokeCost
					c.reg.Inc(metrics.CLockRevokes)
					c.tr.Instant2(now, "lock_revoke",
						trace.I("page", pi), trace.I("owner", int64(owner)))
					lastRevokedOwner = owner
				}
				fs.evictClientPage(owner, f.id, pi)
				flushes++
				slot.owner = 0
				if write {
					slot.owner = int32(c.id)
				}
				if !inGrantRun {
					cost += fs.cfg.LockGrantCost
					grants++
					inGrantRun = true
				}
			default: // unlocked
				if write {
					slot.owner = int32(c.id)
				}
				if !inGrantRun {
					cost += fs.cfg.LockGrantCost
					grants++
					inGrantRun = true
				}
			}
			lastPage = pi
		}
		inGrantRun = false // discontiguous request parts are separate extents
	}
	// One update per counter per request; a counter the request did not move
	// is not touched, so the recorder lists the same keys as ever.
	if hits > 0 {
		c.reg.Add(metrics.CCacheHits, hits)
	}
	if flushes > 0 {
		c.reg.Add(metrics.CCacheFlushes, flushes)
	}
	if grants > 0 {
		c.reg.Add(metrics.CLockGrants, grants)
	}
	// A lock-revoke storm makes every grant pay extra revocation
	// round-trips (a competing job churning the lock manager).
	if grants > 0 && fs.sched != nil {
		if per := fs.sched.stormRevokes(now); per > 0 {
			n := grants * int64(per)
			cost += sim.Time(float64(n)) * fs.cfg.LockRevokeCost
			c.reg.Add(metrics.CStormRevokes, n)
			c.tr.Instant1(now, "revoke_storm", trace.I("revokes", n))
		}
	}
	return cost
}

// evictClientPage drops a page from the cache of the client losing the
// lock, so a later access by that client pays the server again (the flush
// time itself is charged to the revoker as part of LockRevokeCost).
// Callers hold fs.mu, which also guards all cache contents.
func (fs *FileSystem) evictClientPage(clientID int, file int32, page int64) {
	if holder := fs.clients[clientID]; holder != nil {
		holder.cache.drop(file, page)
	}
}

// writeSeg writes one unit u of a request: it takes u's stripes, caches its
// pages, lands data's bytes, back to back, in land (segments inside u, sorted,
// as a sieve window's are) through the integrity gates and the fault
// schedule's flips, grows the file to u's end, and charges u as one
// contiguous write. A plain write's unit is a one-segment window.
func (c *Client) writeSeg(f *fileData, u datatype.Seg, land []datatype.Seg, data Data, sieve bool, t sim.Time) sim.Time {
	fs := c.fs
	ps := fs.cfg.PageSize
	// Extent-lock transfers occupy the server, not just the client:
	// fold them into the first portion's service time.
	conflictSvc := c.stripeConflicts(f, u, t)

	// A sieve window's write-back charges no RMW page reads: its prefetch
	// read the span, or the window has no holes. The latter misprices a
	// hole-free window that ends mid-page, which the plain write of the same
	// bytes pays a page read for (ROADMAP item 19).
	var rmwSvc sim.Time
	if !sieve {
		rmwSvc = c.rmw(f, u, t)
	}

	// The written pages are now cached at this client.
	for pi := u.Off / ps; pi <= (u.End()-1)/ps; pi++ {
		c.cache.put(f.id, pi)
	}

	// Checksums are recorded over the landed content before the schedule
	// may corrupt it, so the recorded sums cover the intended bytes and the
	// damage is detectable.
	c.integrityPreMergeSpan(f, u, land, t)
	f.writeBytes(land, data, ps)
	integSvc := c.integrityRecordSpan(f, u, land)
	for _, s := range land {
		c.injectFlip(f, s, t)
	}
	f.size = max(f.size, u.End()) // a window's span may end past its last segment

	return c.serve(f, u, t, 1, rmwSvc, conflictSvc, integSvc)
}

// rmw returns the read-modify-write penalty of writing s: a partially
// covered page that is not in the client cache must be fetched before it
// can be written.
func (c *Client) rmw(f *fileData, s datatype.Seg, t sim.Time) sim.Time {
	ps := c.fs.cfg.PageSize
	var rmwPages int64
	firstPage, lastPage := s.Off/ps, (s.End()-1)/ps
	if s.Off%ps != 0 || (firstPage == lastPage && s.End()%ps != 0) {
		if !c.cache.has(f.id, firstPage) {
			rmwPages++
		}
	}
	if lastPage != firstPage && s.End()%ps != 0 {
		if !c.cache.has(f.id, lastPage) {
			rmwPages++
		}
	}
	c.reg.Add(metrics.CRMWPages, rmwPages)
	if rmwPages == 0 {
		return 0
	}
	c.tr.Instant1(t, "rmw", trace.I("pages", rmwPages))
	return sim.Time(c.fs.cfg.RMWPenalty*float64(rmwPages)) * c.fs.cfg.ServerTransferTime(ps)
}

// serve charges one contiguous segment to the OSTs it is striped over and
// returns when the last portion is done. frac scales every portion's
// transfer (the share of a read that the client cache did not absorb; 1 for
// writes). rmwSvc, conflictSvc and integSvc are one-off service times — the
// extra page reads of a read-modify-write, extent-lock transfers (they
// occupy the server, not just the client) and the checksum pass — folded
// into the first portion, in that order. Called with fs.mu held.
func (c *Client) serve(f *fileData, s datatype.Seg, t sim.Time, frac float64, rmwSvc, conflictSvc, integSvc sim.Time) sim.Time {
	fs := c.fs
	done := t
	c.portions = fs.stripePortions(s, c.portions[:0])
	for i, p := range c.portions {
		ost := &fs.osts[p.ost]
		head := ost.head(f.id)
		svc := sim.Time(frac) * fs.cfg.ServerTransferTime(p.seg.Len)
		if *head != p.seg.Off {
			svc += fs.cfg.SeekCost
		}
		if i == 0 {
			svc += rmwSvc
			svc += conflictSvc
			svc += integSvc
		}
		svc = c.degradeSvc(p.ost, t, svc)
		done = max(done, ost.serve(t, svc))
		*head = p.seg.End()
		c.reg.Charge(metrics.PServe, svc)
	}
	return done
}

// preMergePage passes one partially overwritten page through the store's
// pre-merge gate. Holes have nothing recorded and nothing to launder.
func (c *Client) preMergePage(f *fileData, pi int64, t sim.Time) {
	page := f.page(pi)
	if page == nil {
		return
	}
	mismatch, repaired := c.sums.PreMerge(pi, page)
	if mismatch {
		c.noteMismatch(pi, repaired, t)
	}
}

// noteMismatch reports one at-rest checksum failure on the owning rank's
// metrics and trace.
func (c *Client) noteMismatch(pi int64, repaired bool, t sim.Time) {
	c.reg.NoteAtRestIntegrity(true, repaired)
	if c.tr != nil {
		c.tr.Instant2(t, "integrity_mismatch", trace.I("page", pi),
			trace.S("repaired", fmt.Sprintf("%v", repaired)))
	}
}

// landedRuns collects into c.runs the byte ranges, relative to the page
// [pstart,pend), that the segments from segs[si] on land in it — abutting
// pieces merged, everything clipped to the page — and returns the index of
// the first segment reaching into or past the page, where the next page's
// search resumes. segs must be sorted ascending and non-overlapping (the
// sieve contract). No runs means no segment lands in the page; the single
// run [0,pend-pstart) means the window repaves it whole.
func (c *Client) landedRuns(segs []datatype.Seg, si int, pstart, pend int64) int {
	c.runs = c.runs[:0]
	for si < len(segs) && segs[si].End() <= pstart {
		si++
	}
	for k := si; k < len(segs) && segs[k].Off < pend; k++ {
		off, end := max(segs[k].Off, pstart)-pstart, min(segs[k].End(), pend)-pstart
		if n := len(c.runs); n > 0 && c.runs[n-1].End >= off {
			c.runs[n-1].End = end
		} else {
			c.runs = append(c.runs, integrity.Span{Off: off, End: end})
		}
	}
	return si
}

// integrityPreMergeSpan re-verifies the partly covered pages of a write
// window (a sieve window, or a plain write's segment as a one-segment one)
// before its bytes merge with existing content (the RMW pre-check): bytes
// outside the written runs must still match their recorded checksum, or the
// overwrite would launder undetected corruption into a freshly blessed
// block. A mismatch — pre-existing quarantine or caught right here —
// attempts a ring repair; when that fails the page stays quarantined and
// integrityRecordSpan leaves it poisoned until a full rewrite heals it. The
// gate runs once per touched page BEFORE any of the window's segments land.
// Running it per segment would be wrong — after the first segment of the window scatters,
// the page content is ahead of its recorded checksum, and a per-segment
// verify would misread that as corruption and "repair" the just-written
// bytes away. Pages fully repaved by the union of the segments skip the
// check (their old content is irrelevant); pages the window never touches
// keep their sums untouched. Called with fs.mu held, before the scatter.
func (c *Client) integrityPreMergeSpan(f *fileData, span datatype.Seg, segs []datatype.Seg, t sim.Time) {
	if c.sums == nil {
		return
	}
	ps := c.fs.cfg.PageSize
	si := 0
	for pi := span.Off / ps; pi <= (span.End()-1)/ps; pi++ {
		si = c.landedRuns(segs, si, pi*ps, (pi+1)*ps)
		if len(c.runs) == 0 {
			continue // no segment lands in this page
		}
		if c.runs[0] == (integrity.Span{Off: 0, End: ps}) {
			continue // fully repaved below: old content is irrelevant
		}
		c.preMergePage(f, pi, t)
	}
}

// integrityRecordSpan records a checksum over every page a write window
// touched — once per page: all the runs the window landed in the page go
// to the store together, which folds them into the page's written (and,
// under quarantine, repaved) extent and then hashes and retains the page
// a single time, as the model charges it. "Fully rewritten" is thereby
// judged against the union of the window's segments rather than any one of
// them: sub-page shuffle pieces that collectively repave a page must clear
// its quarantine exactly like one contiguous write would. Pages inside the
// span that no segment touched are left unrecorded — re-blessing bytes
// nobody wrote would launder undetected gap corruption. Returns the
// checksum pass's service time. Called with fs.mu held, after the scatter.
func (c *Client) integrityRecordSpan(f *fileData, span datatype.Seg, segs []datatype.Seg) sim.Time {
	if c.sums == nil {
		return 0
	}
	ps := c.fs.cfg.PageSize
	si := 0
	var touched int64
	for pi := span.Off / ps; pi <= (span.End()-1)/ps; pi++ {
		si = c.landedRuns(segs, si, pi*ps, (pi+1)*ps)
		if len(c.runs) == 0 {
			continue // no segment lands in this page
		}
		touched++
		c.sums.Record(pi, f.page(pi), c.runs)
	}
	return c.fs.cfg.ChecksumTime(touched * ps)
}

// injectFlip lets the fault schedule silently corrupt the landed bytes of
// one write segment. Runs after the checksums were recorded on purpose:
// the sums cover the intended content, which is what makes the damage
// detectable later. Called with fs.mu held.
func (c *Client) injectFlip(f *fileData, s datatype.Seg, t sim.Time) {
	fs := c.fs
	if fs.sched == nil || s.Len == 0 {
		return // an empty segment lands no byte to damage
	}
	op := Op{Kind: "write", Client: c.id, Name: f.name, Off: s.Off,
		Len: s.Len, Seq: c.seq, Round: c.round}
	if fl, ok := fs.sched.evalFlip(op); ok {
		c.applyFlip(f, s, fl, t)
	}
}

// applyFlip mutates the stored bytes of a just-completed write segment
// according to one at-rest corruption decision. Called with fs.mu held.
func (c *Client) applyFlip(f *fileData, s datatype.Seg, fl flipFault, t sim.Time) {
	ps := c.fs.cfg.PageSize
	if fl.torn {
		// The tail of the segment never reached the media: it reads back
		// as zeros from the failed sectors.
		tail := max(int64(fl.frac*float64(s.Len)), 1)
		for abs := s.End() - tail; abs < s.End(); {
			pi, inPage := abs/ps, abs%ps
			n := min(ps-inPage, s.End()-abs)
			if page := f.page(pi); page != nil {
				clear(page[inPage : inPage+n])
			}
			abs += n
		}
		if c.tr != nil {
			c.tr.Instant(t, "atrest_flip", trace.S("kind", "torn"),
				trace.I("off", s.End()-tail), trace.I("len", tail))
		}
		return
	}
	bit := int64(fl.hash % uint64(s.Len*8))
	abs := s.Off + bit/8
	if page := f.page(abs / ps); page != nil {
		page[abs%ps] ^= 1 << (bit % 8)
	}
	if c.tr != nil {
		c.tr.Instant(t, "atrest_flip", trace.S("kind", "bitflip"),
			trace.I("off", abs), trace.I("bit", bit%8))
	}
}

// readSeg serves one contiguous read and returns its completion time.
// Pages present in the client cache are served locally at memory speed.
// With integrity on, every recorded page the read touches is re-verified
// first: a mismatch quarantines the page and attempts an inline ring
// repair; if that fails the read aborts with ErrDataIntegrity, leaving the
// page quarantined for the journal-replay path. It moves no bytes: access
// copies a read's bytes once all of its segments are served.
func (c *Client) readSeg(f *fileData, s datatype.Seg, t sim.Time) (sim.Time, error) {
	fs := c.fs
	ps := fs.cfg.PageSize
	firstPage, lastPage := s.Off/ps, (s.Off+s.Len-1)/ps

	var integSvc sim.Time
	if c.sums != nil {
		integSvc = fs.cfg.ChecksumTime((lastPage - firstPage + 1) * ps)
		for pi := firstPage; pi <= lastPage; pi++ {
			page := f.page(pi)
			if page == nil {
				continue // sparse hole: nothing recorded, nothing to check
			}
			if c.sums.Verify(pi, page) {
				continue
			}
			repaired := c.sums.Repair(pi, page)
			c.noteMismatch(pi, repaired, t)
			if !repaired {
				fs.isums.NoteUnrepairable()
				return t + integSvc, fmt.Errorf("pfs: read %q page %d: %w",
					f.name, pi, ErrDataIntegrity)
			}
			// Repairing rewrites the whole page: charge one extra page
			// memcpy on top of the verify pass.
			integSvc += fs.cfg.MemcpyTime(ps)
		}
	}

	// Determine the portion actually needing server access.
	var serverBytes, hits int64
	for pi := firstPage; pi <= lastPage; pi++ {
		if c.cache.has(f.id, pi) {
			hits++
			continue
		}
		c.cache.put(f.id, pi)
		serverBytes += min((pi+1)*ps, s.End()) - max(pi*ps, s.Off)
	}
	if hits > 0 {
		c.reg.Add(metrics.CCacheHits, hits)
		c.reg.Add(metrics.CPageCacheHits, hits)
	}
	if misses := lastPage - firstPage + 1 - hits; misses > 0 {
		c.reg.Add(metrics.CPageCacheMisses, misses)
	}
	if serverBytes == 0 {
		return t + integSvc + fs.cfg.MemcpyTime(s.Len), nil
	}
	// Approximate: scale each portion's transfer by the fraction of the
	// segment actually served remotely.
	return c.serve(f, s, t, float64(serverBytes)/float64(s.Len), 0, 0, integSvc), nil
}

// stripePortion is the part of a segment living on one OST.
type stripePortion struct {
	ost int
	seg datatype.Seg
}

// stripePortions splits a contiguous segment by stripe boundaries,
// appending into scratch (pass nil, or a recycled slice's [:0], as in
// Client.portions).
func (fs *FileSystem) stripePortions(s datatype.Seg, out []stripePortion) []stripePortion {
	ss := fs.cfg.StripeSize
	off := s.Off
	remain := s.Len
	for remain > 0 {
		stripe := off / ss
		n := min(remain, ss-off%ss)
		out = append(out, stripePortion{
			ost: int(stripe % int64(fs.cfg.StripeCount)),
			seg: datatype.Seg{Off: off, Len: n},
		})
		off += n
		remain -= n
	}
	return out
}

// writeBytes applies data, back to back, to segs in the sparse page store:
// the one host copy of every written byte. The pages a call creates share
// one allocation, counted when it meets the first of them; pages go only
// with their file, so the slab retains nothing its pages do not.
func (f *fileData) writeBytes(segs []datatype.Seg, data Data, pageSize int64) {
	var pos int64
	var slab []byte // the pages still to be created, back to back
	for k, s := range segs {
		for abs := s.Off; abs < s.End(); {
			pi, inPage := abs/pageSize, abs%pageSize
			n := min(pageSize-inPage, s.End()-abs)
			slot := f.pages.Slot(pi)
			if slot.data == nil {
				if len(slab) == 0 {
					slab = make([]byte, f.holes(segs[k:], pi, pageSize)*pageSize)
				}
				slot.data, slab = slab[:pageSize:pageSize], slab[pageSize:]
			}
			data.Copy(slot.data[inPage:inPage+n], pos)
			abs, pos = abs+n, pos+n
		}
		f.size = max(f.size, s.End())
	}
}

// holes counts the pages segs cover from page first on that hold no data
// yet, each once: the pages writeBytes is about to create, first among them.
// A segment that starts before the previous one ends ends the count, so no
// page is counted twice.
func (f *fileData) holes(segs []datatype.Seg, first, pageSize int64) int64 {
	var n int64
	next, prev := first, int64(-1) // the first page not yet looked at, the last segment's end
	for _, s := range segs {
		if s.Len <= 0 {
			continue
		}
		if s.Off < prev {
			break
		}
		for pi := max(next, s.Off/pageSize); pi <= (s.End()-1)/pageSize; pi++ {
			if f.page(pi) == nil {
				n++
			}
		}
		next, prev = max(next, (s.End()-1)/pageSize+1), s.End()
	}
	return n
}

// below counts the bytes of segs, back to back, that lie below file offset
// cut, up to the first segment that starts at or after it: what a sieve
// read whose span a partial fault cut at cut delivered. An empty segment
// delivers nothing and ends nothing.
func below(segs []datatype.Seg, cut int64) (n int64) {
	for _, s := range segs {
		if s.Len == 0 {
			continue
		}
		k := min(s.End(), cut) - s.Off
		if k <= 0 {
			break
		}
		n += k
	}
	return n
}

// Clients reports how many clients are registered (diagnostics).
func (fs *FileSystem) Clients() int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return len(fs.clients)
}

// OSTBusy reports each OST's busy-until time (diagnostics).
func (fs *FileSystem) OSTBusy() []sim.Time {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	out := make([]sim.Time, len(fs.osts))
	for i := range fs.osts {
		out[i] = fs.osts[i].busyUntil
	}
	return out
}
