// Package tenant is the multi-tenant collective-I/O service layer: a
// long-running host for many concurrent worlds (jobs) sharing one
// simulated parallel file system. It layers three protections between
// tenants and the storage the engines below know nothing about:
//
//   - Admission control: per-tenant concurrency and token-bucket limits
//     with a bounded wait queue and deadline-based shedding. Rejected work
//     fails fast with a typed error (ErrAdmissionRejected) instead of
//     piling onto a saturated system.
//   - Per-OST circuit breakers (breaker.go): completed jobs feed the fault
//     schedule's per-OST injected-fault counts to a trip/half-open/close
//     state machine; while any breaker is open, running collectives route
//     failed sieve rounds onto the engines' existing Degraded fallback
//     instead of hanging or aborting.
//   - Fair-share scheduling: queued jobs are released in order of
//     weighted consumed I/O bytes, so a noisy tenant drains behind
//     lighter ones instead of starving them.
//
// Time is logical: the service has no clocks or timers of its own. Token
// refill, queue deadlines, and breaker cooldowns all advance on explicit
// Tick calls, so every admission and breaker decision is a deterministic
// function of the submitted job sequence — the property the chaos matrix
// asserts byte-for-byte.
package tenant

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"flexio/internal/core"
	"flexio/internal/critpath"
	"flexio/internal/datatype"
	"flexio/internal/hpio"
	"flexio/internal/integrity"
	"flexio/internal/metrics"
	"flexio/internal/mpi"
	"flexio/internal/mpiio"
	"flexio/internal/pfs"
	"flexio/internal/sim"
	"flexio/internal/trace"
)

// ErrAdmissionRejected is the sentinel every admission failure matches
// under errors.Is. Concrete errors are *AdmissionError.
var ErrAdmissionRejected = errors.New("tenant: admission rejected")

// RejectReason says why admission control refused a job.
type RejectReason string

const (
	// RejectQueueFull: the tenant had no capacity and its wait queue was
	// at QueueDepth (or queueing is disabled).
	RejectQueueFull RejectReason = "queue-full"
	// RejectDeadline: the job waited more than DeadlineTicks in the
	// queue and was shed.
	RejectDeadline RejectReason = "deadline"
	// RejectTokens: a session step found the tenant's token bucket empty.
	RejectTokens RejectReason = "tokens"
	// RejectClosed: the service is shutting down.
	RejectClosed RejectReason = "closed"
	// RejectUnknown: the tenant was never registered.
	RejectUnknown RejectReason = "unknown-tenant"
)

// AdmissionError is a typed admission rejection; it matches
// ErrAdmissionRejected under errors.Is.
type AdmissionError struct {
	Tenant string
	Reason RejectReason
}

func (e *AdmissionError) Error() string {
	return fmt.Sprintf("tenant %q: admission rejected (%s)", e.Tenant, e.Reason)
}

// Is makes errors.Is(err, ErrAdmissionRejected) true.
func (e *AdmissionError) Is(target error) bool { return target == ErrAdmissionRejected }

// Limits is one tenant's admission-control envelope. The zero value is
// unlimited: no token bucket, no concurrency cap, no queue (work that
// cannot run immediately is shed), no deadline.
type Limits struct {
	// MaxInFlight caps the tenant's concurrently running jobs
	// (0 = unlimited).
	MaxInFlight int
	// Tokens is the token-bucket capacity; each admitted job or session
	// step spends one token (0 = no bucket).
	Tokens int64
	// Refill is how many tokens each Tick restores (0 = a full bucket,
	// negative = none: the bucket only ever drains).
	Refill int64
	// QueueDepth bounds the wait queue for jobs that cannot run
	// immediately (0 = no queue: they are shed with RejectQueueFull).
	QueueDepth int
	// DeadlineTicks sheds a queued job after waiting this many Ticks
	// (0 = wait forever).
	DeadlineTicks int64
	// Weight scales the tenant's fair share: queued jobs are released in
	// order of consumed-bytes/Weight (0 = 1).
	Weight float64
}

// Config configures a Service.
type Config struct {
	// FS is the shared file system every tenant job runs against
	// (required).
	FS *pfs.FileSystem
	// Sim is the cost model for tenant worlds (nil = sim.DefaultConfig).
	Sim *sim.Config
	// MaxConcurrent caps jobs running across all tenants (0 = unlimited).
	MaxConcurrent int
	// Breakers tunes the per-OST circuit breakers.
	Breakers BreakerConfig
	// NodeRanks is the block node-mapping width tenant worlds run under
	// (0 = 2, matching the benchmark suite).
	NodeRanks int
	// ScrubPerTick is the background scrubber's per-tenant budget: how
	// many quarantined stripe blocks each tenant's namespace may have
	// scanned per Tick (0 = the scrubber default). It only matters when
	// the shared file system has its checksummed datapath enabled
	// (pfs.FileSystem.EnableIntegrity); otherwise no scrubber runs.
	ScrubPerTick int
}

// Job is one collective-I/O workload a tenant submits: its own world of
// Pattern.Ranks ranks, one file, Steps collective calls.
type Job struct {
	// Name labels the job in artifacts and errors (defaults to File).
	Name string
	// File is the file the job accesses in the shared namespace. Tenants
	// that must not see each other's bytes use distinct files.
	File string
	// Engine selects the collective: "core-nb" (default, nonblocking
	// pipeline), "core-a2a" (Alltoallw), or "twophase" (ROMIO baseline).
	Engine string
	// Write selects the direction.
	Write bool
	// Pattern is the HPIO-style access pattern (Ranks, regions, gaps).
	Pattern hpio.Pattern
	// CollBuf overrides cb_buffer_size (0 = engine default).
	CollBuf int64
	// CbNodes is the aggregator count (0 = every rank).
	CbNodes int
	// Steps is the number of collective calls (0 = 1).
	Steps int
	// RetryLimit bounds transient retries per independent op (0 = the
	// mpiio default).
	RetryLimit int
	// Trace records the job's virtual-time event ring and keeps it (with
	// the metrics set) as the tenant's last-job artifact.
	Trace bool
	// Verify checks data after a successful run: writes compare the file
	// image against the pattern's reference, reads compare the buffers
	// read back against the seeded fill.
	Verify bool
}

// Pending is a submitted job's handle. Wait blocks until the job ran (or
// was shed) and returns its error.
type Pending struct {
	// TenantName and JobName identify the submission.
	TenantName, JobName string
	done                chan struct{}
	err                 error
	enqueued            int64 // tick at enqueue (queued jobs only)
	jobRef              *Job  // the queued job, for the drainer
}

// Wait blocks until the job completed or was shed.
func (p *Pending) Wait() error {
	<-p.done
	return p.err
}

// Tenant is one registered tenant's accounting and limits. All mutable
// state is guarded by the service mutex except the session-path atomics.
type Tenant struct {
	name string
	lim  Limits

	// Guarded by Service.mu.
	tokens        int64
	inFlight      int
	queue         []*Pending
	jobs          int64
	shedQueueFull int64
	shedDeadline  int64
	shedClosed    int64
	cost          int64   // consumed I/O bytes, the fair-share key
	scrubRepaired int64   // quarantined blocks the scrubber healed in this tenant's namespace
	folded        []int64 // completed jobs' merged counters, schema order
	lastMet       *metrics.Set
	lastSink      *trace.Sink
	critSec       float64 // last job's critical-path window seconds

	// Session fast path (atomics: no service lock on healthy steps).
	ops      atomic.Int64
	bytes    atomic.Int64
	rejected atomic.Int64
	degraded atomic.Int64
}

func (t *Tenant) weight() float64 {
	if t.lim.Weight <= 0 {
		return 1
	}
	return t.lim.Weight
}

// share is the fair-share key: weighted consumed bytes. Smallest runs
// first.
func (t *Tenant) share() float64 { return float64(t.cost) / t.weight() }

// headroomLocked reports whether the tenant itself could admit one more
// job right now. Callers hold Service.mu.
func (t *Tenant) headroomLocked() bool {
	if t.lim.Tokens > 0 && t.tokens <= 0 {
		return false
	}
	if t.lim.MaxInFlight > 0 && t.inFlight >= t.lim.MaxInFlight {
		return false
	}
	return true
}

// Service hosts tenants against one shared file system. Submit runs
// admitted jobs synchronously on the caller's goroutine; queued jobs drain
// on whichever goroutine frees the capacity (a completing Submit or a
// Tick). Many goroutines may Submit concurrently, up to MaxConcurrent
// jobs run at once.
type Service struct {
	cfg    Config
	fs     *pfs.FileSystem
	simCfg *sim.Config
	brk    *BreakerSet

	mu      sync.Mutex
	tenants map[string]*Tenant
	order   []*Tenant // registration order: deterministic iteration
	running int
	ticks   int64
	scrub   *integrity.Scrubber // built on first Tick after FS integrity is enabled

	closed atomic.Bool
}

// NewService builds a service over cfg.FS.
func NewService(cfg Config) (*Service, error) {
	if cfg.FS == nil {
		return nil, errors.New("tenant: Config.FS is required")
	}
	simCfg := cfg.Sim
	if simCfg == nil {
		simCfg = sim.DefaultConfig()
	}
	if cfg.NodeRanks <= 0 {
		cfg.NodeRanks = 2
	}
	return &Service{
		cfg:     cfg,
		fs:      cfg.FS,
		simCfg:  simCfg,
		brk:     NewBreakerSet(cfg.Breakers, cfg.FS.Config().StripeCount),
		tenants: map[string]*Tenant{},
	}, nil
}

// Breakers exposes the per-OST circuit breakers.
func (s *Service) Breakers() *BreakerSet { return s.brk }

// FS returns the shared file system.
func (s *Service) FS() *pfs.FileSystem { return s.fs }

// AddTenant registers a tenant. The token bucket starts full.
func (s *Service) AddTenant(name string, lim Limits) (*Tenant, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.tenants[name]; dup {
		return nil, fmt.Errorf("tenant: %q already registered", name)
	}
	t := &Tenant{name: name, lim: lim, tokens: lim.Tokens,
		folded: make([]int64, metrics.CounterCount())}
	s.tenants[name] = t
	s.order = append(s.order, t)
	return t, nil
}

// Submit offers a job. If the tenant and the service have capacity the job
// runs synchronously on this goroutine and the returned Pending is already
// done. Otherwise the job queues (bounded) or is shed; shed work carries a
// *AdmissionError. The error return is only for unregistered tenants.
func (s *Service) Submit(tenantName string, job Job) (*Pending, error) {
	if job.Name == "" {
		job.Name = job.File
	}
	p := &Pending{TenantName: tenantName, JobName: job.Name, done: make(chan struct{})}
	s.mu.Lock()
	t := s.tenants[tenantName]
	if t == nil {
		s.mu.Unlock()
		return nil, fmt.Errorf("tenant: %w: %q", ErrAdmissionRejected, tenantName)
	}
	if s.closed.Load() {
		t.shedClosed++
		t.rejected.Add(1)
		s.mu.Unlock()
		p.err = &AdmissionError{Tenant: tenantName, Reason: RejectClosed}
		close(p.done)
		return p, nil
	}
	if s.globalHeadroomLocked() && t.headroomLocked() {
		s.admitLocked(t)
		s.mu.Unlock()
		s.runAndFinish(t, job, p)
		s.drain()
		return p, nil
	}
	if t.lim.QueueDepth > 0 && len(t.queue) < t.lim.QueueDepth {
		p.enqueued = s.ticks
		pj := job // keep the job with the pending for the drainer
		p.jobRef = &pj
		t.queue = append(t.queue, p)
		s.mu.Unlock()
		return p, nil
	}
	t.shedQueueFull++
	t.rejected.Add(1)
	s.mu.Unlock()
	p.err = &AdmissionError{Tenant: tenantName, Reason: RejectQueueFull}
	close(p.done)
	return p, nil
}

// SubmitWait is Submit followed by Wait.
func (s *Service) SubmitWait(tenantName string, job Job) error {
	p, err := s.Submit(tenantName, job)
	if err != nil {
		return err
	}
	return p.Wait()
}

// Tick advances logical service time: token buckets refill, queued jobs
// past their deadline are shed, open breakers past their cooldown move to
// half-open, and freed capacity drains the queues.
func (s *Service) Tick() {
	var shed []*Pending
	s.mu.Lock()
	s.ticks++
	now := s.ticks
	for _, t := range s.order {
		if t.lim.Tokens > 0 && t.lim.Refill >= 0 {
			refill := t.lim.Refill
			if refill == 0 {
				refill = t.lim.Tokens
			}
			t.tokens += refill
			if t.tokens > t.lim.Tokens {
				t.tokens = t.lim.Tokens
			}
		}
		if t.lim.DeadlineTicks > 0 && len(t.queue) > 0 {
			keep := t.queue[:0]
			for _, p := range t.queue {
				if now-p.enqueued >= t.lim.DeadlineTicks {
					t.shedDeadline++
					t.rejected.Add(1)
					p.err = &AdmissionError{Tenant: t.name, Reason: RejectDeadline}
					shed = append(shed, p)
				} else {
					keep = append(keep, p)
				}
			}
			t.queue = keep
		}
	}
	// The background scrubber rides the same logical clock. Built lazily:
	// integrity may be enabled on the shared file system after the service
	// is constructed (the serve CLI does exactly that).
	if s.scrub == nil && s.fs.IntegrityStore() != nil {
		s.scrub = s.fs.Scrubber(s.cfg.ScrubPerTick)
	}
	scrub := s.scrub
	tenants := append([]*Tenant(nil), s.order...)
	s.mu.Unlock()
	for _, p := range shed {
		close(p.done)
	}
	s.brk.Tick(now)
	if scrub != nil {
		// Tenant-aware scrubbing: tenants namespace their files
		// ("<tenant>/..."), and each namespace gets its own per-tick
		// budget, so one tenant's corrupted files cannot consume
		// another's repair bandwidth. A final unprefixed pass picks up
		// quarantined blocks outside any tenant namespace.
		for _, t := range tenants {
			if fixed := scrub.Tick(t.name + "/"); fixed > 0 {
				s.mu.Lock()
				t.scrubRepaired += int64(fixed)
				s.mu.Unlock()
			}
		}
		scrub.Tick("")
	}
	s.drain()
}

// ScrubStats snapshots the background scrubber's progress (zero when the
// file system runs without the checksummed datapath).
func (s *Service) ScrubStats() integrity.ScrubStats {
	s.mu.Lock()
	scrub := s.scrub
	s.mu.Unlock()
	return scrub.Snapshot()
}

// Ticks returns the logical clock.
func (s *Service) Ticks() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ticks
}

// Close stops admission and sheds every queued job with RejectClosed.
// Running jobs finish normally.
func (s *Service) Close() {
	s.closed.Store(true)
	var shed []*Pending
	s.mu.Lock()
	for _, t := range s.order {
		for _, p := range t.queue {
			t.shedClosed++
			t.rejected.Add(1)
			p.err = &AdmissionError{Tenant: t.name, Reason: RejectClosed}
			shed = append(shed, p)
		}
		t.queue = nil
	}
	s.mu.Unlock()
	for _, p := range shed {
		close(p.done)
	}
}

func (s *Service) globalHeadroomLocked() bool {
	return s.cfg.MaxConcurrent <= 0 || s.running < s.cfg.MaxConcurrent
}

// admitLocked charges one admission to the tenant. Callers hold s.mu and
// have checked headroom.
func (s *Service) admitLocked(t *Tenant) {
	if t.lim.Tokens > 0 {
		t.tokens--
	}
	t.inFlight++
	s.running++
}

// pickLocked releases the fairest queued job that has tenant and global
// headroom, charging its admission. Callers hold s.mu.
func (s *Service) pickLocked() (*Tenant, *Pending) {
	if s.closed.Load() || !s.globalHeadroomLocked() {
		return nil, nil
	}
	var best *Tenant
	for _, t := range s.order {
		if len(t.queue) == 0 || !t.headroomLocked() {
			continue
		}
		if best == nil || t.share() < best.share() {
			best = t
		}
	}
	if best == nil {
		return nil, nil
	}
	p := best.queue[0]
	best.queue = best.queue[1:]
	s.admitLocked(best)
	return best, p
}

// drain runs released queue entries on this goroutine until no more can be
// admitted.
func (s *Service) drain() {
	for {
		s.mu.Lock()
		t, p := s.pickLocked()
		s.mu.Unlock()
		if p == nil {
			return
		}
		s.runAndFinish(t, *p.jobRef, p)
	}
}

// runAndFinish executes an admitted job, accounts it, feeds the breakers,
// and completes the pending. Runs without s.mu held.
func (s *Service) runAndFinish(t *Tenant, job Job, p *Pending) {
	err, met, sink, ioBytes, steps := s.runJob(t, job)

	s.mu.Lock()
	t.inFlight--
	s.running--
	t.jobs++
	t.cost += ioBytes
	if met != nil {
		merged := met.Merged()
		for c := 0; c < len(t.folded); c++ {
			t.folded[c] += merged.Counter(metrics.Counter(c))
		}
		t.lastMet = met
	}
	if sink != nil {
		t.lastSink = sink
		// Publish the job's critical-path profile: the window length is
		// the tenant's "why was this slow" number, and Note pushes the
		// per-rank on-path seconds into the metrics gauges so they ride
		// the exposition and flight dumps.
		rep := critpath.Analyze(sink)
		rep.Note(met)
		t.critSec = rep.WindowSec
	}
	now := s.ticks
	s.mu.Unlock()

	t.ops.Add(int64(steps))
	t.bytes.Add(ioBytes)
	if sched := s.fs.Schedule(); sched != nil {
		s.brk.Observe(sched.OSTFaultCounts(), now)
	}
	p.err = err
	close(p.done)
}

// engine instantiates the job's collective with the breaker-driven degrade
// hook installed, so a trip mid-collective reroutes failed sieve rounds.
// When a breaker is already open at job start the core engines additionally
// skip data sieving outright (naive I/O touches only useful bytes, keeping
// traffic off the hurting OST's sieve spans).
func (s *Service) engine(name string, degradedStart bool) mpiio.Collective {
	opts := core.Options{Degrade: s.brk.AnyOpen}
	if degradedStart {
		opts.Method = mpiio.Naive // nothing to degrade from
	}
	switch name {
	case "core-a2a":
		opts.Comm = core.Alltoallw
		return core.New(opts)
	case "twophase":
		return core.ROMIO(core.Options{Degrade: s.brk.AnyOpen})
	default:
		return core.New(opts)
	}
}

// runJob executes one job in its own world against the shared file system
// and returns the collective error (nil on success), the job's metrics and
// trace (trace only when requested), the I/O bytes moved, and the step
// count.
func (s *Service) runJob(t *Tenant, job Job) (error, *metrics.Set, *trace.Sink, int64, int) {
	wl := job.Pattern
	if err := wl.Validate(); err != nil {
		return fmt.Errorf("tenant %s job %s: %w", t.name, job.Name, err), nil, nil, 0, 0
	}
	steps := job.Steps
	if steps <= 0 {
		steps = 1
	}
	w := mpi.NewWorld(wl.Ranks, s.simCfg)
	met := w.EnableMetrics()
	var sink *trace.Sink
	if job.Trace {
		sink = w.EnableTracing(0)
	}
	w.SetNodeMap(mpi.BlockNodeMap(s.cfg.NodeRanks))

	degradedStart := s.brk.AnyOpen()
	if degradedStart {
		t.degraded.Add(1)
	}
	coll := s.engine(job.Engine, degradedStart)
	info := mpiio.Info{
		Collective:  coll,
		CollBufSize: job.CollBuf,
		CbNodes:     job.CbNodes,
		RetryLimit:  job.RetryLimit,
	}

	errs := make([]error, wl.Ranks)
	mism := make([]bool, wl.Ranks)
	w.Run(func(p *mpi.Proc) {
		f, err := mpiio.Open(p, s.fs, job.File, info)
		if err != nil {
			errs[p.Rank()] = err
			return
		}
		ft, disp := wl.Filetype(p.Rank())
		if err := f.SetView(disp, datatype.Bytes(1), ft); err != nil {
			errs[p.Rank()] = err
			f.Close()
			return
		}
		mt, bufLen := wl.Memtype()
		for step := 0; step < steps; step++ {
			if job.Write {
				err = f.WriteAll(wl.FillBuffer(p.Rank()), mt, wl.RegionCount)
			} else {
				buf := make([]byte, bufLen)
				err = f.ReadAll(buf, mt, wl.RegionCount)
				if err == nil && job.Verify {
					got, _ := datatype.Pack(buf, mt, 0, wl.RegionCount)
					exp, _ := datatype.Pack(wl.FillBuffer(p.Rank()), mt, 0, wl.RegionCount)
					if !bytes.Equal(got, exp) {
						mism[p.Rank()] = true
					}
				}
			}
			if err != nil {
				errs[p.Rank()] = err
				break
			}
		}
		f.Close()
	})

	ioBytes := met.Merged().Counter(metrics.CIOBytes)
	var jobErr error
	for r, err := range errs {
		if err != nil {
			jobErr = fmt.Errorf("tenant %s job %s rank %d: %w", t.name, job.Name, r, err)
			break
		}
	}
	if jobErr == nil && job.Verify {
		if job.Write {
			img := s.fs.Snapshot(job.File, wl.FileSize())
			if !bytes.Equal(img, wl.Reference()) {
				jobErr = fmt.Errorf("tenant %s job %s: file image differs from reference", t.name, job.Name)
			}
		} else {
			for r, bad := range mism {
				if bad {
					jobErr = fmt.Errorf("tenant %s job %s rank %d: read-back mismatch", t.name, job.Name, r)
					break
				}
			}
		}
	}
	return jobErr, met, sink, ioBytes, steps
}

// Stats is one tenant's exported accounting snapshot.
type Stats struct {
	Name     string
	Jobs     int64 // jobs completed (success or collective error)
	Ops      int64 // collective calls performed (job steps + session steps)
	Bytes    int64 // I/O bytes moved
	Queued   int   // jobs waiting right now
	InFlight int   // jobs running right now
	Tokens   int64 // tokens currently in the bucket

	ShedQueueFull int64 // jobs shed because the queue was full
	ShedDeadline  int64 // jobs shed after waiting past DeadlineTicks
	ShedClosed    int64 // jobs shed by shutdown
	Rejected      int64 // all typed rejections (sheds + session-step denials)
	Degraded      int64 // jobs/steps that ran while a breaker was open

	ScrubRepaired int64 // quarantined blocks the scrubber healed in this tenant's namespace
	ScrubBacklog  int   // blocks quarantined right now under the tenant's namespace

	CritPathSec float64 // last job's critical-path window (virtual seconds)
}

// Shed is the total of queue-full, deadline, and shutdown sheds.
func (st Stats) Shed() int64 { return st.ShedQueueFull + st.ShedDeadline + st.ShedClosed }

// TenantStats snapshots every tenant in registration order.
func (s *Service) TenantStats() []Stats {
	st := s.fs.IntegrityStore()
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Stats, 0, len(s.order))
	for _, t := range s.order {
		backlog := 0
		if st != nil {
			backlog = st.Backlog(t.name + "/")
		}
		out = append(out, Stats{
			Name:          t.name,
			Jobs:          t.jobs,
			Ops:           t.ops.Load(),
			Bytes:         t.bytes.Load(),
			Queued:        len(t.queue),
			InFlight:      t.inFlight,
			Tokens:        t.tokens,
			ShedQueueFull: t.shedQueueFull,
			ShedDeadline:  t.shedDeadline,
			ShedClosed:    t.shedClosed,
			Rejected:      t.rejected.Load(),
			Degraded:      t.degraded.Load(),
			ScrubRepaired: t.scrubRepaired,
			ScrubBacklog:  backlog,
			CritPathSec:   t.critSec,
		})
	}
	return out
}

// LastArtifacts returns the named tenant's most recent job metrics and
// trace (either may be nil), for flight-recorder and critical-path
// exports.
func (s *Service) LastArtifacts(tenantName string) (*metrics.Set, *trace.Sink) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.tenants[tenantName]
	if t == nil {
		return nil, nil
	}
	return t.lastMet, t.lastSink
}
