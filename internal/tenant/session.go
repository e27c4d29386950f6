package tenant

import (
	"fmt"

	"flexio/internal/core"
	"flexio/internal/datatype"
	"flexio/internal/hpio"
	"flexio/internal/metrics"
	"flexio/internal/mpi"
	"flexio/internal/mpiio"
)

// SessionSpec configures a persistent steady-state session: one world with
// the file open and views installed, stepping the same collective call
// repeatedly (the benchsuite session shape, admitted through the tenant
// layer).
type SessionSpec struct {
	// File is the session's file in the shared namespace.
	File string
	// Engine selects the collective: "core-nb" (default), "core-a2a", or
	// "twophase".
	Engine string
	// Write selects the direction.
	Write bool
	// Pattern is the per-step access pattern.
	Pattern hpio.Pattern
	// CollBuf overrides cb_buffer_size (0 = engine default).
	CollBuf int64
	// CbNodes is the aggregator count (0 = every rank).
	CbNodes int
	// PFR enables persistent file realms (core engines only).
	PFR bool
}

// Session is a tenant's long-lived steady-state harness. Step is the hot
// path: when the tenant has no token bucket and every breaker is closed it
// adds nothing but atomic bumps on top of the underlying collective call,
// which is what the benchsuite zero-overhead guard asserts.
type Session struct {
	svc       *Service
	ten       *Tenant
	spec      SessionSpec
	world     *mpi.World
	files     []*mpiio.File
	bufs      [][]byte
	mt        datatype.Type
	met       *metrics.Set
	errs      []error
	lastBytes int64
}

// OpenSession admits and builds a persistent session for the tenant: the
// world is created, the file opened collectively, views installed, reads
// seeded, and two warm-up steps performed (un-accounted) so the first
// accounted Step observes the steady state.
func (s *Service) OpenSession(tenantName string, spec SessionSpec) (*Session, error) {
	s.mu.Lock()
	t := s.tenants[tenantName]
	if t == nil {
		s.mu.Unlock()
		return nil, fmt.Errorf("tenant: %w: %q", ErrAdmissionRejected, tenantName)
	}
	if s.closed.Load() {
		t.rejected.Add(1)
		s.mu.Unlock()
		return nil, &AdmissionError{Tenant: tenantName, Reason: RejectClosed}
	}
	if t.lim.Tokens > 0 {
		if t.tokens <= 0 {
			t.rejected.Add(1)
			s.mu.Unlock()
			return nil, &AdmissionError{Tenant: tenantName, Reason: RejectTokens}
		}
		t.tokens--
	}
	s.mu.Unlock()

	wl := spec.Pattern
	if err := wl.Validate(); err != nil {
		return nil, err
	}
	ses := &Session{
		svc:   s,
		ten:   t,
		spec:  spec,
		world: mpi.NewWorld(wl.Ranks, s.simCfg),
		files: make([]*mpiio.File, wl.Ranks),
		bufs:  make([][]byte, wl.Ranks),
		errs:  make([]error, wl.Ranks),
	}
	ses.met = ses.world.EnableMetrics()
	ses.world.SetNodeMap(mpi.BlockNodeMap(s.cfg.NodeRanks))

	var coll mpiio.Collective
	opts := core.Options{Persistent: spec.PFR, Degrade: s.brk.AnyOpen}
	switch spec.Engine {
	case "core-a2a":
		opts.Comm = core.Alltoallw
		coll = core.New(opts)
	case "twophase":
		coll = core.ROMIO(core.Options{Degrade: s.brk.AnyOpen})
	default:
		coll = core.New(opts)
	}
	info := mpiio.Info{Collective: coll, CollBufSize: spec.CollBuf, CbNodes: spec.CbNodes}

	mt, bufLen := wl.Memtype()
	ses.mt = mt
	errs := make(chan error, wl.Ranks)
	ses.world.Run(func(p *mpi.Proc) {
		f, err := mpiio.Open(p, s.fs, spec.File, info)
		if err != nil {
			errs <- err
			return
		}
		ft, disp := wl.Filetype(p.Rank())
		if err := f.SetView(disp, datatype.Bytes(1), ft); err != nil {
			errs <- err
			return
		}
		ses.files[p.Rank()] = f
		ses.bufs[p.Rank()] = make([]byte, bufLen)
		copy(ses.bufs[p.Rank()], wl.FillBuffer(p.Rank()))
		errs <- nil
	})
	for i := 0; i < wl.Ranks; i++ {
		if err := <-errs; err != nil {
			return nil, err
		}
	}
	if !spec.Write {
		if err := ses.step(true); err != nil {
			return nil, err
		}
	}
	for i := 0; i < 2; i++ {
		if err := ses.step(spec.Write); err != nil {
			return nil, err
		}
	}
	ses.lastBytes = ses.ioBytes()
	return ses, nil
}

// Step runs one accounted collective call on every rank. The admission
// gate is per step: a closed service or an empty token bucket rejects with
// *AdmissionError before any rank moves.
func (s *Session) Step() error {
	svc, t := s.svc, s.ten
	if svc.closed.Load() {
		t.rejected.Add(1)
		return &AdmissionError{Tenant: t.name, Reason: RejectClosed}
	}
	if t.lim.Tokens > 0 {
		svc.mu.Lock()
		if t.tokens <= 0 {
			svc.mu.Unlock()
			t.rejected.Add(1)
			return &AdmissionError{Tenant: t.name, Reason: RejectTokens}
		}
		t.tokens--
		svc.mu.Unlock()
	}
	if svc.brk.AnyOpen() {
		t.degraded.Add(1)
	}
	err := s.step(s.spec.Write)
	t.ops.Add(1)
	sum := s.ioBytes()
	t.bytes.Add(sum - s.lastBytes)
	s.lastBytes = sum
	return err
}

// step runs one collective call without accounting (warm-up and seeding).
func (s *Session) step(write bool) error {
	wl := s.spec.Pattern
	s.world.Run(func(p *mpi.Proc) {
		f := s.files[p.Rank()]
		if write {
			s.errs[p.Rank()] = f.WriteAll(s.bufs[p.Rank()], s.mt, wl.RegionCount)
		} else {
			s.errs[p.Rank()] = f.ReadAll(s.bufs[p.Rank()], s.mt, wl.RegionCount)
		}
	})
	for r := 0; r < wl.Ranks; r++ {
		if err := s.errs[r]; err != nil {
			return err
		}
	}
	return nil
}

// ioBytes sums the per-rank I/O byte counters without allocating.
func (s *Session) ioBytes() int64 {
	var sum int64
	for r := 0; r < s.spec.Pattern.Ranks; r++ {
		sum += s.met.Registry(r).Counter(metrics.CIOBytes)
	}
	return sum
}

// Metrics exposes the session world's live registry set.
func (s *Session) Metrics() *metrics.Set { return s.met }

// Close closes the session's files; the session must not step afterwards.
func (s *Session) Close() error {
	s.world.Run(func(p *mpi.Proc) {
		if f := s.files[p.Rank()]; f != nil {
			s.errs[p.Rank()] = f.Close()
		}
	})
	for _, err := range s.errs {
		if err != nil {
			return err
		}
	}
	return nil
}
