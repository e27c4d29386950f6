package colltest

import (
	"fmt"

	"flexio/internal/datatype"
	"flexio/internal/mpi"
	"flexio/internal/mpiio"
	"flexio/internal/pfs"
)

// Session is a warm steady-state harness: one file open on every rank with
// the workload's view installed, ready to issue the same collective call
// again and again. Everything per open is paid and the file and page state
// have reached their fixed point, so a Step costs what one call costs in
// steady state. The caller builds and configures the world and the file
// system (node map, integrity, tracing, metrics, deadline) before opening
// one; the handles outlive the World.Run that opened them, which is what
// sets a Session apart from Transfer.
type Session struct {
	w     *mpi.World
	fs    *pfs.FileSystem
	wl    Workload
	write bool
	spec  func(step, rank int) StepSpec
	files []*mpiio.File
	errs  []error
	call  func(p *mpi.Proc) // bound once, so a warm Step allocates nothing
}

// NewSession opens the workload's file on every rank of w, installs the
// views, seeds the file once for a read session, and issues two warm-up
// calls: the first establishes persistent realms and the engines' memos,
// the second brings the file and page state to its fixed point (a first
// write still sees unwritten gaps in its sieve reads), so every later
// call's virtual time is that of the steady state.
func NewSession(w *mpi.World, fs *pfs.FileSystem, wl Workload, info mpiio.Info, write bool) (*Session, error) {
	// A read session's first call is the seeding write.
	s := &Session{w: w, fs: fs, wl: wl, write: true, spec: Spec(wl),
		files: make([]*mpiio.File, wl.Ranks), errs: make([]error, wl.Ranks)}
	w.Run(func(p *mpi.Proc) {
		r := p.Rank()
		f, err := mpiio.Open(p, fs, File, info)
		if err == nil {
			sp := s.spec(0, r)
			err = f.SetView(sp.Disp, datatype.Bytes(1), sp.Filetype)
		}
		s.files[r], s.errs[r] = f, err
	})
	if err := s.check("open"); err != nil {
		return nil, err
	}
	s.call = s.rankCall
	if !write {
		// The seeding write leaves the reads something to deliver, and the
		// cleared buffers leave Verify something to check.
		if err := s.Step(); err != nil {
			return nil, err
		}
		for r := range wl.Ranks {
			clear(s.spec(0, r).Buf)
		}
		s.write = false
	}
	for i := 0; i < 2; i++ {
		if err := s.Step(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

func (s *Session) rankCall(p *mpi.Proc) {
	r := p.Rank()
	sp := s.spec(0, r)
	if s.write {
		s.errs[r] = s.files[r].WriteAll(sp.Buf, sp.Memtype, sp.Count)
	} else {
		s.errs[r] = s.files[r].ReadAll(sp.Buf, sp.Memtype, sp.Count)
	}
}

func (s *Session) check(what string) error {
	for r, err := range s.errs {
		if err != nil {
			return fmt.Errorf("colltest: %s: rank %d: %w", what, r, err)
		}
	}
	return nil
}

// Step issues one collective call, in the session's direction, on every
// rank.
func (s *Session) Step() error {
	s.w.Run(s.call)
	return s.check("step")
}

// File returns rank's open file, for a caller that issues its own calls.
func (s *Session) File(rank int) *mpiio.File { return s.files[rank] }

// Verify checks what the calls moved: a write session's file image against
// the workload reference, a read session's buffers against the bytes every
// rank wrote.
func (s *Session) Verify() error {
	if s.write {
		return VerifyImage(s.wl, s.fs.Snapshot(File, s.wl.FileSize()))
	}
	for r := range s.wl.Ranks {
		if !ReadMatches(s.wl, r, s.spec(0, r).Buf) {
			return fmt.Errorf("colltest: rank %d read back other bytes than it wrote", r)
		}
	}
	return nil
}
