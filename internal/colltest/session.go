package colltest

import (
	"bytes"
	"fmt"

	"flexio/internal/datatype"
	"flexio/internal/mpi"
	"flexio/internal/mpiio"
	"flexio/internal/pfs"
)

// sessionFile is the file a Session opens.
const sessionFile = "steady.dat"

// Session is a warm steady-state harness: one file open on every rank with
// the workload's view installed, ready to issue the same collective call
// again and again. Everything per open is paid and the file and page state
// have reached their fixed point, so a Step costs what one call costs in
// steady state. The caller builds and configures the world and the file
// system (node map, integrity, tracing, metrics, deadline) before opening
// one; the handles outlive the World.Run that opened them.
type Session struct {
	w     *mpi.World
	fs    *pfs.FileSystem
	wl    Workload
	write bool
	mt    datatype.Type
	files []*mpiio.File
	bufs  [][]byte
	errs  []error
	call  func(p *mpi.Proc) // bound once: a Step allocates what World.Run does
}

// NewSession opens the workload's file on every rank of w, installs the
// views, seeds the file once for a read session, and issues two warm-up
// calls: the first establishes persistent realms and the engines' memos,
// the second brings the file and page state to its fixed point (a first
// write still sees unwritten gaps in its sieve reads), so every later
// call's virtual time is that of the steady state.
func NewSession(w *mpi.World, fs *pfs.FileSystem, wl Workload, info mpiio.Info, write bool) (*Session, error) {
	// A read session's first call is the seeding write.
	s := &Session{w: w, fs: fs, wl: wl, write: true,
		files: make([]*mpiio.File, wl.Ranks), bufs: make([][]byte, wl.Ranks), errs: make([]error, wl.Ranks)}
	s.mt, _ = wl.Memtype()
	w.Run(func(p *mpi.Proc) {
		r := p.Rank()
		f, err := mpiio.Open(p, fs, sessionFile, info)
		if err == nil {
			ft, disp := wl.Filetype(r)
			err = f.SetView(disp, datatype.Bytes(1), ft)
		}
		s.files[r], s.errs[r], s.bufs[r] = f, err, wl.FillBuffer(r)
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
		for _, b := range s.bufs {
			clear(b)
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
	if s.write {
		s.errs[r] = s.files[r].WriteAll(s.bufs[r], s.mt, s.wl.RegionCount)
	} else {
		s.errs[r] = s.files[r].ReadAll(s.bufs[r], s.mt, s.wl.RegionCount)
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
		return VerifyImage(s.wl, s.fs.Snapshot(sessionFile, int64(len(s.wl.Reference()))))
	}
	for r, buf := range s.bufs {
		got, _ := datatype.Pack(buf, s.mt, 0, s.wl.RegionCount)
		want, _ := datatype.Pack(s.wl.FillBuffer(r), s.mt, 0, s.wl.RegionCount)
		if !bytes.Equal(got, want) {
			return fmt.Errorf("colltest: rank %d read back other bytes than it wrote", r)
		}
	}
	return nil
}
