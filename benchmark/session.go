package main

import (
	"bytes"
	"fmt"

	"flexio/internal/datatype"
	"flexio/internal/metrics"
	"flexio/internal/mpi"
	"flexio/internal/mpiio"
	"flexio/internal/pfs"
	"flexio/internal/sim"
	"flexio/internal/trace"
)

const fileName = "bench.dat"

// warmOps is the number of untimed ops a fresh session runs: the first
// establishes persistent realms and engine caches, the second brings page
// and lock state to its fixed point.
const warmOps = 2

// session is one simulated world with the workload's file open and its view
// installed on every rank, ready to issue one collective call at a time.
type session struct {
	wl    *workload
	sh    shape
	world *mpi.World
	fs    *pfs.FileSystem
	met   *metrics.Set
	sink  *trace.Sink // nil unless the session traces

	files    []*mpiio.File
	memtypes []datatype.Type
	counts   []int64
	readBufs [][]byte // what ReadAll fills (read workloads)
	errs     []error  // per rank, reused by every Run

	// step counts the ops issued on the current file, warm-ups included.
	step int
	// opFn is rankOp bound once, so issuing an op allocates no method value.
	opFn func(p *mpi.Proc)
}

// newSession builds the world and file system, opens the file, seeds it for
// reads and warms it, recording one span per stage under parent.
func newSession(wl *workload, sh shape, traced bool, sp *spanLog, parent int) (*session, error) {
	id := sp.child("setup.world", parent)
	cfg := sim.DefaultConfig()
	if wl.sim != nil {
		cfg = wl.sim()
	}
	p := sh.ranks()
	s := &session{
		wl:       wl,
		sh:       sh,
		world:    mpi.NewWorld(p, cfg),
		fs:       pfs.NewFileSystem(cfg),
		files:    make([]*mpiio.File, p),
		memtypes: make([]datatype.Type, p),
		counts:   make([]int64, p),
		errs:     make([]error, p),
	}
	s.world.SetNodeMap(mpi.BlockNodeMap(nodeRanks))
	if wl.integrity {
		s.world.EnableIntegrity(10)
		s.fs.EnableIntegrity(10, 0)
	}
	if traced {
		s.sink = s.world.EnableTracing(0)
	}
	s.met = s.world.EnableMetrics()
	s.world.EnableCommMatrix()
	for r := 0; r < p; r++ {
		s.memtypes[r], s.counts[r] = sh.memory(r)
		if wl.read {
			s.readBufs = append(s.readBufs, make([]byte, len(sh.payload(r, 0))))
		}
	}
	s.opFn = s.rankOp
	sp.end(id)

	id = sp.child("setup.open", parent)
	err := s.open()
	sp.end(id)
	if err != nil {
		return nil, err
	}

	if wl.read {
		id = sp.child("setup.seed", parent)
		err = s.run(s.rankSeed)
		sp.end(id)
		if err != nil {
			return nil, fmt.Errorf("seed: %w", err)
		}
	}

	id = sp.child("setup.warm", parent)
	defer sp.end(id)
	for i := 0; i < warmOps; i++ {
		if err := s.op(); err != nil {
			return nil, fmt.Errorf("warm-up op %d: %w", i, err)
		}
	}
	return s, nil
}

// run executes fn on every rank as one World.Run and returns the first
// rank error.
func (s *session) run(fn func(p *mpi.Proc)) error {
	s.world.Run(fn)
	for r, err := range s.errs {
		if err != nil {
			return fmt.Errorf("rank %d: %w", r, err)
		}
	}
	return nil
}

// open opens the file collectively with a fresh engine instance and, for
// workloads with one view for the whole file, installs it.
func (s *session) open() error {
	info := mpiio.Info{Collective: s.wl.engine(), CbNodes: s.wl.cbNodes, CollBufSize: s.wl.cbBuffer}
	s.step = 0
	return s.run(func(p *mpi.Proc) {
		r := p.Rank()
		f, err := mpiio.Open(p, s.fs, fileName, info)
		if err == nil && !s.sh.perOpView() {
			disp, ft := s.sh.view(r, 0)
			err = f.SetView(disp, datatype.Bytes(1), ft)
		}
		s.files[r], s.errs[r] = f, err
	})
}

// rankSeed writes step 0's payload so reads return real data.
func (s *session) rankSeed(p *mpi.Proc) {
	r := p.Rank()
	s.errs[r] = s.files[r].WriteAll(s.sh.payload(r, 0), s.memtypes[r], s.counts[r])
}

// rankOp is one rank's part of one op: the collective call, preceded by a
// fresh view where the workload asks for one.
func (s *session) rankOp(p *mpi.Proc) {
	r := p.Rank()
	f := s.files[r]
	if s.sh.perOpView() {
		disp, ft := s.sh.view(r, s.step)
		if err := f.SetView(disp, datatype.Bytes(1), ft); err != nil {
			s.errs[r] = err
			return
		}
	}
	if s.wl.read {
		s.errs[r] = f.ReadAll(s.readBufs[r], s.memtypes[r], s.counts[r])
		return
	}
	s.errs[r] = f.WriteAll(s.sh.payload(r, s.step), s.memtypes[r], s.counts[r])
}

// op issues one collective call on every rank.
func (s *session) op() error {
	err := s.run(s.opFn)
	s.step++
	return err
}

// rollover closes and removes the file and opens a fresh one.
func (s *session) rollover() error {
	if err := s.run(func(p *mpi.Proc) {
		s.errs[p.Rank()] = s.files[p.Rank()].Close()
	}); err != nil {
		return err
	}
	s.fs.Remove(fileName)
	return s.open()
}

// readsCorrect compares what the last ReadAll delivered with the payload
// the file was seeded with (gap bytes are zero on both sides) and clears the buffers for the
// next op. It allocates nothing, so it may run between timed ops.
func (s *session) readsCorrect() bool {
	ok := true
	for r, buf := range s.readBufs {
		if !bytes.Equal(buf, s.sh.payload(r, 0)) {
			ok = false
		}
		clear(buf)
	}
	return ok
}

// imageCorrect compares the file with the image the ops issued on it so far
// must have produced.
func (s *session) imageCorrect() bool {
	want := s.sh.image(s.step)
	return bytes.Equal(s.fs.Snapshot(fileName, int64(len(want))), want)
}
