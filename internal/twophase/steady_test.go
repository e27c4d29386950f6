package twophase

import (
	"testing"

	"flexio/internal/colltest"
	"flexio/internal/datatype"
	"flexio/internal/mpi"
	"flexio/internal/mpiio"
	"flexio/internal/pfs"
	"flexio/internal/sim"
)

// steadySession is one world with a file open on every rank and the view
// installed; the handles outlive the World.Run that opened them, so a test
// issues one collective call at a time, as the benchmark's romio-write does.
type steadySession struct {
	wl    colltest.Workload
	w     *mpi.World
	files []*mpiio.File
	bufs  [][]byte
	errs  []error
	mt    datatype.Type
	write bool
	stepF func(p *mpi.Proc)
}

func newSteadySession(t testing.TB, wl colltest.Workload, aggs int, cb int64) *steadySession {
	t.Helper()
	cfg := sim.DefaultConfig()
	s := &steadySession{wl: wl, w: mpi.NewWorld(wl.Ranks, cfg), write: true,
		files: make([]*mpiio.File, wl.Ranks), bufs: make([][]byte, wl.Ranks), errs: make([]error, wl.Ranks)}
	s.mt, _ = wl.Memtype()
	fs := pfs.NewFileSystem(cfg)
	info := mpiio.Info{Collective: New(), CbNodes: aggs, CollBufSize: cb}
	s.w.Run(func(p *mpi.Proc) {
		r := p.Rank()
		f, err := mpiio.Open(p, fs, "steady.dat", info)
		if err == nil {
			ft, disp := wl.Filetype(r)
			err = f.SetView(disp, datatype.Bytes(1), ft)
		}
		s.files[r], s.errs[r], s.bufs[r] = f, err, wl.FillBuffer(r)
	})
	s.stepF = s.rankStep
	s.check(t, "open")
	return s
}

func (s *steadySession) check(t testing.TB, what string) {
	t.Helper()
	for r, err := range s.errs {
		if err != nil {
			t.Fatalf("%s: rank %d: %v", what, r, err)
		}
	}
}

func (s *steadySession) rankStep(p *mpi.Proc) {
	r := p.Rank()
	if s.write {
		s.errs[r] = s.files[r].WriteAll(s.bufs[r], s.mt, s.wl.RegionCount)
	} else {
		s.errs[r] = s.files[r].ReadAll(s.bufs[r], s.mt, s.wl.RegionCount)
	}
}

// step issues one collective call on every rank.
func (s *steadySession) step(t testing.TB) {
	t.Helper()
	s.w.Run(s.stepF)
	s.check(t, "step")
}

// romioWriteShape is the benchmark's romio-write: 8 ranks, 1024 interleaved
// regions of 512 bytes each, gapped in memory, 4 aggregators, 256 KiB rounds.
func romioWriteShape() (colltest.Workload, int, int64) {
	return colltest.Workload{Ranks: 8, RegionSize: 512, RegionCount: 1024, Spacing: 256,
		MemNoncontig: true, MemGap: 64}, 4, 256 << 10
}

// TestRomioSteadyStateAllocs bounds what a collective call through the
// baseline costs in allocations once both sides of the plan memo hit: what is
// left is what World.Run itself allocates per call (a goroutine per rank, a
// WaitGroup, the closure), nothing per piece, per round or per message. With
// its own round loop the engine measured 1,114 per write of this shape. The
// budget is the measured value plus a tenth.
func TestRomioSteadyStateAllocs(t *testing.T) {
	wl, aggs, cb := romioWriteShape()
	s := newSteadySession(t, wl, aggs, cb)
	for _, write := range []bool{true, false} {
		s.write = write
		s.step(t) // plans, or re-plans nothing: reads share the writes' plans
		s.step(t)
		got := testing.AllocsPerRun(20, func() { s.step(t) })
		t.Logf("%.0f allocs per memo-hit collective call (write=%v, all %d ranks)", got, write, wl.Ranks)
		const budget = 22
		if got > budget && !raceEnabled {
			t.Errorf("%.0f allocs per memo-hit call (write=%v), budget %d", got, write, budget)
		}
	}
	for r := range s.bufs {
		want := wl.FillBuffer(r)
		for k := range want {
			if s.bufs[r][k] != want[k] {
				t.Fatalf("rank %d read back wrong byte %d", r, k)
			}
		}
	}
}

// BenchmarkRomioHit is one romio-write-sized collective write on a warm
// engine: planning is two memo lookups and the replay of three pair charges.
func BenchmarkRomioHit(b *testing.B) {
	wl, aggs, cb := romioWriteShape()
	s := newSteadySession(b, wl, aggs, cb)
	s.step(b)
	s.step(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.step(b)
	}
}

// BenchmarkRomioMiss is the same call planning from nothing, as every call of
// a checkpoint loop does (Fig 7's "old" curves): flatten, split and encode on
// every rank, decode and merge on every aggregator. Nine view displacements
// in rotation miss a memo of eight shapes on every call (after the first
// nine, on file pages that exist). The difference to
// BenchmarkRomioHit is what the memo saves.
func BenchmarkRomioMiss(b *testing.B) {
	wl, aggs, cb := romioWriteShape()
	s := newSteadySession(b, wl, aggs, cb)
	call := 0
	s.stepF = func(p *mpi.Proc) {
		r := p.Rank()
		ft, disp := wl.Filetype(r)
		if s.errs[r] = s.files[r].SetView(disp+int64(call%9)*4096, datatype.Bytes(1), ft); s.errs[r] == nil {
			s.rankStep(p)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.step(b)
		call++
	}
}
