package core

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"flexio/internal/datatype"
	"flexio/internal/mpi"
	"flexio/internal/mpiio"
	"flexio/internal/pfs"
	"flexio/internal/realm"
	"flexio/internal/sim"
	"flexio/internal/stats"
	"flexio/internal/trace"
)

var recordMissPath = flag.Bool("record-misspath", false,
	"rewrite testdata/misspath_*.txt from this build (only when a change is meant to move a pair charge)")

// ckptShape is the checkpoint pattern of Fig 7 (and of the benchmark's
// ckpt-write): each rank owns every ranks-th element of a data point, a
// point holds slots time steps, and every step installs a fresh filetype
// object at a new displacement, so neither side of the layout memo can hit.
type ckptShape struct {
	ranks               int
	elem, elems, points int64
	slots               int64
}

func (c ckptShape) owned(rank int) int64 {
	return (c.elems - int64(rank) + int64(c.ranks) - 1) / int64(c.ranks)
}

// view builds the rank's view of one step: new objects on every call.
func (c ckptShape) view(rank, step int) (disp int64, ft datatype.Type) {
	n := c.owned(rank)
	lens, displs := make([]int64, n), make([]int64, n)
	for i := range lens {
		lens[i] = 1
		displs[i] = (int64(rank) + int64(i)*int64(c.ranks)) * c.elem
	}
	pattern := datatype.Must(datatype.HIndexed(lens, displs, datatype.Bytes(c.elem)))
	slot := c.elems * c.elem
	return int64(step) * slot, datatype.Must(datatype.Resized(pattern, c.slots*slot))
}

func (c ckptShape) payload(rank, step int) []byte {
	buf := make([]byte, c.owned(rank)*c.elem*c.points)
	for i := range buf {
		buf[i] = byte(31*rank + 7*step + i + i>>8)
	}
	return buf
}

// ckptSession is one world with the checkpoint file open on every rank; the
// file handles outlive the World.Run that opened them, so a test issues one
// step at a time.
type ckptSession struct {
	sh    ckptShape
	w     *mpi.World
	fs    *pfs.FileSystem
	files []*mpiio.File
	bufs  [][]byte // reused by every step: the payload is not what is measured
	errs  []error
	step  int
	stepF func(p *mpi.Proc)
}

func newCkptSession(t testing.TB, sh ckptShape, eng *Impl, aggs int, cb int64, traced bool) *ckptSession {
	t.Helper()
	cfg := sim.DefaultConfig()
	s := &ckptSession{sh: sh, w: mpi.NewWorld(sh.ranks, cfg), fs: pfs.NewFileSystem(cfg),
		files: make([]*mpiio.File, sh.ranks), bufs: make([][]byte, sh.ranks), errs: make([]error, sh.ranks)}
	if traced {
		s.w.EnableTracing(0)
	}
	info := mpiio.Info{Collective: eng, CbNodes: aggs, CollBufSize: cb}
	s.w.Run(func(p *mpi.Proc) {
		s.files[p.Rank()], s.errs[p.Rank()] = mpiio.Open(p, s.fs, "ckpt.dat", info)
		s.bufs[p.Rank()] = sh.payload(p.Rank(), 0)
	})
	s.stepF = s.rankStep
	s.check(t, "open")
	return s
}

func (s *ckptSession) check(t testing.TB, what string) {
	t.Helper()
	for r, err := range s.errs {
		if err != nil {
			t.Fatalf("%s: rank %d: %v", what, r, err)
		}
	}
}

func (s *ckptSession) rankStep(p *mpi.Proc) {
	r := p.Rank()
	disp, ft := s.sh.view(r, s.step)
	if s.errs[r] = s.files[r].SetView(disp, datatype.Bytes(1), ft); s.errs[r] != nil {
		return
	}
	s.errs[r] = s.files[r].WriteAll(s.bufs[r], datatype.Bytes(s.sh.owned(r)*s.sh.elem), s.sh.points)
}

// writeStep issues the next step's collective write on every rank.
func (s *ckptSession) writeStep(t testing.TB) {
	t.Helper()
	s.w.Run(s.stepF)
	s.check(t, fmt.Sprintf("step %d", s.step))
	s.step++
}

// missPathListing renders what six steps of the miss path charged and wrote:
// one line per step and rank with the ChargePairs sequence (the "pairs" tag
// of every flatten span, in order), one line per rank with its counters, and
// the digest of the file image.
func missPathListing(t *testing.T, o Options) string {
	sh := ckptShape{ranks: 16, elem: 32, elems: 40, points: 32, slots: 8}
	s := newCkptSession(t, sh, New(o), 8, 4<<10, true)
	var b strings.Builder
	seen := make([]int, sh.ranks)
	for step := 0; step < 6; step++ {
		copyPayloads(s, step)
		s.writeStep(t)
		for r := 0; r < sh.ranks; r++ {
			fmt.Fprintf(&b, "step %d rank %2d pairs", step, r)
			evs := s.w.TraceSink().Tracer(r).Events()
			for _, e := range evs[seen[r]:] {
				if e.Kind == trace.KindBegin && e.Name == stats.PFlatten {
					fmt.Fprintf(&b, " %d", e.Tags[0].Int)
				}
			}
			seen[r] = len(evs)
			b.WriteString("\n")
		}
	}
	for r := 0; r < sh.ranks; r++ {
		rec := s.w.Proc(r).Stats
		fmt.Fprintf(&b, "rank %2d pairs_processed %d req_bytes %d memo hits %d misses %d\n", r,
			rec.Counter(stats.CPairsProcessed), rec.Counter(stats.CReqBytes),
			rec.Counter(stats.CIsectCacheHits), rec.Counter(stats.CIsectCacheMisses))
	}
	size := s.fs.Size("ckpt.dat")
	fmt.Fprintf(&b, "image %d bytes sha256 %x\n", size, sha256.Sum256(s.fs.Snapshot("ckpt.dat", size)))
	return b.String()
}

// copyPayloads gives every rank the step's own bytes, so the image digest
// covers where each step landed and not only that something did.
func copyPayloads(s *ckptSession, step int) {
	for r := range s.bufs {
		copy(s.bufs[r], s.sh.payload(r, step))
	}
}

// TestMissPathGolden pins the memo-miss path of the collective against a
// listing recorded before the intersection kernel moved into datatype: the
// pairs charged, call by call, are what the cost model is built on, and a
// faster way to find the pieces must charge exactly the same ones.
func TestMissPathGolden(t *testing.T) {
	variants := []struct {
		name string
		o    Options
	}{
		{"even", Options{Persistent: true, Align: 8 << 10}},
		{"cyclic", Options{Persistent: true, Assigner: realm.Cyclic{Block: 2 << 10}}},
		{"heap", Options{Persistent: true, Align: 8 << 10, HeapMerge: true}},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			got := missPathListing(t, v.o)
			checkGolden(t, filepath.Join("testdata", "misspath_"+v.name+".txt"), got, *recordMissPath)
		})
	}
}

// checkGolden compares a listing with its golden file line by line, or
// rewrites the file when record is set.
func checkGolden(t *testing.T, path, got string, record bool) {
	t.Helper()
	if record {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for k := 0; k < len(gl) && k < len(wl); k++ {
		if gl[k] != wl[k] {
			t.Errorf("line %d:\n got  %s\n want %s", k+1, gl[k], wl[k])
		}
	}
	if len(gl) != len(wl) {
		t.Errorf("%d lines, want %d", len(gl), len(wl))
	}
}

// TestMissPathAllocs bounds what one collective write costs in allocations
// when both sides of the memo miss, on a rank whose memo ring is warm (a
// checkpoint loop past its eighth call). The budget is the measured value
// plus a tenth: what remains is per call (the step's views, messages,
// World.Run; planning itself allocates nothing, see
// TestMemoRecyclesEvictedSlots), so anything per piece or per intersection —
// an append-grown piece list, a rebuilt cursor — lands far outside it: with
// the closure-driven intersection and a cursor built per pass this shape
// measured 5328, with entries minted at their exact size on every call 462,
// against 318 now.
func TestMissPathAllocs(t *testing.T) {
	sh := ckptShape{ranks: 16, elem: 32, elems: 40, points: 32, slots: 64}
	s := newCkptSession(t, sh, New(Options{Persistent: true, Align: 8 << 10}), 8, 4<<10, false)
	for k := 0; k < memoSlots; k++ {
		s.writeStep(t) // every slot of every ring has held a plan of this size
	}
	got := testing.AllocsPerRun(10, func() { s.writeStep(t) })
	t.Logf("%.0f allocs per memo-miss WriteAll (all %d ranks)", got, sh.ranks)
	const budget = 350
	if got > budget && !raceEnabled {
		t.Fatalf("%.0f allocs per memo-miss WriteAll, budget %d", got, budget)
	}
}
