package core

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"flexio/internal/colltest"
	"flexio/internal/datatype"
	"flexio/internal/metrics"
	"flexio/internal/mpi"
	"flexio/internal/mpiio"
	"flexio/internal/pfs"
	"flexio/internal/sim"
	"flexio/internal/stats"
	"flexio/internal/trace"
)

// The ROMIO baseline (ROMIO: this package's planner with ROMIO's request
// form) pinned end to end: its golden listings and its steady-state cost.

var recordRomio = flag.Bool("record-romio", false,
	"rewrite testdata/romio_*.txt from this build (only when a change is meant to move a ROMIO charge, message or rendezvous)")

// romioSession drives the baseline engine one collective call at a time and
// renders what each call charged: every op opens the file, installs the
// view, transfers and closes, as one World.Run, with the engine and the
// filetype objects kept across ops so a memoizing engine plans the first op
// and hits on the rest.
type romioSession struct {
	wl      colltest.Workload
	w       *mpi.World
	fs      *pfs.FileSystem
	sink    *trace.Sink
	info    mpiio.Info
	write   bool
	fts     []datatype.Type
	disps   []int64
	bufs    [][]byte // what WriteAll sends or ReadAll fills
	errs    []error
	crashed []bool
	ops     int
	b       strings.Builder
}

const romioFile = "romio.dat"

func newRomioSession(t *testing.T, wl colltest.Workload, info mpiio.Info, write bool) *romioSession {
	t.Helper()
	cfg := sim.DefaultConfig()
	s := &romioSession{wl: wl, w: mpi.NewWorld(wl.Ranks, cfg), fs: pfs.NewFileSystem(cfg), info: info, write: write,
		fts: make([]datatype.Type, wl.Ranks), disps: make([]int64, wl.Ranks),
		bufs: make([][]byte, wl.Ranks), errs: make([]error, wl.Ranks), crashed: make([]bool, wl.Ranks)}
	if wl.NodeRanks > 0 {
		s.w.SetNodeMap(mpi.BlockNodeMap(wl.NodeRanks))
	}
	mt, bufLen := wl.Memtype()
	for r := range s.fts {
		s.fts[r], s.disps[r] = wl.Filetype(r)
		if write {
			s.bufs[r] = wl.FillBuffer(r)
		} else {
			s.bufs[r] = make([]byte, bufLen)
		}
	}
	if !write {
		// Seed through the independent list-I/O path, then forget its timing.
		s.w.Run(func(p *mpi.Proc) {
			r := p.Rank()
			f, err := mpiio.Open(p, s.fs, romioFile, mpiio.Info{IndepMethod: mpiio.ListIO})
			if err == nil {
				err = f.SetView(s.disps[r], datatype.Bytes(1), s.fts[r])
			}
			if err == nil {
				err = f.WriteIndependent(wl.FillBuffer(r), mt, wl.RegionCount)
			}
			if err == nil {
				err = f.Close()
			}
			s.errs[r] = err
		})
		for r, err := range s.errs {
			if err != nil {
				t.Fatalf("seeding: rank %d: %v", r, err)
			}
		}
		// The listings' counters include the seeding: they were recorded
		// while a reset still left counters standing. Carry them across.
		seeded := make([]*metrics.Registry, wl.Ranks)
		for r := range seeded {
			seeded[r] = metrics.Merge(s.w.Proc(r).Metrics)
		}
		s.w.ResetClocks()
		s.fs.ResetTiming()
		for r, reg := range seeded {
			s.w.Proc(r).Metrics.MergeFrom(reg)
		}
	}
	s.sink = s.w.EnableTracing(0)
	return s
}

// op issues one collective call on every rank and appends its listing: per
// rank, the ChargePairs sequence, every copy charge in bytes, and how many
// collectives and point-to-point messages (with their bytes) the rank issued,
// all read off the rank's trace. A rank that returned an error lists its
// agreed class instead; one an injected crash unwound lists "crashed".
func (s *romioSession) op(t *testing.T) {
	t.Helper()
	mt, _ := s.wl.Memtype()
	for r := range s.errs {
		s.errs[r], s.crashed[r] = nil, true
	}
	s.w.Run(func(p *mpi.Proc) {
		r := p.Rank()
		f, err := mpiio.Open(p, s.fs, romioFile, s.info)
		if err == nil {
			err = f.SetView(s.disps[r], datatype.Bytes(1), s.fts[r])
		}
		if err == nil {
			if s.write {
				err = f.WriteAll(s.bufs[r], mt, s.wl.RegionCount)
			} else {
				clear(s.bufs[r])
				err = f.ReadAll(s.bufs[r], mt, s.wl.RegionCount)
			}
			f.Close()
		}
		s.errs[r], s.crashed[r] = err, false
	})
	for r := 0; r < s.wl.Ranks; r++ {
		fmt.Fprintf(&s.b, "op %d rank %d", s.ops, r)
		switch {
		case s.crashed[r]:
			s.b.WriteString(" crashed\n")
			continue
		case s.errs[r] != nil:
			fmt.Fprintf(&s.b, " abort %s\n", mpiio.ClassName(mpiio.ErrorClass(s.errs[r])))
			continue
		}
		var pairs, copies strings.Builder
		var colls, msgs, msgBytes int64
		for _, e := range s.sink.Tracer(r).Events() {
			switch {
			case e.Kind == trace.KindBegin && e.Name == stats.PFlatten:
				fmt.Fprintf(&pairs, " %d", e.Tags[0].Int)
			case e.Kind == trace.KindBegin && e.Name == stats.PCopy:
				fmt.Fprintf(&copies, " %d", e.Tags[0].Int)
			case e.Kind == trace.KindInstant && e.Name == trace.CollEnterName:
				colls++
			case e.Kind == trace.KindInstant && e.Name == trace.MsgSendName:
				msgs++
				msgBytes += e.Tags[1].Int
			}
		}
		fmt.Fprintf(&s.b, " pairs%s | copies%s | colls %d | msgs %d bytes %d\n",
			pairs.String(), copies.String(), colls, msgs, msgBytes)
	}
	s.sink.Reset()
	s.ops++
}

// finish appends every rank's counters and the data digests and returns the
// listing.
func (s *romioSession) finish(t *testing.T) string {
	t.Helper()
	for r := 0; r < s.wl.Ranks; r++ {
		rec := s.w.Proc(r).Metrics
		fmt.Fprintf(&s.b, "rank %d req_bytes %d bytes_comm %d io_calls %d bytes_io %d pairs %d degraded %d\n", r,
			rec.Counter(metrics.CReqBytes), rec.Counter(metrics.CCommBytes), rec.Counter(metrics.CIOCalls),
			rec.Counter(metrics.CIOBytes), rec.Counter(metrics.CPairsProcessed), rec.Counter(metrics.CDegradedRounds))
	}
	s.data(t)
	return s.b.String()
}

// data checks the file image (writes) or every rank's buffer (reads) against
// the workload's reference and appends the digests.
func (s *romioSession) data(t *testing.T) {
	t.Helper()
	if s.write {
		img := s.fs.Snapshot(romioFile, s.wl.FileSize())
		if err := colltest.VerifyImage(s.wl, img); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&s.b, "image %d bytes sha256 %x\n", len(img), sha256.Sum256(img))
	} else {
		for r, buf := range s.bufs {
			if !bytes.Equal(buf, s.wl.FillBuffer(r)) {
				t.Fatalf("rank %d read back wrong bytes", r)
			}
			fmt.Fprintf(&s.b, "rank %d read %d bytes sha256 %x\n", r, len(buf), sha256.Sum256(buf))
		}
	}
}

func (s *romioSession) clocks() {
	for r := 0; r < s.wl.Ranks; r++ {
		fmt.Fprintf(&s.b, "rank %d clock %016x\n", r, math.Float64bits(float64(s.w.Proc(r).Clock())))
	}
}

func romioWorkload() colltest.Workload {
	return colltest.Workload{Ranks: 8, RegionSize: 96, RegionCount: 48, Spacing: 40, Disp: 72,
		MemNoncontig: true, MemGap: 24}
}

const (
	romioAggs = 4
	romioCB   = 2 << 10 // seven rounds per file domain
)

// romioListing runs one golden scenario: three identical calls, so a
// memoizing engine is pinned on its miss and on two hits.
func romioListing(t *testing.T, scenario string, write bool) string {
	wl := romioWorkload()
	info := mpiio.Info{CbNodes: romioAggs, CollBufSize: romioCB}
	switch scenario {
	case "plain":
		info.Collective = ROMIO(Options{})
		s := newRomioSession(t, wl, info, write)
		for k := 0; k < 3; k++ {
			s.op(t)
		}
		return s.finish(t)

	case "preagg":
		wl.NodeRanks = 2
		info.Collective = ROMIO(Options{Preagg: true})
		s := newRomioSession(t, wl, info, write)
		for k := 0; k < 3; k++ {
			s.op(t)
		}
		return s.finish(t)

	case "resume":
		// The last rank, a pure client, dies entering round 1: the survivors
		// abort, the world revives it, and the same engine resumes against
		// the journal (skipping the rounds already durable), then runs once
		// more with nothing left to recover.
		const victim = 7
		j := mpiio.NewWriteJournal()
		info.Collective = ROMIO(Options{Journal: j})
		s := newRomioSession(t, wl, info, write)
		s.w.SetRankFaults(mpi.NewRankFaultSchedule(1).Crash(victim, 1))
		s.w.SetCollDeadline(50e-3)
		s.op(t)
		if !s.crashed[victim] {
			t.Fatal("the crash rule never fired")
		}
		fmt.Fprintf(&s.b, "journal holds %d rounds\n", j.Rounds())
		s.w.ReviveAll()
		j.MarkResume([]int{victim})
		s.op(t)
		s.op(t)
		return s.finish(t)

	case "degrade":
		// Every sieve operation of round 2 fails hard on every call; the
		// hook says degrade, so those rounds are re-issued naively.
		info.Collective = ROMIO(Options{Degraded: true})
		s := newRomioSession(t, wl, info, write)
		s.fs.SetFaultSchedule(pfs.NewFaultSchedule(5).Add(pfs.Rule{
			Class: pfs.ClassIO, Rounds: []int{2}, Match: func(op pfs.Op) bool { return op.Sieve }}))
		for k := 0; k < 3; k++ {
			s.op(t)
		}
		return s.finish(t)

	case "clocks":
		// One aggregator: a single rank touches storage, so the order ranks
		// reach it in cannot move a virtual time and every final clock is
		// pinned bit for bit. Three writes, then three reads of them.
		info.CbNodes = 1
		info.Collective = ROMIO(Options{})
		s := newRomioSession(t, wl, info, true)
		for k := 0; k < 3; k++ {
			s.op(t)
		}
		s.clocks()
		s.data(t)
		s.write = false
		for k := 0; k < 3; k++ {
			s.op(t)
		}
		s.clocks()
		return s.finish(t)
	}
	t.Fatalf("unknown scenario %q", scenario)
	return ""
}

// TestRomioGolden pins the modelled behaviour of the ROMIO baseline against
// listings recorded, by this test, at the commit before the engine
// became a planner in front of core's round executor, and re-recorded once
// when a completed call stopped closing with a barrier (one collective fewer
// per call and rank, and the final clocks): per call and rank the pairs
// charged, the copies charged, the collectives and messages issued, then the
// counters and the data. How the host moves the bytes is free to change; a
// charge, a message or a rendezvous of a completed call is not. (A call that
// aborts is pinned by its agreed outcome only.)
func TestRomioGolden(t *testing.T) {
	type variant struct {
		scenario string
		write    bool
	}
	var variants []variant
	for _, sc := range []string{"plain", "preagg", "resume", "degrade"} {
		variants = append(variants, variant{sc, true}, variant{sc, false})
	}
	variants = append(variants, variant{"clocks", true})
	for _, v := range variants {
		name := v.scenario
		if v.scenario != "clocks" {
			name += map[bool]string{true: "_write", false: "_read"}[v.write]
		}
		t.Run(name, func(t *testing.T) {
			got := romioListing(t, v.scenario, v.write)
			checkGolden(t, filepath.Join("testdata", "romio_"+name+".txt"), got, *recordRomio)
		})
	}
}

// newSteadySession opens a warm session of the baseline on the workload,
// writing or reading, with aggs aggregators and cb-byte rounds.
func newSteadySession(t testing.TB, wl colltest.Workload, aggs int, cb int64, write bool) (*mpi.World, *colltest.Session) {
	t.Helper()
	cfg := sim.DefaultConfig()
	w := mpi.NewWorld(wl.Ranks, cfg)
	info := mpiio.Info{Collective: ROMIO(Options{}), CbNodes: aggs, CollBufSize: cb}
	s, err := colltest.NewSession(w, pfs.NewFileSystem(cfg), wl, info, write)
	if err != nil {
		t.Fatal(err)
	}
	return w, s
}

// romioWriteShape is the benchmark's romio-write: 8 ranks, 1024 interleaved
// regions of 512 bytes each, gapped in memory, 4 aggregators, 256 KiB rounds.
func romioWriteShape() (colltest.Workload, int, int64) {
	return colltest.Workload{Ranks: 8, RegionSize: 512, RegionCount: 1024, Spacing: 256,
		MemNoncontig: true, MemGap: 64}, 4, 256 << 10
}

// TestRomioSteadyStateAllocs holds a collective call through the baseline to
// no allocation once both sides of the plan memo hit: nothing per piece, per
// round or per message, and World.Run reuses its rank goroutines. With its
// own round loop the engine measured 1,114 per write of this shape, and 19
// when World.Run still spawned a goroutine per rank per call.
func TestRomioSteadyStateAllocs(t *testing.T) {
	wl, aggs, cb := romioWriteShape()
	for _, write := range []bool{true, false} {
		_, s := newSteadySession(t, wl, aggs, cb, write)
		got := testing.AllocsPerRun(20, func() {
			if err := s.Step(); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%.0f allocs per memo-hit collective call (write=%v, all %d ranks)", got, write, wl.Ranks)
		if got != 0 && !raceEnabled {
			t.Errorf("%.0f allocs per memo-hit call (write=%v), want 0", got, write)
		}
		if err := s.Verify(); err != nil {
			t.Fatal(err)
		}
	}
}

// BenchmarkRomioHit is one romio-write-sized collective write on a warm
// engine: planning is two memo lookups and the replay of three pair charges.
func BenchmarkRomioHit(b *testing.B) {
	wl, aggs, cb := romioWriteShape()
	_, s := newSteadySession(b, wl, aggs, cb, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Step(); err != nil {
			b.Fatal(err)
		}
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
	w, s := newSteadySession(b, wl, aggs, cb, true)
	mt, _ := wl.Memtype()
	bufs, errs := make([][]byte, wl.Ranks), make([]error, wl.Ranks)
	for r := range bufs {
		bufs[r] = wl.FillBuffer(r)
	}
	call := 0
	miss := func(p *mpi.Proc) {
		r, f := p.Rank(), s.File(p.Rank())
		ft, disp := wl.Filetype(r)
		if errs[r] = f.SetView(disp+int64(call%9)*4096, datatype.Bytes(1), ft); errs[r] == nil {
			errs[r] = f.WriteAll(bufs[r], mt, wl.RegionCount)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Run(miss)
		if err := errors.Join(errs...); err != nil {
			b.Fatal(err)
		}
		call++
	}
}
