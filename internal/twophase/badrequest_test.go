package twophase

import (
	"encoding/binary"
	"fmt"
	"strings"
	"testing"
	"time"

	"flexio/internal/colltest"
	"flexio/internal/datatype"
	"flexio/internal/mpi"
	"flexio/internal/mpiio"
	"flexio/internal/pfs"
	"flexio/internal/sim"
)

// badRequestWorld is the repro's shape: four ranks, two aggregators, one
// round, 16 interleaved regions a rank.
type badRequestWorld struct {
	wl  colltest.Workload
	w   *mpi.World
	fs  *pfs.FileSystem
	eng *Impl
	fts []datatype.Type
}

func newBadRequestWorld() *badRequestWorld {
	cfg := sim.DefaultConfig()
	b := &badRequestWorld{wl: colltest.Workload{Ranks: 4, RegionSize: 64, RegionCount: 16, Spacing: 32},
		w: mpi.NewWorld(4, cfg), fs: pfs.NewFileSystem(cfg), eng: New()}
	// One filetype object per rank for all calls, so the sender's side of
	// the memo hits on the second.
	b.fts = make([]datatype.Type, b.wl.Ranks)
	for r := range b.fts {
		b.fts[r], _ = b.wl.Filetype(r)
	}
	return b
}

// writeAll runs one collective write on every rank. A panic in a rank
// goroutine is the test's, a hang fails it after a while.
func (b *badRequestWorld) writeAll(t *testing.T) []error {
	t.Helper()
	errs := make([]error, b.wl.Ranks)
	done := make(chan struct{})
	go func() {
		defer close(done)
		b.w.Run(func(p *mpi.Proc) {
			r := p.Rank()
			f, err := mpiio.Open(p, b.fs, "bad.dat", mpiio.Info{Collective: b.eng, CbNodes: 2, CollBufSize: 4 << 10})
			if err != nil {
				errs[r] = err
				return
			}
			_, disp := b.wl.Filetype(r)
			if errs[r] = f.SetView(disp, datatype.Bytes(1), b.fts[r]); errs[r] != nil {
				return
			}
			mt, _ := b.wl.Memtype()
			errs[r] = f.WriteAll(b.wl.FillBuffer(r), mt, b.wl.RegionCount)
			f.Close()
		})
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("collective hung")
	}
	return errs
}

// TestMalformedRequestAbortsCollective is core's test of the same name for
// this engine: an offset/length list an aggregator cannot use used to panic
// inside it (a length that overran the sender's payload), be caught only by
// the file system's span check, or make that aggregator leave the collective
// alone while its peers waited in the round's agreement. It must abort the
// call on every rank, name the sender, and leave the engine fit for the next.
//
// The bad bytes are planted in the sender's memo entry: the second call of a
// shape sends the cached encoding, and the aggregators, whose key is a hash
// of what they receive, miss and decode it.
func TestMalformedRequestAbortsCollective(t *testing.T) {
	const bad = 2
	pair := func(enc []byte, k int) (off, n []byte) { return enc[4+16*k:], enc[12+16*k:] }
	malformed := []struct {
		name   string
		mangle func(enc []byte) []byte
	}{
		{"truncated", func(enc []byte) []byte { return enc[:len(enc)-5] }},
		{"overlapping", func(enc []byte) []byte {
			off0, _ := pair(enc, 0)
			off1, _ := pair(enc, 1)
			copy(off1[:8], off0[:8])
			return enc
		}},
		{"negative length", func(enc []byte) []byte {
			_, n := pair(enc, 3)
			binary.LittleEndian.PutUint64(n, uint64(1<<64-64))
			return enc
		}},
		{"outside the domain", func(enc []byte) []byte {
			k := int(binary.LittleEndian.Uint32(enc)) - 1
			off, _ := pair(enc, k)
			binary.LittleEndian.PutUint64(off, binary.LittleEndian.Uint64(off)+1<<20)
			return enc
		}},
		{"longer than the payload", func(enc []byte) []byte {
			_, n := pair(enc, 2)
			binary.LittleEndian.PutUint64(n, binary.LittleEndian.Uint64(n)+8) // still sorted, disjoint, in the domain
			return enc
		}},
	}
	for _, m := range malformed {
		t.Run(m.name, func(t *testing.T) {
			b := newBadRequestWorld()
			for r, err := range b.writeAll(t) {
				if err != nil {
					t.Fatalf("rank %d: clean write: %v", r, err)
				}
			}
			_, disp := b.wl.Filetype(bad)
			sender := b.eng.scratch.For(bad, b.wl.Ranks).clients.Get(clientKey{ft: b.fts[bad], disp: disp,
				dataLen: b.wl.RegionSize * b.wl.RegionCount, cb: 4 << 10, naggs: 2, aarSt: 0, aarEn: b.wl.FileSize()})
			if sender == nil {
				t.Fatal("no memo entry for the sender")
			}
			good := sender.encs[0]
			sender.encs[0] = m.mangle(append([]byte(nil), good...))
			// Twice: a degraded plan that got memoized would be hit, and
			// trusted, the second time.
			for attempt := 0; attempt < 2; attempt++ {
				named := false
				for r, err := range b.writeAll(t) {
					if err == nil {
						t.Fatalf("attempt %d, rank %d: malformed request went unnoticed", attempt, r)
					}
					named = named || strings.Contains(err.Error(), fmt.Sprintf("rank %d", bad))
				}
				if !named {
					t.Fatalf("attempt %d: no rank's error names the sender", attempt)
				}
				// A list that plans (the last case: only the payload shows it
				// up, in the executor) is a shape like any other; one planned
				// around a stand-in must have gone without a key.
				for a := 0; a < 2 && m.name != "longer than the payload"; a++ {
					kept := 0
					b.eng.scratch.For(a, b.wl.Ranks).aggs.Each(func(aggKey, *aggEntry) { kept++ })
					if kept != 1 {
						t.Fatalf("attempt %d: aggregator %d keeps %d plans, want the clean call's alone", attempt, a, kept)
					}
				}
			}
			sender.encs[0] = good
			for r, err := range b.writeAll(t) {
				if err != nil {
					t.Fatalf("rank %d: write after the abort: %v", r, err)
				}
			}
			if err := colltest.VerifyImage(b.wl, b.fs.Snapshot("bad.dat", b.wl.FileSize())); err != nil {
				t.Fatal(err)
			}
		})
	}

	// The repro the bug was found with: integrity off, one bit of the
	// sender's first request to rank 0 flipped in flight. At the parent commit
	// seeds 4 and 7 panicked rank 0, seed 2 was caught only by the file
	// system's span check, and the other five lost the sender's bytes without
	// a word (the flip pushed a pair out of every round's window).
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprint("bit flip/seed ", seed), func(t *testing.T) {
			b := newBadRequestWorld()
			b.w.SetRankFaults(mpi.NewRankFaultSchedule(seed).Corrupt(bad, 0, 1.0, 1, 1))
			errs := b.writeAll(t)
			for r, err := range errs {
				if err == nil || mpiio.ErrorClass(err) != mpiio.ErrorClass(errs[0]) {
					t.Fatalf("rank %d returned %v, rank 0 %v", r, err, errs[0])
				}
			}
			if !strings.Contains(errs[0].Error(), fmt.Sprintf("bad request from rank %d", bad)) {
				t.Fatalf("rank 0's error does not name the sender: %v", errs[0])
			}
		})
	}
}
