package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
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
// round, 16 interleaved regions a rank, with one filetype object per rank
// for all calls, so the sender's side of the memo hits from the second.
type badRequestWorld struct {
	wl  colltest.Workload
	w   *mpi.World
	fs  *pfs.FileSystem
	eng *Impl
	fts []datatype.Type
}

func newBadRequestWorld(eng *Impl) *badRequestWorld {
	cfg := sim.DefaultConfig()
	b := &badRequestWorld{wl: colltest.Workload{Ranks: 4, RegionSize: 64, RegionCount: 16, Spacing: 32},
		w: mpi.NewWorld(4, cfg), fs: pfs.NewFileSystem(cfg), eng: eng}
	b.fts = make([]datatype.Type, b.wl.Ranks)
	for r := range b.fts {
		b.fts[r], _ = b.wl.Filetype(r)
	}
	return b
}

// call runs one collective call on every rank and returns their errors and,
// for a read, whether every rank read back what it wrote. A panic in a rank goroutine is
// the test's; a call that has not returned within patience fails it.
func (b *badRequestWorld) call(t *testing.T, write bool, patience time.Duration) (errs []error, exact bool) {
	t.Helper()
	errs, same := make([]error, b.wl.Ranks), make([]bool, b.wl.Ranks)
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
			defer f.Close()
			_, disp := b.wl.Filetype(r)
			if errs[r] = f.SetView(disp, datatype.Bytes(1), b.fts[r]); errs[r] != nil {
				return
			}
			mt, bufLen := b.wl.Memtype()
			if write {
				errs[r] = f.WriteAll(b.wl.FillBuffer(r), mt, b.wl.RegionCount)
				return
			}
			buf := make([]byte, bufLen)
			errs[r] = f.ReadAll(buf, mt, b.wl.RegionCount)
			same[r] = bytes.Equal(buf, b.wl.FillBuffer(r))
		})
	}()
	select {
	case <-done:
	case <-time.After(patience):
		t.Fatal("collective hung")
	}
	return errs, !slices.Contains(same, false)
}

// TestMalformedRequestAbortsCollective: a request an aggregator cannot use
// used to panic inside that aggregator (overlapping pairs, a length that
// overran the sender's payload), make it leave the collective alone (short
// buffer) while its peers waited in the next rendezvous, exhaust memory (an
// offset far outside the file), or be caught only by the file system's span
// check. Reading, the sender used to wait forever for bytes the refusing
// aggregator never sent (the others had none for it either), or, when the
// damaged list still planned, place the wrong ones. On every engine and in
// both directions it must abort the call on every rank, name the sender, and
// leave the engine fit for the next call.
//
// The bad bytes are planted in the sender's memo entry: the second call of
// a shape sends the cached requests, and the aggregators, whose key is a
// hash of what they receive, miss and decode them. The romio/bit flip rows
// are the repro ROMIO's malformed requests were found with: integrity off,
// one bit of the sender's first request to rank 0 flipped in flight. Seeds 4
// and 7 once panicked rank 0, seed 2 was caught only by the file system's
// span check, and the other five lost the sender's bytes without a word (the
// flip pushed a pair out of every round's window).
func TestMalformedRequestAbortsCollective(t *testing.T) {
	const bad = 2
	type malformation struct {
		name string
		// refusers are the aggregators that can tell: all of them when the
		// bytes do not decode, the one whose realm the access lands in when
		// they decode to an access no rank announced; none when the request
		// plans and only the payload shows it up.
		refusers []int
		mangle   func(enc []byte) []byte
	}
	flat := func(edit func(*datatype.Flat)) func([]byte) []byte {
		return func(enc []byte) []byte {
			fl, err := datatype.DecodeFlat(enc)
			if err != nil {
				t.Fatal(err)
			}
			edit(&fl)
			return fl.Encode()
		}
	}
	flats := []malformation{
		{"truncated", []int{0, 1}, func(enc []byte) []byte { return enc[:len(enc)-5] }},
		{"overlapping", []int{0, 1}, flat(func(fl *datatype.Flat) { fl.Segs = []datatype.Seg{{Off: 0, Len: 8}, {Off: 4, Len: 8}} })},
		{"unbounded", []int{0, 1}, flat(func(fl *datatype.Flat) { fl.Count, fl.Limit = -1, -1 })},
		// Decodes, and names bytes no rank announced: the unbounded tail realm
		// used to take them, and size its round table by their offset.
		{"far-away", []int{1}, flat(func(fl *datatype.Flat) { fl.Disp += 1 << 50 })},
	}
	// ROMIO's request to aggregator 0 is the sender's share of its domain,
	// a count and 16-byte offset/length pairs.
	pair := func(enc []byte, k int) (off, n []byte) { return enc[4+16*k:], enc[12+16*k:] }
	lists := []malformation{
		{"truncated", []int{0}, func(enc []byte) []byte { return enc[:len(enc)-5] }},
		{"overlapping", []int{0}, func(enc []byte) []byte {
			off0, _ := pair(enc, 0)
			off1, _ := pair(enc, 1)
			copy(off1[:8], off0[:8])
			return enc
		}},
		{"negative length", []int{0}, func(enc []byte) []byte {
			_, n := pair(enc, 3)
			binary.LittleEndian.PutUint64(n, uint64(1<<64-64))
			return enc
		}},
		{"outside the domain", []int{0}, func(enc []byte) []byte {
			off, _ := pair(enc, int(binary.LittleEndian.Uint32(enc))-1)
			binary.LittleEndian.PutUint64(off, binary.LittleEndian.Uint64(off)+1<<20)
			return enc
		}},
		{"longer than the payload", nil, func(enc []byte) []byte {
			_, n := pair(enc, 2)
			binary.LittleEndian.PutUint64(n, binary.LittleEndian.Uint64(n)+8) // still sorted, disjoint, in the domain
			return enc
		}},
	}
	engines := []struct {
		name  string
		eng   func() *Impl
		cases []malformation
	}{
		{"nonblocking", func() *Impl { return New(Options{}) }, flats},
		{"alltoallw", func() *Impl { return New(Options{Comm: Alltoallw}) }, flats},
		{"romio", func() *Impl { return ROMIO(Options{}) }, lists},
	}
	for _, e := range engines {
		for _, m := range e.cases {
			t.Run(e.name+"/"+m.name, func(t *testing.T) {
				for _, write := range []bool{true, false} {
					t.Run(map[bool]string{true: "write", false: "read"}[write], func(t *testing.T) {
						patience := 5 * time.Second
						if write {
							patience = 30 * time.Second
						}
						b := newBadRequestWorld(e.eng())
						if errs, _ := b.call(t, true, patience); slices.ContainsFunc(errs, func(err error) bool { return err != nil }) {
							t.Fatalf("clean write: %v", errs)
						}
						var sender *clientEntry
						b.eng.scratch.For(bad, b.wl.Ranks).clients.Each(func(_ clientKey, ce *clientEntry) { sender = ce })
						if sender == nil {
							t.Fatal("no memo entry for the sender")
						}
						// The flat form sends every aggregator the same
						// request; ROMIO's damaged share is aggregator 0's.
						req := &sender.enc
						if b.eng.form == listRequests {
							req = &sender.encs[0]
						}
						good := *req
						*req = m.mangle(slices.Clone(good))
						// A request that plans is shown up by its payload,
						// on the aggregator (writing) or the sender (reading).
						names := fmt.Sprintf("bad request from rank %d", bad)
						if m.refusers == nil {
							names = fmt.Sprintf("rank %d", bad)
						}
						// Twice: a plan built from the stand-in, if it got a
						// key, would be hit, and trusted, the second time.
						for attempt := 0; attempt < 2; attempt++ {
							errs, _ := b.call(t, write, patience)
							named := false
							for r, err := range errs {
								if err == nil || mpiio.ErrorClass(err) != mpiio.ErrorClass(errs[0]) {
									t.Fatalf("attempt %d: rank %d returned %v, rank 0 %v", attempt, r, err, errs[0])
								}
								named = named || strings.Contains(err.Error(), names)
							}
							if !named {
								t.Fatalf("attempt %d: no rank's error names the sender: %v", attempt, errs)
							}
							for _, r := range m.refusers {
								kept := 0
								b.eng.scratch.For(r, b.wl.Ranks).aggs.Each(func(aggKey, *aggEntry) { kept++ })
								if kept != 1 {
									t.Fatalf("attempt %d: aggregator %d keeps %d plans, want the clean call's alone", attempt, r, kept)
								}
							}
						}
						*req = good
						errs, exact := b.call(t, write, patience)
						for r, err := range errs {
							if err != nil {
								t.Fatalf("rank %d: call after the abort: %v", r, err)
							}
						}
						if !write && !exact {
							t.Fatal("read after the abort returned other bytes")
						}
						if err := colltest.VerifyImage(b.wl, b.fs.Snapshot("bad.dat", b.wl.FileSize())); err != nil {
							t.Fatal(err)
						}
					})
				}
			})
		}
	}
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprint("romio/bit flip/seed ", seed), func(t *testing.T) {
			b := newBadRequestWorld(ROMIO(Options{}))
			b.w.SetRankFaults(mpi.NewRankFaultSchedule(seed).Corrupt(bad, 0, 1.0, 1, 1))
			errs, _ := b.call(t, true, 30*time.Second)
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

// TestMergeAccessListsRefusesMalformed: the O(M) exchange of the
// segment-hungry assigners used to drop a rank whose list did not decode and
// assign realms as if it had no data. Every rank decodes the same gathered
// bytes, so refusing the list is a uniform way out of the collective.
func TestMergeAccessListsRefusesMalformed(t *testing.T) {
	seg := func(off, n int64) datatype.Seg { return datatype.Seg{Off: off, Len: n} }
	good := [][]byte{
		datatype.EncodeSegs([]datatype.Seg{seg(0, 8), seg(64, 8)}),
		nil, // a crashed rank's slot
		datatype.EncodeSegs([]datatype.Seg{seg(8, 8), seg(60, 8)}),
	}
	union, perRank, pairs, err := mergeAccessLists(good)
	if err != nil {
		t.Fatal(err)
	}
	if want := []datatype.Seg{seg(0, 16), seg(60, 12)}; !slices.Equal(union, want) || pairs != 4 {
		t.Fatalf("union %v of %d pairs, want %v of 4", union, pairs, want)
	}
	if perRank[1] != nil || !slices.Equal(perRank[2], []datatype.Seg{seg(8, 8), seg(60, 8)}) {
		t.Fatalf("per-rank lists %v", perRank)
	}
	for name, bad := range map[string][]byte{
		"truncated":   good[0][:len(good[0])-3],
		"overlapping": datatype.EncodeSegs([]datatype.Seg{seg(0, 8), seg(4, 8)}),
		"negative":    datatype.EncodeSegs([]datatype.Seg{seg(8, -8)}),
	} {
		if _, _, _, err := mergeAccessLists([][]byte{good[0], good[2], bad}); err == nil || !strings.Contains(err.Error(), "rank 2") {
			t.Errorf("%s: error %v, want one naming rank 2", name, err)
		}
	}
}
