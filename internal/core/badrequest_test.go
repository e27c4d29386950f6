package core

import (
	"slices"
	"strings"
	"testing"
	"time"

	"flexio/internal/datatype"
	"flexio/internal/mpi"
	"flexio/internal/mpiio"
	"flexio/internal/pfs"
	"flexio/internal/sim"
)

// TestMalformedRequestAbortsCollective: a request an aggregator cannot
// use used to panic inside that aggregator (overlapping pairs), make it
// leave the collective alone (short buffer) while its peers waited in the
// next rendezvous, or exhaust memory (an offset far outside the file). It must abort the call on every rank instead, and leave
// the engine fit for the next one.
//
// The bad bytes are planted in the sender's memo entry: the second call of
// a shape sends the cached encoding, and the aggregators, whose key is a
// hash of what they receive, miss and decode it.
func TestMalformedRequestAbortsCollective(t *testing.T) {
	const ranks, bad, blk, count = 4, 2, 32, 16
	malformed := []struct {
		name string
		// refusers are the aggregators that can tell: all of them when the
		// bytes do not decode, the one whose realm the access lands in when
		// they decode to an access no rank announced.
		refusers []int
		mangle   func(enc []byte) []byte
	}{
		{"truncated", []int{0, 1, 2, 3}, func(enc []byte) []byte { return enc[:len(enc)-5] }},
		{"overlapping", []int{0, 1, 2, 3}, func(enc []byte) []byte {
			fl, err := datatype.DecodeFlat(enc)
			if err != nil {
				t.Fatal(err)
			}
			fl.Segs = []datatype.Seg{{Off: 0, Len: 8}, {Off: 4, Len: 8}}
			return fl.Encode()
		}},
		{"unbounded", []int{0, 1, 2, 3}, func(enc []byte) []byte {
			fl, err := datatype.DecodeFlat(enc)
			if err != nil {
				t.Fatal(err)
			}
			fl.Count, fl.Limit = -1, -1
			return fl.Encode()
		}},
		// Decodes, and names bytes no rank announced: the unbounded tail realm
		// used to take them, and size its round table by their offset.
		{"far-away", []int{ranks - 1}, func(enc []byte) []byte {
			fl, err := datatype.DecodeFlat(enc)
			if err != nil {
				t.Fatal(err)
			}
			fl.Disp += 1 << 50
			return fl.Encode()
		}},
	}
	for _, comm := range []CommStrategy{Nonblocking, Alltoallw} {
		for _, m := range malformed {
			t.Run(comm.String()+"/"+m.name, func(t *testing.T) {
				cfg := sim.DefaultConfig()
				w := mpi.NewWorld(ranks, cfg)
				fs := pfs.NewFileSystem(cfg)
				eng := New(Options{Comm: comm})
				// One filetype object per rank for all calls, so the sender's
				// side of the memo hits on the second.
				fts := make([]datatype.Type, ranks)
				for r := range fts {
					fts[r] = datatype.Must(datatype.Resized(datatype.Bytes(blk), blk*ranks))
				}
				writeAll := func() []error {
					errs := make([]error, ranks)
					done := make(chan struct{})
					go func() {
						defer close(done)
						w.Run(func(p *mpi.Proc) {
							f, err := mpiio.Open(p, fs, "bad.dat", mpiio.Info{Collective: eng, CollBufSize: 256})
							if err != nil {
								errs[p.Rank()] = err
								return
							}
							if err := f.SetView(int64(p.Rank()*blk), datatype.Bytes(1), fts[p.Rank()]); err != nil {
								errs[p.Rank()] = err
								return
							}
							errs[p.Rank()] = f.WriteAll(make([]byte, blk*count), datatype.Bytes(blk), count)
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
				for r, err := range writeAll() {
					if err != nil {
						t.Fatalf("rank %d: clean write: %v", r, err)
					}
				}
				var sender *clientEntry
				eng.scratch.For(bad, ranks).clients.Each(func(_ clientKey, ce *clientEntry) { sender = ce })
				if sender == nil {
					t.Fatal("no memo entry for the sender")
				}
				good := sender.enc
				sender.enc = m.mangle(good)
				// Twice: a plan built from the stand-in, if it got a key,
				// would be hit, and trusted, the second time.
				for attempt := 0; attempt < 2; attempt++ {
					named := false
					for r, err := range writeAll() {
						if err == nil {
							t.Fatalf("attempt %d, rank %d: malformed request went unnoticed", attempt, r)
						}
						named = named || strings.Contains(err.Error(), "bad request from rank 2")
					}
					if !named {
						t.Fatalf("attempt %d: no rank's error names the sender", attempt)
					}
					for _, r := range m.refusers {
						kept := 0
						eng.scratch.For(r, ranks).aggs.Each(func(aggKey, *aggEntry) { kept++ })
						if kept != 1 {
							t.Fatalf("attempt %d: aggregator %d keeps %d plans, want the clean call's alone", attempt, r, kept)
						}
					}
				}
				sender.enc = good
				for r, err := range writeAll() {
					if err != nil {
						t.Fatalf("rank %d: write after the abort: %v", r, err)
					}
				}
			})
		}
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
