package mpi

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"testing"

	"flexio/internal/integrity"
	"flexio/internal/metrics"
	"flexio/internal/sim"
)

// cut splits b into views of the given sizes (the last view takes the rest).
func cut(b []byte, sizes ...int) [][]byte {
	var iov [][]byte
	for _, n := range sizes {
		iov = append(iov, b[:n])
		b = b[n:]
	}
	return append(iov, b)
}

func concat(iov [][]byte) []byte {
	var out []byte
	for _, v := range iov {
		out = append(out, v...)
	}
	return out
}

// accounted runs fn on every rank of a world of the given size, two ranks
// a node, with the wire checksum armed or not and under the fault plan rf.
// It returns, one string per rank, everything the transport accounts: the
// clock, the counters, the comm matrix row, the trace events with their
// edge ids, and each payload fn reports receiving (by length and CRC).
func accounted(ranks int, integ bool, rf *RankFaultSchedule, fn func(p *Proc, got func([]byte))) []string {
	w := NewWorld(ranks, sim.DefaultConfig())
	w.SetNodeMap(func(r int) int { return r / 2 })
	sink := w.EnableTracing(0)
	if integ {
		w.EnableIntegrity(17)
	}
	w.SetRankFaults(rf)
	out := make([]string, ranks)
	w.Run(func(p *Proc) {
		fn(p, func(b []byte) { out[p.Rank()] += fmt.Sprintf("got %d:%08x\n", len(b), crc32.ChecksumIEEE(b)) })
	})
	for r := range out {
		p := w.Proc(r)
		out[r] += fmt.Sprintf("clock %v\ncounters", p.Clock())
		for c := metrics.Counter(0); int(c) < metrics.CounterCount(); c++ {
			out[r] += fmt.Sprintf(" %d", p.Metrics.Counter(c))
		}
		for d := 0; d < ranks; d++ {
			out[r] += fmt.Sprintf("\nto %d: %+v", d, w.CommMatrix().Cell(r, d))
		}
		for _, e := range sink.Tracer(r).Events() {
			out[r] += fmt.Sprintf("\n%s@%v %v", e.Name, e.TS, e.Tags)
		}
	}
	return out
}

// sameAccounting fails t for every rank whose accounting differs.
func sameAccounting(t *testing.T, what string, a, b []string) {
	t.Helper()
	for r := range a {
		if a[r] != b[r] {
			t.Errorf("%s: rank %d accounts differently:\n%s\n--- against ---\n%s", what, r, a[r], b[r])
		}
	}
}

// TestSendIovAccountsLikeSend: SendIov of views must be indistinguishable
// from Send of their concatenation in virtual time, counters, comm-matrix
// rows, edge ids and delivered bytes — with and without the wire checksum
// armed. The exchange sends inter-node, intra-node and to self, inside and
// outside a round.
func TestSendIovAccountsLikeSend(t *testing.T) {
	run := func(integ bool, send func(p *Proc, to, tag int, b []byte)) []string {
		return accounted(3, integ, nil, func(p *Proc, got func([]byte)) {
			if p.Rank() == 0 {
				send(p, 1, 4, payload(700)) // same node
				p.SetRound(0)
				send(p, 2, 4, payload(3000)) // other node, shuffle
				p.SetRound(-1)
				send(p, 0, 4, payload(90)) // self
			}
			b, _ := p.Recv(0, 4)
			got(b)
			p.Barrier()
		})
	}
	for _, integ := range []bool{false, true} {
		sameAccounting(t, fmt.Sprintf("integrity=%v", integ),
			run(integ, func(p *Proc, to, tag int, b []byte) { p.Send(to, tag, b) }),
			run(integ, func(p *Proc, to, tag int, b []byte) { p.SendIov(to, tag, cut(b, 1, 0, 30, 33)) }))
	}
}

// TestRecvIovReturnsTheSendersViews: no copy on the way — the receiver's
// views alias the sender's memory — and a payload posted with Send arrives
// as one view.
func TestRecvIovReturnsTheSendersViews(t *testing.T) {
	w := NewWorld(2, sim.DefaultConfig())
	src := payload(100)
	sent := cut(src, 10, 40)
	var got, single [][]byte
	w.Run(func(p *Proc) {
		if p.Rank() == 0 {
			p.SendIov(1, 1, sent)
			p.Send(1, 2, src)
			return
		}
		reqs := []*Request{p.Irecv(0, 1)}
		got = WaitallIov(reqs, nil)[0]
		if reqs[0] != nil {
			t.Error("WaitallIov left its request in place")
		}
		single, _ = p.RecvIov(0, 2)
	})
	if len(got) != len(sent) {
		t.Fatalf("%d views delivered, %d sent", len(got), len(sent))
	}
	for k := range got {
		if len(got[k]) != len(sent[k]) || (len(got[k]) > 0 && &got[k][0] != &sent[k][0]) {
			t.Errorf("view %d does not alias the sender's view", k)
		}
	}
	if len(single) != 1 || &single[0][0] != &src[0] {
		t.Errorf("a Send payload must arrive as one view of the sender's buffer, got %d views", len(single))
	}
}

// TestCorruptIovRepairedByReRequest: a bit flipped in flight is detected by
// the SumIov envelope checksum, the sender's memory is never touched, and
// one re-request restores the pristine views.
func TestCorruptIovRepairedByReRequest(t *testing.T) {
	w := NewWorld(2, sim.DefaultConfig())
	w.EnableMetrics()
	w.EnableIntegrity(42)
	w.SetRankFaults(NewRankFaultSchedule(42).Corrupt(0, 1, 1, 1))
	src := payload(512)
	sent := cut(src, 7, 100, 32)
	var got [][]byte
	w.Run(func(p *Proc) {
		if p.Rank() == 0 {
			p.SendIov(1, 7, sent)
		} else {
			got, _ = p.RecvIov(0, 7)
		}
	})
	if !bytes.Equal(src, payload(512)) {
		t.Fatal("in-flight corruption mutated the sender's buffer")
	}
	if !bytes.Equal(concat(got), src) {
		t.Fatal("repaired payload differs from the original")
	}
	for k := range got {
		if len(got[k]) > 0 && &got[k][0] != &sent[k][0] {
			t.Errorf("view %d: the re-request must deliver the pristine originals, not a copy", k)
		}
	}
	reg := w.MetricsSet().Merged()
	if n := reg.Counter(metrics.CIntegWireMismatch); n != 1 {
		t.Errorf("wire mismatches = %d, want 1", n)
	}
	if n := reg.Counter(metrics.CIntegWireRepaired); n != 1 {
		t.Errorf("wire repaired = %d, want 1", n)
	}
	if err := w.Proc(1).TakeIntegrityFailure(); err != nil {
		t.Errorf("repaired delivery armed a sticky integrity error: %v", err)
	}
}

// TestCorruptIovUnrepairableArmsIntegrityFailure: corruption outliving the
// re-request bound delivers no views and arms the sticky ErrDataIntegrity
// the engines turn into a ClassIntegrity abort.
func TestCorruptIovUnrepairableArmsIntegrityFailure(t *testing.T) {
	w := NewWorld(2, sim.DefaultConfig())
	w.EnableMetrics()
	w.EnableIntegrity(42)
	w.SetRankFaults(NewRankFaultSchedule(42).
		Corrupt(0, 1, integrity.MaxReRequests+1, 1))
	var got [][]byte
	w.Run(func(p *Proc) {
		if p.Rank() == 0 {
			p.SendIov(1, 7, cut(payload(256), 100))
		} else {
			got = WaitallIov([]*Request{p.Irecv(0, 7)}, nil)[0]
		}
	})
	if got != nil {
		t.Fatalf("unrepairable corruption still delivered %d views", len(got))
	}
	if err := w.Proc(1).TakeIntegrityFailure(); !errors.Is(err, integrity.ErrDataIntegrity) {
		t.Fatalf("sticky error = %v, want ErrDataIntegrity", err)
	}
	if n := w.MetricsSet().Merged().Counter(metrics.CIntegWireRepaired); n != 0 {
		t.Errorf("wire repaired = %d, want 0", n)
	}
}

// TestCorruptIovSilentWithoutIntegrity: with the checksummed datapath off
// the receiver gets views with exactly one bit flipped — in a copy of the
// one view it landed in; the other views still alias the sender.
func TestCorruptIovSilentWithoutIntegrity(t *testing.T) {
	w := NewWorld(2, sim.DefaultConfig())
	w.SetRankFaults(NewRankFaultSchedule(7).Corrupt(0, 1, 1, 1))
	src := payload(128)
	var got [][]byte
	w.Run(func(p *Proc) {
		if p.Rank() == 0 {
			p.SendIov(1, 7, cut(src, 50, 50))
		} else {
			got, _ = p.RecvIov(0, 7)
		}
	})
	if !bytes.Equal(src, payload(128)) {
		t.Fatal("in-flight corruption mutated the sender's buffer")
	}
	diff := 0
	for i, b := range concat(got) {
		for x := b ^ src[i]; x != 0; x &= x - 1 {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("silent corruption flipped %d bits, want exactly 1", diff)
	}
}

// TestWaitallIntoReusesScratch: the result lands in the caller's slice, round
// after round, instead of a fresh one per call.
func TestWaitallIntoReusesScratch(t *testing.T) {
	w := NewWorld(1, sim.DefaultConfig())
	data := payload(64)
	w.Run(func(p *Proc) {
		scratch := make([][]byte, 0, 4)
		reqs := make([]*Request, 0, 4)
		for round := 0; round < 3; round++ {
			reqs = reqs[:0]
			for k := 0; k < 3; k++ {
				p.Send(0, k, data)
				reqs = append(reqs, p.Irecv(0, k))
			}
			out := WaitallInto(reqs, scratch)
			if len(out) != 3 || &out[0] != &scratch[:1][0] {
				t.Fatal("WaitallInto did not fill the caller's scratch")
			}
			for _, b := range out {
				if !bytes.Equal(b, data) {
					t.Error("WaitallInto delivered wrong bytes")
				}
			}
		}
	})
}

// TestAlltoallvMatchesIov: Alltoallv of rows must be indistinguishable from
// AlltoallvIov of the same rows cut into views, in virtual time, delivered
// bytes, counters, comm matrix and trace instants, over four ranks on two
// nodes, outside and inside a round, with the wire checksum off and armed,
// and under a corruption rule that is silent, repaired or unrepairable.
func TestAlltoallvMatchesIov(t *testing.T) {
	for _, tc := range []struct {
		name    string
		integ   bool
		corrupt int // the corruption rule's repeat count on the 1→3 row; 0 = none
	}{
		{"clean", false, 0},
		{"integrity", true, 0},
		{"silent-corrupt", false, 1},
		{"repaired-corrupt", true, 1},
		{"unrepairable-corrupt", true, integrity.MaxReRequests + 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(op func(p *Proc, rows [][]byte) [][]byte) []string {
				var rf *RankFaultSchedule
				if tc.corrupt > 0 {
					rf = NewRankFaultSchedule(5).Corrupt(1, 3, tc.corrupt, 1)
				}
				out := accounted(4, tc.integ, rf, func(p *Proc, got func([]byte)) {
					rows := make([][]byte, p.Size())
					for d := range rows {
						if n := 64 * ((p.Rank() + d) % 3) * (d + 1); n > 0 {
							rows[d] = payload(n)
						}
					}
					for round := -1; round <= 0; round++ {
						p.SetRound(round)
						for _, b := range op(p, rows) {
							got(b)
						}
					}
					p.SetRound(-1)
				})
				if rf != nil && rf.Injected() == 0 {
					t.Fatal("the corruption rule never fired")
				}
				return out
			}
			sameAccounting(t, "Alltoallv against AlltoallvIov",
				run(func(p *Proc, rows [][]byte) [][]byte { return p.Alltoallv(rows) }),
				run(func(p *Proc, rows [][]byte) [][]byte {
					iov := make([][][]byte, len(rows))
					for d, b := range rows {
						iov[d] = [][]byte{b[:len(b)/3], b[len(b)/3:]}
					}
					out := make([][]byte, len(rows))
					for s, v := range p.AlltoallvIov(iov) {
						out[s] = concat(v)
					}
					return out
				}))
		})
	}
}
