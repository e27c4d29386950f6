package mpi

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
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

// iovWorld runs a fixed three-rank exchange (inter-node, intra-node and
// self sends, inside and outside a round) and returns everything the
// transport accounts: final clocks, comm matrix cells, stats counters and
// the trace events with their edge ids.
func iovWorld(t *testing.T, integ bool, send func(p *Proc, to, tag int, b []byte)) (clocks []sim.Time, cells []CommCell, events [][]string, got [][]byte) {
	t.Helper()
	w := NewWorld(3, sim.DefaultConfig())
	w.SetNodeMap(func(r int) int { return r / 2 })
	w.EnableCommMatrix()
	sink := w.EnableTracing(0)
	if integ {
		w.EnableIntegrity(17)
	}
	got = make([][]byte, 3)
	w.Run(func(p *Proc) {
		switch p.Rank() {
		case 0:
			send(p, 1, 4, payload(700)) // same node
			p.SetRound(0)
			send(p, 2, 4, payload(3000)) // other node, shuffle
			p.SetRound(-1)
			send(p, 0, 4, payload(90)) // self
			got[0], _ = p.Recv(0, 4)
		case 1:
			got[1], _ = p.Recv(0, 4)
		case 2:
			got[2], _ = p.Recv(0, 4)
		}
		p.Barrier()
	})
	for r := 0; r < 3; r++ {
		clocks = append(clocks, w.Proc(r).Clock())
		var names []string
		for _, e := range sink.Tracer(r).Events() {
			names = append(names, fmt.Sprintf("%s@%v %v", e.Name, e.TS, e.Tags))
		}
		events = append(events, names)
		for d := 0; d < 3; d++ {
			cells = append(cells, w.CommMatrix().Cell(r, d))
		}
	}
	return clocks, cells, events, got
}

// TestSendIovAccountsLikeSend: SendIov of views must be indistinguishable
// from Send of their concatenation in virtual time, comm-matrix rows,
// message counts, edge ids and delivered bytes — with and without the wire
// checksum armed.
func TestSendIovAccountsLikeSend(t *testing.T) {
	for _, integ := range []bool{false, true} {
		c1, m1, e1, g1 := iovWorld(t, integ, func(p *Proc, to, tag int, b []byte) { p.Send(to, tag, b) })
		c2, m2, e2, g2 := iovWorld(t, integ, func(p *Proc, to, tag int, b []byte) {
			p.SendIov(to, tag, cut(b, 1, 0, 30, 33))
		})
		if !reflect.DeepEqual(c1, c2) {
			t.Errorf("integrity=%v: clocks differ: Send %v, SendIov %v", integ, c1, c2)
		}
		if !reflect.DeepEqual(m1, m2) {
			t.Errorf("integrity=%v: comm matrix differs:\nSend    %v\nSendIov %v", integ, m1, m2)
		}
		if !reflect.DeepEqual(e1, e2) {
			t.Errorf("integrity=%v: trace events differ:\nSend    %v\nSendIov %v", integ, e1, e2)
		}
		for r := range g1 {
			if !bytes.Equal(g1[r], g2[r]) {
				t.Errorf("integrity=%v: rank %d received different bytes", integ, r)
			}
		}
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
	w.SetRankFaults(NewRankFaultSchedule(42).Corrupt(0, 1, 1, 1, 1))
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
		Corrupt(0, 1, 1, integrity.MaxReRequests+1, 1))
	var got [][]byte
	w.Run(func(p *Proc) {
		if p.Rank() == 0 {
			p.IsendIov(1, 7, cut(payload(256), 100))
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
	w.SetRankFaults(NewRankFaultSchedule(7).Corrupt(0, 1, 1, 1, 1))
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
