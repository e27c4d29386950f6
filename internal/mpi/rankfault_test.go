package mpi

import (
	"testing"

	"flexio/internal/sim"
)

// A Drop rule with prob 0 is a no-op: no matching send is charged the
// redelivery penalty and the injection counter stays at zero.
func TestDropZeroProbabilityNeverFires(t *testing.T) {
	s := NewRankFaultSchedule(7).Drop(0, 0, 1000)
	for seq := int64(1); seq <= 64; seq++ {
		if pen := s.dropPenalty(0, 1, seq); pen != 0 {
			t.Fatalf("seq %d: zero-probability drop charged penalty %v", seq, pen)
		}
	}
	if n := s.Injected(); n != 0 {
		t.Fatalf("zero-probability drop counted %d injections", n)
	}
}

// prob 1 fires on every matching send: the coin is always below 1.
func TestDropCertainProbabilityAlwaysFires(t *testing.T) {
	s := NewRankFaultSchedule(7).Drop(0, 1, 1000)
	for seq := int64(1); seq <= 8; seq++ {
		if pen := s.dropPenalty(0, 1, seq); pen != 1000 {
			t.Fatalf("seq %d: certain drop charged %v, want 1000", seq, pen)
		}
	}
}

// TestRankFaultCoinsPinned pins both link coin streams: a seeded schedule
// drops and corrupts the messages these values pick, so a change to the
// chain changes every recorded rank fault. The drop stream is compared at
// the 53 bits its coin uses.
func TestRankFaultCoinsPinned(t *testing.T) {
	for _, tc := range []struct {
		seed           int64
		rule, from, to int
		seq            int64
		drop, corrupt  uint64
	}{
		{7, 0, 0, 1, 1, 0xb40453ac65c02, 0x9b0020b4d29b517e},
		{7, 1, 0, 1, 1, 0x9e21e1cded449, 0x46f1289f9b756279},
		{99, 0, 2, 5, 5, 0x2bb8df512ca09, 0x528dcbb9a45a6719},
		{42, 0, 3, 0, 1000, 0x82d62d211ffb2, 0x9be035bcaaf7350a},
	} {
		if got := linkCoin(dropSalt, tc.seed, tc.rule, tc.from, tc.to, tc.seq) >> 11; got != tc.drop {
			t.Errorf("drop coin %+v = %#x, want %#x", tc, got, tc.drop)
		}
		if got := linkCoin(corruptSalt, tc.seed, tc.rule, tc.from, tc.to, tc.seq); got != tc.corrupt {
			t.Errorf("corrupt coin %+v = %#x, want %#x", tc, got, tc.corrupt)
		}
	}
}

// A rank that spent exactly one deadline more than a peer before a
// rendezvous (a detection timeout the peer did not wait out) is on time: the
// two clocks, summed in different orders, differ from base+deadline by one
// ulp, which must not flag it.
func TestDeadlineTieIsNotAStraggler(t *testing.T) {
	const deadline = sim.Time(50e-3)
	w := NewWorld(2, sim.DefaultConfig())
	w.SetCollDeadline(deadline)
	w.Run(func(p *Proc) {
		p.AdvanceClock(1e-3)
		if p.Rank() == 0 {
			p.AdvanceClock(deadline)
		}
		p.AdvanceClock(1e-4)
		p.Barrier()
	})
	if failed := w.FailedRanks(); len(failed) != 0 {
		t.Fatalf("ranks %v flagged for arriving exactly one deadline apart", failed)
	}
}

// A wildcard receive must not hang once every possible sender has
// crashed: the liveness machinery that unblocks named-source receives
// covers Recv(Any) too, returning nil data instead of re-parking forever.
func TestRecvAnyAllPeersDeadReturnsNil(t *testing.T) {
	w := NewWorld(2, sim.DefaultConfig())
	w.SetRankFaults(NewRankFaultSchedule(1).CrashAtSeq(1, 1))
	var data []byte
	w.Run(func(p *Proc) {
		// Rank 1 dies at its first collective op, before sending anything;
		// rank 0's barrier completes through the death mark, then its
		// wildcard receive has no live sender left to wait for.
		p.Barrier()
		if p.Rank() == 0 {
			data, _ = p.Recv(Any, Any)
		}
	})
	if data != nil {
		t.Fatalf("Recv(Any) returned data %q from a dead world", data)
	}
	if err := w.Proc(0).PeerFailure(); err == nil {
		t.Error("rank 0 did not observe the peer failure")
	}
}

// A wildcard receive with a live sender still matches its message: the
// dead-world check must not make Recv(Any) give up while a send can
// still arrive.
func TestRecvAnySurvivorStillDelivers(t *testing.T) {
	w := NewWorld(3, sim.DefaultConfig())
	w.SetRankFaults(NewRankFaultSchedule(1).CrashAtSeq(2, 1))
	var data []byte
	w.Run(func(p *Proc) {
		p.Barrier() // rank 2 dies here; ranks 0 and 1 survive
		switch p.Rank() {
		case 0:
			data, _ = p.Recv(Any, 5)
		case 1:
			p.Send(0, 5, []byte("still here"))
		}
	})
	if string(data) != "still here" {
		t.Fatalf("Recv(Any) got %q, want the survivor's message", data)
	}
}
