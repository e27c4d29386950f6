package mpi

import (
	"bytes"
	"errors"
	"testing"

	"flexio/internal/integrity"
	"flexio/internal/metrics"
	"flexio/internal/sim"
)

func payload(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i * 31)
	}
	return b
}

// TestCorruptRepairedByReRequest: a single-shot in-flight bit flip is
// detected by the receiver's wire checksum and healed by one bounded
// re-request — the caller sees pristine bytes and no sticky error.
func TestCorruptRepairedByReRequest(t *testing.T) {
	w := NewWorld(2, sim.DefaultConfig())
	w.EnableMetrics()
	w.EnableIntegrity(42)
	w.SetRankFaults(NewRankFaultSchedule(42).Corrupt(0, 1, 1, 1, 1))
	want := payload(512)
	var got []byte
	w.Run(func(p *Proc) {
		if p.Rank() == 0 {
			p.Send(1, 7, payload(512))
		} else {
			got, _ = p.Recv(0, 7)
		}
	})
	if !bytes.Equal(got, want) {
		t.Fatal("repaired payload differs from the original")
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

// TestCorruptUnrepairableArmsIntegrityFailure: a corruption outliving the
// re-request bound returns nil data and arms the one-shot sticky
// ErrDataIntegrity the engines consume at round boundaries.
func TestCorruptUnrepairableArmsIntegrityFailure(t *testing.T) {
	w := NewWorld(2, sim.DefaultConfig())
	w.EnableMetrics()
	w.EnableIntegrity(42)
	w.SetRankFaults(NewRankFaultSchedule(42).
		Corrupt(0, 1, 1, integrity.MaxReRequests+1, 1))
	var got []byte
	w.Run(func(p *Proc) {
		if p.Rank() == 0 {
			p.Send(1, 7, payload(256))
		} else {
			got, _ = p.Recv(0, 7)
		}
	})
	if got != nil {
		t.Fatalf("unrepairable corruption still delivered %d bytes", len(got))
	}
	err := w.Proc(1).TakeIntegrityFailure()
	if !errors.Is(err, integrity.ErrDataIntegrity) {
		t.Fatalf("sticky error = %v, want ErrDataIntegrity", err)
	}
	if err := w.Proc(1).TakeIntegrityFailure(); err != nil {
		t.Errorf("sticky integrity error not one-shot: %v", err)
	}
	reg := w.MetricsSet().Merged()
	if n := reg.Counter(metrics.CIntegWireRepaired); n != 0 {
		t.Errorf("wire repaired = %d, want 0", n)
	}
	if n := reg.Counter(metrics.CIntegWireMismatch); n != 1 {
		t.Errorf("wire mismatches = %d, want 1", n)
	}
}

// TestDropThenCorruptRedeliveredReVerified is the satellite regression for
// the Drop/Corrupt interaction: when the same send is both dropped (so the
// copy that arrives is the late retransmit sitting in the mailbox) and
// corrupted, the receiver must re-verify the redelivered copy rather than
// trust it because its envelope was already matched once. Both fault
// families fire on one message and the delivered bytes are still pristine.
func TestDropThenCorruptRedeliveredReVerified(t *testing.T) {
	w := NewWorld(2, sim.DefaultConfig())
	w.EnableMetrics()
	w.EnableIntegrity(99)
	w.SetRankFaults(NewRankFaultSchedule(99).
		Drop(0, 1, 1, 5e-3, 1).
		Corrupt(0, 1, 1, 1, 1))
	want := payload(1024)
	var got []byte
	w.Run(func(p *Proc) {
		if p.Rank() == 0 {
			p.Send(1, 3, payload(1024))
		} else {
			// Post the receive late so the redelivered envelope is already
			// parked in the mailbox when take() matches it — the cached-copy
			// path the audit is about.
			p.SyncClock(1)
			got, _ = p.Recv(0, 3)
		}
	})
	if !bytes.Equal(got, want) {
		t.Fatal("dropped+corrupted message delivered wrong bytes")
	}
	reg := w.MetricsSet().Merged()
	if n := reg.Counter(metrics.CRedelivered); n != 1 {
		t.Errorf("redeliveries = %d, want 1 (drop rule did not fire)", n)
	}
	if n := reg.Counter(metrics.CIntegWireMismatch); n != 1 {
		t.Errorf("wire mismatches = %d, want 1 (redelivered copy not re-verified)", n)
	}
	if n := reg.Counter(metrics.CIntegWireRepaired); n != 1 {
		t.Errorf("wire repaired = %d, want 1", n)
	}
}

// TestCorruptSilentWithoutIntegrity documents the contract Corrupt
// promises: with the checksummed datapath off, the flipped payload is
// delivered as if nothing happened — exactly one bit differs and no
// counter moves.
func TestCorruptSilentWithoutIntegrity(t *testing.T) {
	w := NewWorld(2, sim.DefaultConfig())
	w.EnableMetrics()
	w.SetRankFaults(NewRankFaultSchedule(7).Corrupt(0, 1, 1, 1, 1))
	want := payload(128)
	var got []byte
	w.Run(func(p *Proc) {
		if p.Rank() == 0 {
			p.Send(1, 7, payload(128))
		} else {
			got, _ = p.Recv(0, 7)
		}
	})
	if len(got) != len(want) {
		t.Fatalf("delivered %d bytes, want %d", len(got), len(want))
	}
	diff := 0
	for i := range got {
		for b := 0; b < 8; b++ {
			if (got[i]^want[i])&(1<<b) != 0 {
				diff++
			}
		}
	}
	if diff != 1 {
		t.Fatalf("silent corruption flipped %d bits, want exactly 1", diff)
	}
	if n := w.MetricsSet().Merged().Counter(metrics.CIntegWireMismatch); n != 0 {
		t.Errorf("integrity counters moved with integrity disabled: %d", n)
	}
}

// TestCorruptWaitallNonblockingPath: corruption on a payload received via
// Irecv/WaitallInto goes through the same verify-and-re-request machinery as
// blocking Recv — the engines' shuffle uses this path.
func TestCorruptWaitallNonblockingPath(t *testing.T) {
	w := NewWorld(2, sim.DefaultConfig())
	w.EnableMetrics()
	w.EnableIntegrity(5)
	w.SetRankFaults(NewRankFaultSchedule(5).Corrupt(0, 1, 1, 1, 1))
	want := payload(2048)
	var got []byte
	w.Run(func(p *Proc) {
		if p.Rank() == 0 {
			p.Send(1, 9, payload(2048))
		} else {
			req := p.Irecv(0, 9)
			got = WaitallInto([]*Request{req}, nil)[0]
		}
	})
	if !bytes.Equal(got, want) {
		t.Fatal("WaitallInto delivered wrong bytes after repair")
	}
	if n := w.MetricsSet().Merged().Counter(metrics.CIntegWireRepaired); n != 1 {
		t.Errorf("wire repaired = %d, want 1", n)
	}
}
