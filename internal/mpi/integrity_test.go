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
	w.SetRankFaults(NewRankFaultSchedule(42).Corrupt(0, 1, 1, 1))
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
		Corrupt(0, 1, integrity.MaxReRequests+1, 1))
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
		Drop(0, 1, 5e-3).
		Corrupt(0, 1, 1, 1))
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
	w.SetRankFaults(NewRankFaultSchedule(7).Corrupt(0, 1, 1, 1))
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
	w.SetRankFaults(NewRankFaultSchedule(5).Corrupt(0, 1, 1, 1))
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

// TestChecksumChargeOnePrice: every checksum pass is priced by ChecksumTime,
// a read-only streaming pass, whichever path hashes the bytes. A sender
// hashes what it posts and a receiver what it is delivered. A vector
// collective hashes the rows it sends to other ranks and every row it
// receives. Integrity-on clock minus integrity-off clock is that charge on
// every rank.
func TestChecksumChargeOnePrice(t *testing.T) {
	cfg := sim.DefaultConfig()
	// rows[r][d] is the row rank r sends rank d.
	rows := [2][2][]byte{{payload(100), payload(300)}, {payload(200), payload(50)}}
	for _, tc := range []struct {
		name   string
		op     func(p *Proc)
		hashed [2]int64
	}{
		{"send-recv", func(p *Proc) {
			if p.Rank() == 0 {
				p.Send(1, 7, payload(512))
			} else {
				p.SyncClock(1) // the arrival does not gate the receive
				p.Recv(0, 7)
			}
		}, [2]int64{512, 512}},
		{"alltoallv", func(p *Proc) {
			p.Alltoallv(rows[p.Rank()][:])
		}, [2]int64{300 + 100 + 200, 200 + 300 + 50}},
		{"alltoallv-iov", func(p *Proc) {
			iov := make([][][]byte, 2)
			for d, row := range rows[p.Rank()] {
				iov[d] = [][]byte{row[:len(row)/2], row[len(row)/2:]}
			}
			p.AlltoallvIov(iov)
		}, [2]int64{300 + 100 + 200, 200 + 300 + 50}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clocks := func(armed bool) [2]sim.Time {
				w := NewWorld(2, cfg)
				if armed {
					w.EnableIntegrity(1)
				}
				w.Run(tc.op)
				return [2]sim.Time{w.Proc(0).Clock(), w.Proc(1).Clock()}
			}
			off, on := clocks(false), clocks(true)
			for r := range off {
				got, want := on[r]-off[r], cfg.ChecksumTime(tc.hashed[r])
				if d := got - want; d > 1e-15 || d < -1e-15 {
					t.Errorf("rank %d: integrity costs %g s, want ChecksumTime(%d) = %g s", r, float64(got), tc.hashed[r], float64(want))
				}
			}
		})
	}
}

// TestRetransmitOnePrice: a corrupted vector-collective row and a corrupted
// envelope are retransmitted at one price. On every link, for a clean copy
// at attempt rep, the charge rowCorruption returns equals the clock advance
// reRequest books, and both equal, to the bit, one round trip plus the
// payload per attempt on that link; past integrity.MaxReRequests both give
// up and arm the integrity failure.
func TestRetransmitOnePrice(t *testing.T) {
	const n = 4096
	cfg := sim.DefaultConfig()
	w := NewWorld(4, cfg)
	w.SetNodeMap(BlockNodeMap(2))
	w.EnableIntegrity(1)
	p := w.Proc(0)
	for _, link := range []struct {
		name  string
		src   int
		price sim.Time
	}{
		{"self", 0, cfg.MemcpyTime(n)},
		{"node", 1, 2*cfg.IntraNodeHopLatency() + cfg.IntraNodeTransferTime(n)},
		{"network", 2, 2*cfg.NetLatency + cfg.TransferTime(n)},
	} {
		for rep := 1; rep <= integrity.MaxReRequests+1; rep++ {
			var want sim.Time
			for a := 1; a <= min(rep, integrity.MaxReRequests); a++ {
				want += link.price
			}
			fixed := rep <= integrity.MaxReRequests

			charge, ok, silent := p.rowCorruption(link.src, n, rep)
			rowFailed := p.TakeIntegrityFailure() != nil

			p.clock = 0
			pristine := payload(n)
			e := &envelope{src: link.src, n: n, data: bytes.Clone(pristine), orig: [][]byte{pristine}, rep: uint8(rep)}
			e.data[0] ^= 1
			got := p.reRequest(e)
			advance := p.clock
			envFailed := p.TakeIntegrityFailure() != nil

			if silent || ok != fixed || got != fixed {
				t.Errorf("%s rep=%d: row fixed=%v silent=%v, envelope fixed=%v, want fixed=%v", link.name, rep, ok, silent, got, fixed)
			}
			if charge != want || advance != want {
				t.Errorf("%s rep=%d: row charge %v, envelope advance %v, want %v", link.name, rep, charge, advance, want)
			}
			if rowFailed == fixed || envFailed == fixed {
				t.Errorf("%s rep=%d: integrity failure armed by row %v, by envelope %v, want %v", link.name, rep, rowFailed, envFailed, !fixed)
			}
			if fixed && !bytes.Equal(e.data, pristine) {
				t.Errorf("%s rep=%d: the retransmitted envelope does not carry the pristine bytes", link.name, rep)
			}
		}
	}
}
