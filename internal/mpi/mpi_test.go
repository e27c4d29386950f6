package mpi

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"flexio/internal/sim"
	"flexio/internal/trace"
)

func testWorld(n int) *World {
	return NewWorld(n, sim.DefaultConfig())
}

func TestSendRecv(t *testing.T) {
	w := testWorld(2)
	w.Run(func(p *Proc) {
		if p.Rank() == 0 {
			p.Send(1, 7, []byte("hello"))
		} else {
			data, from := p.Recv(0, 7)
			if string(data) != "hello" || from != 0 {
				t.Errorf("got %q from %d", data, from)
			}
			if p.Clock() <= 0 {
				t.Error("receive did not advance clock")
			}
		}
	})
}

func TestRecvAnySourceAnyTag(t *testing.T) {
	w := testWorld(3)
	w.Run(func(p *Proc) {
		switch p.Rank() {
		case 0, 1:
			p.Send(2, 10+p.Rank(), []byte{byte(p.Rank())})
		case 2:
			seen := map[int]bool{}
			for i := 0; i < 2; i++ {
				data, from := p.Recv(Any, Any)
				if int(data[0]) != from {
					t.Errorf("payload %d does not match source %d", data[0], from)
				}
				seen[from] = true
			}
			if !seen[0] || !seen[1] {
				t.Errorf("missing sources: %v", seen)
			}
		}
	})
}

func TestTagMatchingFIFO(t *testing.T) {
	w := testWorld(2)
	w.Run(func(p *Proc) {
		if p.Rank() == 0 {
			p.Send(1, 1, []byte("a"))
			p.Send(1, 2, []byte("b"))
			p.Send(1, 1, []byte("c"))
		} else {
			// Tag 2 first even though it was sent second.
			d, _ := p.Recv(0, 2)
			if string(d) != "b" {
				t.Errorf("tag 2 got %q", d)
			}
			// Tag 1 messages arrive in send order.
			d, _ = p.Recv(0, 1)
			if string(d) != "a" {
				t.Errorf("first tag-1 got %q", d)
			}
			d, _ = p.Recv(0, 1)
			if string(d) != "c" {
				t.Errorf("second tag-1 got %q", d)
			}
		}
	})
}

func TestClockModel(t *testing.T) {
	cfg := sim.DefaultConfig()
	w := NewWorld(2, cfg)
	w.Run(func(p *Proc) {
		payload := make([]byte, 1<<20)
		if p.Rank() == 0 {
			p.Send(1, 0, payload)
			if got, want := p.Clock(), cfg.SendOverhead; got != want {
				t.Errorf("sender clock = %v, want %v", got, want)
			}
		} else {
			p.Recv(0, 0)
			want := cfg.SendOverhead + cfg.NetLatency + cfg.TransferTime(1<<20)
			if got := p.Clock(); got != want {
				t.Errorf("receiver clock = %v, want %v", got, want)
			}
		}
	})
}

func TestSelfSendUsesMemcpy(t *testing.T) {
	cfg := sim.DefaultConfig()
	w := NewWorld(1, cfg)
	w.Run(func(p *Proc) {
		p.Send(0, 0, make([]byte, 1<<20))
		p.Recv(0, 0)
		want := cfg.SendOverhead + cfg.MemcpyTime(1<<20)
		if got := p.Clock(); got != want {
			t.Errorf("self-send clock = %v, want %v", got, want)
		}
	})
}

func TestIrecvOverlapCreditsComputation(t *testing.T) {
	cfg := sim.DefaultConfig()
	transfer := cfg.TransferTime(10 << 20)
	var overlapped, sequential sim.Time

	w := NewWorld(2, cfg)
	w.Run(func(p *Proc) {
		if p.Rank() == 0 {
			p.Send(1, 0, make([]byte, 10<<20))
		} else {
			req := p.Irecv(0, 0)
			p.AdvanceClock(transfer / 2) // computation overlapping the transfer
			req.Wait()
			overlapped = p.Clock()
		}
	})

	w2 := NewWorld(2, cfg)
	w2.Run(func(p *Proc) {
		if p.Rank() == 0 {
			p.Send(1, 0, make([]byte, 10<<20))
		} else {
			p.Recv(0, 0)
			p.AdvanceClock(transfer / 2) // same computation, after the transfer
			sequential = p.Clock()
		}
	})

	if !(overlapped < sequential) {
		t.Errorf("overlap not credited: overlapped=%v sequential=%v", overlapped, sequential)
	}
}

func TestBarrierSynchronizesClocks(t *testing.T) {
	w := testWorld(4)
	w.Run(func(p *Proc) {
		p.AdvanceClock(sim.Time(p.Rank()) * 0.010)
		p.Barrier()
		if p.Clock() < 0.030 {
			t.Errorf("rank %d clock %v below slowest rank", p.Rank(), p.Clock())
		}
	})
	// All clocks equal after a barrier.
	if w.MaxClock() != w.MinClock() {
		t.Errorf("clocks diverge after barrier: min=%v max=%v", w.MinClock(), w.MaxClock())
	}
}

func TestAllgather(t *testing.T) {
	w := testWorld(4)
	w.Run(func(p *Proc) {
		all := p.Allgather([]byte{byte(p.Rank() * 11)})
		for i, b := range all {
			if len(b) != 1 || b[0] != byte(i*11) {
				t.Errorf("rank %d: all[%d] = %v", p.Rank(), i, b)
			}
		}
	})
}

func TestAllgatherInt64AndReductions(t *testing.T) {
	w := testWorld(5)
	w.Run(func(p *Proc) {
		v := int64(p.Rank() + 1)
		if got := p.AllreduceMaxInt64(v); got != 5 {
			t.Errorf("max = %d", got)
		}
	})
}

// TestIallreduceCompletesAtWait: a started allreduce has met its rendezvous
// and completes in the background, at the later of the rank's start and the
// latest entry plus the tree latency and the transfer. Wait pays what is left
// of that: a wait before the completion ends at it, one after leaves the clock
// alone, and a blocking allreduce (a wait right at the start) costs max(entry,
// published maximum) + latency + transfer, bit for bit as before the rule,
// even for a straggler whose own entry lies past the deadline-capped maximum.
func TestIallreduceCompletesAtWait(t *testing.T) {
	cfg := sim.DefaultConfig()
	const step = sim.Time(1e-3)

	// Rank 2 waits before the completion, rank 1 long after it. The exit is
	// recorded paired with the entry recorded at start, and the failure
	// version the rendezvous published (rank 3 died at it) is applied only
	// at Wait.
	t.Run("lagged", func(t *testing.T) {
		w := NewWorld(4, cfg)
		w.SetRankFaults(NewRankFaultSchedule(1).CrashAtSeq(3, 1))
		sink := w.EnableTracing(0)
		w.Run(func(p *Proc) {
			p.AdvanceClock(sim.Time(p.Rank()) * step) // the survivors enter at 0, 1 and 2 ms
			enter := p.Clock()
			req := p.IallreduceMaxInt64(int64(p.Rank() + 1))
			if p.Clock() != enter {
				t.Errorf("rank %d: starting moved the clock %v → %v", p.Rank(), enter, p.Clock())
			}
			if p.PeerFailure() != nil || !req.PeerFailed() {
				t.Errorf("rank %d: failure applied before Wait (%v) or not published (%v)", p.Rank(), p.PeerFailure(), req.PeerFailed())
			}
			cost := p.treeLatency() + cfg.TransferTime(8*3)
			switch p.Rank() {
			case 1:
				p.AdvanceClock(5 * step) // works past the completion
			case 2:
				p.AdvanceClock(cost / 2) // works, but less than the allreduce takes
			}
			p.Trace.Instant(p.Clock(), "work")
			at := p.Clock()
			if got := req.Wait(); got != 3 {
				t.Errorf("rank %d: max %d over the survivors, want 3", p.Rank(), got)
			}
			if want := sim.Max(at, 2*step+cost); p.Clock() != want {
				t.Errorf("rank %d: clock %v after Wait at %v, want %v", p.Rank(), p.Clock(), at, want)
			}
			if p.PeerFailure() == nil {
				t.Errorf("rank %d: Wait did not apply the published failure", p.Rank())
			}
		})
		for rank := 0; rank < 3; rank++ {
			var names []string
			var seqs []int64
			for _, e := range sink.Tracer(rank).Events() {
				names = append(names, e.Name)
				for _, tg := range e.Tags {
					switch {
					case tg.Key == trace.SeqTag:
						seqs = append(seqs, tg.Int)
					case tg.Key == trace.ByTag && tg.Int != 2:
						t.Errorf("rank %d: released by rank %d, want the latest entry, rank 2", rank, tg.Int)
					}
				}
				if e.Name == trace.CollEnterName && e.TS != sim.Time(rank)*step {
					t.Errorf("rank %d: entered at %v, want %v", rank, e.TS, sim.Time(rank)*step)
				}
				if e.Name == trace.CollExitName && e.TS != w.Proc(rank).Clock() {
					t.Errorf("rank %d: exit at %v, clock %v", rank, e.TS, w.Proc(rank).Clock())
				}
			}
			if want := []string{trace.CollEnterName, "work", trace.CollExitName}; !reflect.DeepEqual(names, want) || len(seqs) != 2 || seqs[0] != seqs[1] {
				t.Errorf("rank %d traced %v with seqs %v, want %v sharing one seq", rank, names, seqs, want)
			}
		}
	})

	t.Run("blocking", func(t *testing.T) {
		const deadline = 10 * step
		w := NewWorld(3, cfg)
		w.SetCollDeadline(deadline)
		entries := []sim.Time{step, 2 * step, step + 3*deadline} // rank 2 straggles
		w.Run(func(p *Proc) {
			p.AdvanceClock(entries[p.Rank()])
			p.AllreduceMaxInt64(int64(p.Rank()))
			published := entries[0] + deadline // the straggler's entry, capped
			if want := sim.Max(entries[p.Rank()], published) + p.treeLatency() + cfg.TransferTime(8*2); p.Clock() != want {
				t.Errorf("rank %d: clock %v after the allreduce, want %v", p.Rank(), p.Clock(), want)
			}
		})
		if failed := w.FailedRanks(); !reflect.DeepEqual(failed, []int{2}) {
			t.Errorf("ranks %v flagged, want the straggler, rank 2", failed)
		}
	})
}

// TestIallreduceKeepsItsPublishedFailure: a death revealed between start and
// Wait, to one rank by its receive, is not the allreduce's: every rank reads
// the same published version, which named no failure.
func TestIallreduceKeepsItsPublishedFailure(t *testing.T) {
	w := NewWorld(3, sim.DefaultConfig())
	w.SetRankFaults(NewRankFaultSchedule(1).Crash(2, 0))
	w.Run(func(p *Proc) {
		req := p.IallreduceMaxInt64(0)
		p.SetRound(0) // rank 2 dies here, before it sends
		if p.Rank() == 0 {
			if data, _ := p.Recv(2, 9); data != nil {
				t.Errorf("received %q from a dead rank", data)
			}
		}
		req.Wait()
		if req.PeerFailed() {
			t.Errorf("rank %d: the allreduce published a failure that happened after it", p.Rank())
		}
		if seen := p.PeerFailure() != nil; seen != (p.Rank() == 0) {
			t.Errorf("rank %d: PeerFailure %v; only rank 0's receive revealed the death", p.Rank(), p.PeerFailure())
		}
	})
}

func TestAlltoallv(t *testing.T) {
	w := testWorld(3)
	w.Run(func(p *Proc) {
		send := make([][]byte, 3)
		for d := 0; d < 3; d++ {
			send[d] = []byte(fmt.Sprintf("%d->%d", p.Rank(), d))
		}
		recv := p.Alltoallv(send)
		for s := 0; s < 3; s++ {
			want := fmt.Sprintf("%d->%d", s, p.Rank())
			if string(recv[s]) != want {
				t.Errorf("rank %d: recv[%d] = %q, want %q", p.Rank(), s, recv[s], want)
			}
		}
	})
}

func TestAlltoallvNilEntries(t *testing.T) {
	w := testWorld(2)
	w.Run(func(p *Proc) {
		send := make([][]byte, 2)
		if p.Rank() == 0 {
			send[1] = []byte("x")
		}
		recv := p.Alltoallv(send)
		if p.Rank() == 1 && !bytes.Equal(recv[0], []byte("x")) {
			t.Errorf("recv = %v", recv)
		}
		if p.Rank() == 0 && recv[1] != nil {
			t.Errorf("unexpected payload %v", recv[1])
		}
	})
}

func TestWaitall(t *testing.T) {
	w := testWorld(4)
	w.Run(func(p *Proc) {
		if p.Rank() == 0 {
			reqs := make([]*Request, 0, 3)
			for r := 1; r < 4; r++ {
				reqs = append(reqs, p.Irecv(r, 5))
			}
			data := WaitallInto(reqs, nil)
			for i, d := range data {
				if len(d) != 1 || d[0] != byte(i+1) {
					t.Errorf("waitall[%d] = %v", i, d)
				}
			}
		} else {
			p.Send(0, 5, []byte{byte(p.Rank())})
		}
	})
}

func TestRunRepeatedAndResetClocks(t *testing.T) {
	w := testWorld(2)
	w.Run(func(p *Proc) { p.Barrier() })
	first := w.MaxClock()
	w.Run(func(p *Proc) { p.Barrier() })
	if w.MaxClock() <= first {
		t.Error("clocks did not continue across Run calls")
	}
	w.ResetClocks()
	if w.MaxClock() != 0 {
		t.Errorf("clock after reset = %v", w.MaxClock())
	}
}

func TestRunPanicPropagates(t *testing.T) {
	w := testWorld(2)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("panic did not propagate")
		}
		if !strings.Contains(fmt.Sprint(r), "boom") {
			t.Fatalf("unexpected panic payload: %v", r)
		}
	}()
	w.Run(func(p *Proc) {
		if p.Rank() == 1 {
			panic("boom")
		}
		p.Barrier() // would deadlock without poison
	})
}

func TestSendInvalidRankPanics(t *testing.T) {
	w := testWorld(1)
	var panicked atomic.Bool
	func() {
		defer func() {
			if recover() != nil {
				panicked.Store(true)
			}
		}()
		w.Run(func(p *Proc) { p.Send(5, 0, nil) })
	}()
	if !panicked.Load() {
		t.Fatal("Send to invalid rank did not panic")
	}
}

func TestAdvanceClockNegativePanics(t *testing.T) {
	w := testWorld(1)
	defer func() {
		if recover() == nil {
			t.Fatal("negative advance did not panic")
		}
	}()
	w.Run(func(p *Proc) { p.AdvanceClock(-1) })
}

func TestCommStatsCounted(t *testing.T) {
	w := testWorld(2)
	w.Run(func(p *Proc) {
		if p.Rank() == 0 {
			p.Send(1, 0, make([]byte, 100))
		} else {
			p.Recv(0, 0)
		}
	})
	if got := w.Proc(0).Stats.Counter("bytes_comm"); got != 100 {
		t.Errorf("sender bytes_comm = %d, want 100", got)
	}
}

func TestCollectiveValuesStableAcrossGenerations(t *testing.T) {
	// Back-to-back collectives must not corrupt each other's snapshots.
	w := testWorld(8)
	w.Run(func(p *Proc) {
		for iter := 0; iter < 50; iter++ {
			got := make([]int64, 8)
			p.AllgatherInt64Into(int64(p.Rank()*1000+iter), got)
			want := make([]int64, 8)
			for i := range want {
				want[i] = int64(i*1000 + iter)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("iter %d rank %d: %v", iter, p.Rank(), got)
				return
			}
		}
	})
}
