package mpi

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"flexio/internal/metrics"
)

// ranAll returns a call body that counts the calls of each rank it runs on,
// and a check that every rank of a p-rank world ran it want times since the
// last check.
func ranAll(t *testing.T, p int) (func(*Proc), func(when string, want int32)) {
	t.Helper()
	counts := make([]atomic.Int32, p)
	fn := func(pr *Proc) { counts[pr.Rank()].Add(1) }
	check := func(when string, want int32) {
		t.Helper()
		for r := range counts {
			if n := counts[r].Swap(0); n != want {
				t.Errorf("%s: rank %d ran the call %d times, want %d", when, r, n, want)
			}
		}
	}
	return fn, check
}

// TestWarmRunAllocatesNothing: once a world's first Run has started its rank
// goroutines, a call hands each its Proc and allocates nothing.
func TestWarmRunAllocatesNothing(t *testing.T) {
	for _, p := range []int{8, 64} {
		t.Run(fmt.Sprint(p), func(t *testing.T) {
			w := testWorld(p)
			fn, check := ranAll(t, p)
			w.Run(fn)
			check("first Run", 1)
			const runs = 50
			if n := testing.AllocsPerRun(runs, func() { w.Run(fn) }); n != 0 {
				t.Errorf("a warm Run of %d ranks allocates %v times, want 0", p, n)
			}
			check("warm Runs", runs+1) // AllocsPerRun warms up with one more
		})
	}
}

// goroutinesSettle collects garbage until the goroutine count is at most
// want (a dropped world's goroutines end once the gate's finalizer closed
// their channels and they were scheduled), or gives up after the given
// number of collections. It returns the last count.
func goroutinesSettle(want, collections int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < collections && n > want; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// TestDroppedWorldsEndTheirGoroutines: a world keeps its rank goroutines for
// its lifetime and no longer. A thousand worlds, each run once and dropped,
// leave no goroutine behind once the collector has found them.
func TestDroppedWorldsEndTheirGoroutines(t *testing.T) {
	const worlds, ranks = 1000, 4
	base := goroutinesSettle(0, 5) // earlier tests' worlds end here
	fn := func(*Proc) {}
	peak := 0
	for i := 0; i < worlds; i++ {
		testWorld(ranks).Run(fn)
		peak = max(peak, runtime.NumGoroutine())
	}
	if peak <= base {
		t.Fatalf("running worlds never raised the goroutine count above %d", base)
	}
	if n := goroutinesSettle(base, 200); n > base {
		t.Errorf("%d goroutines after dropping %d worlds of %d ranks (peak %d), want at most %d",
			n, worlds, ranks, peak, base)
	}
}

// TestIdleWorldStartsNoGoroutine: the rank goroutines start with the first
// Run, not with the world.
func TestIdleWorldStartsNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	w := testWorld(64)
	w.ResetClocks()
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("a world that never ran started %d goroutines", n-before)
	}
	runtime.KeepAlive(w)
}

// dropRunWorld runs a world once, arms a flag the finalizer of rank 0's
// registry sets, and drops the world. The registry is reached from the world
// and its Proc 0 and reaches neither, so it is garbage exactly when they are
// (a finalizer on the Proc would sit in the cycle Proc → World → Proc and
// never run). Not inlined, so no pointer to the world outlives it in the
// caller's frame.
//
//go:noinline
func dropRunWorld(freed chan<- struct{}) {
	w := testWorld(8)
	w.Run(func(p *Proc) { p.Barrier() })
	runtime.SetFinalizer(w.Proc(0).Metrics, func(*metrics.Registry) { close(freed) })
}

// TestDroppedWorldFreedByOneGC: nothing the rank goroutines or their gate
// hold keeps a world alive, so the first collection after the drop finds the
// world and its procs unreachable. (A finalizer on the World itself would
// never run, its procs pointing back to it, and the world would leak.)
func TestDroppedWorldFreedByOneGC(t *testing.T) {
	freed := make(chan struct{})
	dropRunWorld(freed)
	runtime.GC()
	select {
	case <-freed:
	case <-time.After(10 * time.Second):
		t.Fatal("a dropped world was still reachable after one GC")
	}
}

// runCapturing runs a call on w that captures state of its own, armed to
// set freed once it is garbage. Not inlined, so only the call holds it.
//
//go:noinline
func runCapturing(w *World, freed chan<- struct{}) {
	state := new([64]byte)
	runtime.SetFinalizer(state, func(*[64]byte) { close(freed) })
	w.Run(func(p *Proc) { state[p.Rank()]++ })
}

// TestKeptWorldDropsItsCall: a world kept after a call does not keep what
// the call captured. A caller's call captures its file system, so a world a
// caller keeps (a figure's last run) would otherwise keep that alive too.
func TestKeptWorldDropsItsCall(t *testing.T) {
	w := testWorld(4)
	freed := make(chan struct{})
	runCapturing(w, freed)
	runtime.GC()
	select {
	case <-freed:
	case <-time.After(10 * time.Second):
		t.Fatal("what a finished call captured was still reachable from its world after one GC")
	}
	runtime.KeepAlive(w)
}

// TestRunAfterAFailedCall: a call that loses a rank to a panic, an injected
// crash or runtime.Goexit still leaves a world whose next Run runs on every
// rank.
func TestRunAfterAFailedCall(t *testing.T) {
	const ranks = 8
	cases := []struct {
		name string
		arm  func(w *World)
		call func(p *Proc)
	}{
		{name: "panic", call: func(p *Proc) {
			if p.Rank() == 3 {
				panic("boom")
			}
		}},
		{name: "crash",
			arm: func(w *World) { w.SetRankFaults(NewRankFaultSchedule(1).CrashAtSeq(5, 1)) },
			call: func(p *Proc) {
				p.Barrier()
				if p.Rank() != 5 && p.PeerFailure() == nil {
					panic("a survivor did not see the crash")
				}
			}},
		{name: "goexit", call: func(p *Proc) {
			if p.Rank() == 6 {
				runtime.Goexit()
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := testWorld(ranks)
			fn, check := ranAll(t, ranks)
			w.Run(fn) // the goroutines exist before the failed call
			check("first Run", 1)
			if tc.arm != nil {
				tc.arm(w)
			}
			msg := func() (msg string) {
				defer func() {
					if r := recover(); r != nil {
						msg = fmt.Sprint(r)
					}
				}()
				w.Run(tc.call)
				return ""
			}()
			if tc.name == "panic" {
				if !strings.HasPrefix(msg, "mpi: rank 3: boom") {
					t.Fatalf("Run re-panicked with %q, want the rank and its value", msg)
				}
			} else if msg != "" {
				t.Fatalf("Run panicked: %s", msg)
			}
			for i := 0; i < 3; i++ {
				w.Run(fn)
				check("Run after the failed call", 1)
			}
		})
	}
}
