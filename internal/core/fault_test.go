package core_test

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"testing"

	"flexio/internal/core"
	"flexio/internal/datatype"
	"flexio/internal/metrics"
	"flexio/internal/mpi"
	"flexio/internal/mpiio"
	"flexio/internal/pfs"
	"flexio/internal/sim"
)

// checkAgreement asserts the collective error-agreement invariant: either
// every rank returned nil, or every rank returned an error wrapping
// ErrCollectiveAbort with the same agreed class.
func checkAgreement(t *testing.T, errs []error) {
	t.Helper()
	failed := 0
	for _, err := range errs {
		if err != nil {
			failed++
		}
	}
	if failed == 0 {
		return
	}
	if failed != len(errs) {
		t.Fatalf("agreement violated: %d of %d ranks errored: %v", failed, len(errs), errs)
	}
	class := mpiio.ErrorClass(errs[0])
	for r, err := range errs {
		if !errors.Is(err, mpiio.ErrCollectiveAbort) {
			t.Errorf("rank %d error does not wrap ErrCollectiveAbort: %v", r, err)
		}
		if c := mpiio.ErrorClass(err); c != class {
			t.Errorf("rank %d agreed class %s, rank 0 agreed %s",
				r, mpiio.ClassName(c), mpiio.ClassName(class))
		}
	}
}

// runFaulty performs a collective write (or read) with an injected hard
// storage error and returns the per-rank errors. The call must complete on
// every rank — no deadlock — with every rank agreeing on the error.
func runFaulty(t *testing.T, coll mpiio.Collective, write bool) []error {
	t.Helper()
	const ranks = 4
	cfg := sim.DefaultConfig()
	w := mpi.NewWorld(ranks, cfg)
	fs := pfs.NewFileSystem(cfg)
	boom := errors.New("injected EIO")

	var mu sync.Mutex
	injected := false
	fs.SetFaultSchedule(pfs.NewFaultSchedule(0).WithHook(func(op pfs.Op) error {
		mu.Lock()
		defer mu.Unlock()
		// Fail the first write that reaches storage.
		if op.Kind == "write" && !injected {
			injected = true
			return boom
		}
		return nil
	}))

	errs := make([]error, ranks)
	w.Run(func(p *mpi.Proc) {
		f, err := mpiio.Open(p, fs, "faulty.dat", mpiio.Info{Collective: coll})
		if err != nil {
			errs[p.Rank()] = err
			return
		}
		ft := datatype.Must(datatype.Resized(datatype.Bytes(64), 64*ranks))
		if err := f.SetView(int64(p.Rank())*64, datatype.Bytes(1), ft); err != nil {
			errs[p.Rank()] = err
			return
		}
		buf := make([]byte, 64*32)
		if write {
			errs[p.Rank()] = f.WriteAll(buf, datatype.Bytes(64), 32)
		} else {
			errs[p.Rank()] = f.ReadAll(buf, datatype.Bytes(64), 32)
		}
		f.Close()
	})
	return errs
}

func TestWriteFaultAllRanksAgree(t *testing.T) {
	for _, tc := range []struct {
		name string
		coll mpiio.Collective
	}{
		{"new-nonblocking", core.New(core.Options{})},
		{"new-alltoallw", core.New(core.Options{Comm: core.Alltoallw})},
		{"new-naive", core.New(core.Options{Method: mpiio.Naive})},
		{"old", core.ROMIO(core.Options{})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			errs := runFaulty(t, tc.coll, true)
			checkAgreement(t, errs)
			detail := false
			for _, err := range errs {
				if err == nil {
					t.Fatal("injected write error vanished on a rank")
				}
				if strings.Contains(err.Error(), "injected EIO") {
					detail = true
				}
			}
			if !detail {
				t.Error("no rank kept the local error detail")
			}
		})
	}
}

func TestReadFaultAllRanksAgree(t *testing.T) {
	// For reads, inject on the read path instead.
	const ranks = 4
	cfg := sim.DefaultConfig()
	w := mpi.NewWorld(ranks, cfg)
	fs := pfs.NewFileSystem(cfg)
	boom := errors.New("injected EIO")
	var mu sync.Mutex
	armed := false
	fs.SetFaultSchedule(pfs.NewFaultSchedule(0).WithHook(func(op pfs.Op) error {
		mu.Lock()
		defer mu.Unlock()
		if op.Kind == "read" && armed {
			armed = false
			return boom
		}
		return nil
	}))

	errs := make([]error, ranks)
	w.Run(func(p *mpi.Proc) {
		f, err := mpiio.Open(p, fs, "faulty.dat", mpiio.Info{
			Collective: core.New(core.Options{Method: mpiio.Naive}),
		})
		if err != nil {
			errs[p.Rank()] = err
			return
		}
		ft := datatype.Must(datatype.Resized(datatype.Bytes(64), 64*ranks))
		f.SetView(int64(p.Rank())*64, datatype.Bytes(1), ft)
		buf := make([]byte, 64*32)
		if err := f.WriteAll(buf, datatype.Bytes(64), 32); err != nil {
			errs[p.Rank()] = err
			return
		}
		p.Barrier()
		if p.Rank() == 0 {
			mu.Lock()
			armed = true
			mu.Unlock()
		}
		p.Barrier()
		errs[p.Rank()] = f.ReadAll(buf, datatype.Bytes(64), 32)
		f.Close()
	})
	checkAgreement(t, errs)
	for _, err := range errs {
		if err == nil {
			t.Fatal("injected read error vanished on a rank")
		}
	}
}

func TestFailedWriteLeavesOtherRealmsIntact(t *testing.T) {
	// An error at one aggregator must not corrupt what other aggregators
	// wrote: the error is per-realm.
	const ranks = 4
	cfg := sim.DefaultConfig()
	w := mpi.NewWorld(ranks, cfg)
	fs := pfs.NewFileSystem(cfg)
	boom := errors.New("injected EIO")
	var mu sync.Mutex
	failed := false
	var failedOff int64 = -1
	fs.SetFaultSchedule(pfs.NewFaultSchedule(0).WithHook(func(op pfs.Op) error {
		mu.Lock()
		defer mu.Unlock()
		if op.Kind == "write" && !failed {
			failed = true
			failedOff = op.Off
			return boom
		}
		return nil
	}))
	w.Run(func(p *mpi.Proc) {
		f, _ := mpiio.Open(p, fs, "partial.dat", mpiio.Info{
			Collective: core.New(core.Options{Method: mpiio.Naive}),
		})
		ft := datatype.Must(datatype.Resized(datatype.Bytes(64), 64*ranks))
		f.SetView(int64(p.Rank())*64, datatype.Bytes(1), ft)
		buf := make([]byte, 64*32)
		for i := range buf {
			buf[i] = 0xAB
		}
		f.WriteAll(buf, datatype.Bytes(64), 32) // collective abort expected
		f.Close()
	})
	if !failed {
		t.Fatal("fault never fired")
	}
	// Everything outside the failed aggregator's realm chunk must carry
	// the written pattern. Realms are contiguous quarters of [0, 8192).
	img := fs.Snapshot("partial.dat", 64*32*ranks)
	realmSize := int64(64*32*ranks) / ranks
	failedRealm := failedOff / realmSize
	intact := 0
	for i, b := range img {
		if int64(i)/realmSize == failedRealm {
			continue
		}
		if b == 0xAB {
			intact++
		}
	}
	if intact == 0 {
		t.Error("no data survived outside the failed realm")
	}
}

// runSchedule performs a multi-round collective write (then optional
// verifying read) under a fault schedule and returns per-rank errors plus
// the merged stats. CollBufSize is shrunk so each rank's 2048 bytes split
// across at least two two-phase rounds. With gapped set, the tile leaves a
// 64-byte hole per cycle so aggregator accesses stay noncontiguous and the
// data-sieving path (including its RMW prefetch) is exercised.
func runSchedule(t *testing.T, sched *pfs.FaultSchedule, opts core.Options, verify, gapped bool) ([]error, *metrics.Registry, *pfs.FileSystem) {
	t.Helper()
	const ranks = 4
	cfg := sim.DefaultConfig()
	w := mpi.NewWorld(ranks, cfg)
	fs := pfs.NewFileSystem(cfg)
	fs.SetFaultSchedule(sched)

	extent := int64(64 * ranks)
	if gapped {
		extent = 64 * (ranks + 1)
	}
	errs := make([]error, ranks)
	w.Run(func(p *mpi.Proc) {
		f, err := mpiio.Open(p, fs, "sched.dat", mpiio.Info{
			Collective:  core.New(opts),
			CollBufSize: 1024,
		})
		if err != nil {
			errs[p.Rank()] = err
			return
		}
		ft := datatype.Must(datatype.Resized(datatype.Bytes(64), extent))
		f.SetView(int64(p.Rank())*64, datatype.Bytes(1), ft)
		buf := make([]byte, 64*32)
		for i := range buf {
			buf[i] = byte(p.Rank()*31 + i)
		}
		if err := f.WriteAll(buf, datatype.Bytes(64), 32); err != nil {
			errs[p.Rank()] = err
			f.Close()
			return
		}
		if verify {
			got := make([]byte, len(buf))
			if err := f.ReadAll(got, datatype.Bytes(64), 32); err != nil {
				errs[p.Rank()] = err
			} else if !bytes.Equal(got, buf) {
				t.Errorf("rank %d: readback mismatch after recovery", p.Rank())
			}
		}
		f.Close()
	})
	return errs, w.Totals(), fs
}

func TestTransientFaultRecovers(t *testing.T) {
	// A bounded burst of transient errors must be absorbed by the retry
	// layer: the collective succeeds, data is intact, and the retries are
	// visible in the counters.
	sched := pfs.NewFaultSchedule(42).Add(pfs.Rule{
		Kind:  "write",
		Class: pfs.ClassTransient,
		Count: 2, // per client: recoverable within the retry limit
	})
	errs, agg, _ := runSchedule(t, sched, core.Options{}, true, false)
	checkAgreement(t, errs)
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: transient fault should have been retried away: %v", r, err)
		}
	}
	if sched.Injected() == 0 {
		t.Fatal("schedule never fired")
	}
	if agg.Counter(metrics.CRetries) == 0 {
		t.Error("no retries recorded despite injected transient faults")
	}
	if agg.Counter(metrics.CFaults) == 0 {
		t.Error("CFaultsInjected not recorded")
	}
	if agg.Phase(metrics.PBackoff) <= 0 {
		t.Error("backoff did not charge virtual time")
	}
}

func TestRoundTargetedFaultAborts(t *testing.T) {
	// A hard fault confined to round 1 must let round 0 finish and then
	// abort every rank with the same class at the round-1 boundary.
	sched := pfs.NewFaultSchedule(7).Add(pfs.Rule{
		Kind:   "write",
		Class:  pfs.ClassIO,
		Rounds: []int{1},
	})
	errs, _, _ := runSchedule(t, sched, core.Options{}, false, false)
	checkAgreement(t, errs)
	if sched.Injected() == 0 {
		t.Fatal("round-targeted rule never fired")
	}
	for r, err := range errs {
		if err == nil {
			t.Fatalf("rank %d: hard round-1 fault should abort the collective", r)
		}
		if c := mpiio.ErrorClass(err); c != mpiio.ClassIO {
			t.Errorf("rank %d: agreed class %s, want io", r, mpiio.ClassName(c))
		}
	}
}

func TestSieveRMWFaultAgrees(t *testing.T) {
	// A hard fault on the sieve path (the RMW prefetch read or the sieve
	// write itself) must surface through the data-sieving method and still
	// satisfy the agreement invariant.
	sched := pfs.NewFaultSchedule(11).Add(pfs.Rule{
		Class: pfs.ClassIO,
		Match: func(op pfs.Op) bool { return op.Sieve },
	})
	errs, _, _ := runSchedule(t, sched, core.Options{Method: mpiio.DataSieve}, false, true)
	checkAgreement(t, errs)
	if sched.Injected() == 0 {
		t.Fatal("sieve rule never fired")
	}
	for r, err := range errs {
		if err == nil {
			t.Fatalf("rank %d: hard sieve fault should abort the collective", r)
		}
	}
}

func TestDegradedModeFallsBackToNaive(t *testing.T) {
	// With Degraded on, a hard fault confined to sieve operations makes
	// the aggregator re-issue the round with naive I/O: the collective
	// succeeds, data verifies, and the fallback is counted.
	sched := pfs.NewFaultSchedule(13).Add(pfs.Rule{
		Kind:  "write",
		Class: pfs.ClassIO,
		Match: func(op pfs.Op) bool { return op.Sieve },
	})
	errs, agg, _ := runSchedule(t, sched,
		core.Options{Method: mpiio.DataSieve, Degraded: true}, true, true)
	checkAgreement(t, errs)
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: degraded mode should have recovered: %v", r, err)
		}
	}
	if agg.Counter(metrics.CDegradedRounds) == 0 {
		t.Error("no degraded rounds counted despite sieve faults")
	}
}
