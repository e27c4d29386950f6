package mpiio

import (
	"bytes"
	"errors"
	"testing"

	"flexio/internal/datatype"
	"flexio/internal/metrics"
	"flexio/internal/mpi"
	"flexio/internal/pfs"
	"flexio/internal/sim"
)

func retryWorld(t *testing.T, info Info, sched *pfs.FaultSchedule, fn func(f *File, fs *pfs.FileSystem)) *metrics.Registry {
	t.Helper()
	cfg := sim.DefaultConfig()
	w := mpi.NewWorld(1, cfg)
	fs := pfs.NewFileSystem(cfg)
	if sched != nil {
		fs.SetFaultSchedule(sched)
	}
	w.Run(func(p *mpi.Proc) {
		f, err := Open(p, fs, "retry.dat", info)
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		fn(f, fs)
		f.Close()
	})
	return w.Totals()
}

func TestRetryTransientRecovers(t *testing.T) {
	sched := pfs.NewFaultSchedule(9).Add(pfs.Rule{
		Kind: "write", Class: pfs.ClassTransient, Count: 2,
	})
	data := bytes.Repeat([]byte{0x5A}, 4096)
	rec := retryWorld(t, Info{}, sched, func(f *File, fs *pfs.FileSystem) {
		if err := f.WriteIndependent(data, datatype.Bytes(4096), 1); err != nil {
			t.Fatalf("write should recover: %v", err)
		}
		if !bytes.Equal(fs.Snapshot("retry.dat", 4096), data) {
			t.Error("recovered write left wrong bytes")
		}
	})
	if got := rec.Counter(metrics.CRetries); got != 2 {
		t.Errorf("CRetries = %d, want 2", got)
	}
	if rec.Phase(metrics.PBackoff) <= 0 {
		t.Error("backoff charged no virtual time")
	}
	if rec.Counter(metrics.CGiveups) != 0 {
		t.Error("spurious giveup")
	}
}

func TestRetryPartialResume(t *testing.T) {
	sched := pfs.NewFaultSchedule(9).Add(pfs.Rule{
		Kind: "write", Class: pfs.ClassPartial, Frac: 0.5, Count: 3,
	})
	data := make([]byte, 4096)
	for i := range data {
		data[i] = byte(i * 7)
	}
	rec := retryWorld(t, Info{}, sched, func(f *File, fs *pfs.FileSystem) {
		if err := f.WriteIndependent(data, datatype.Bytes(4096), 1); err != nil {
			t.Fatalf("write should resume past partials: %v", err)
		}
		if !bytes.Equal(fs.Snapshot("retry.dat", 4096), data) {
			t.Error("resumed write left wrong bytes")
		}
	})
	if got := rec.Counter(metrics.CResumes); got != 3 {
		t.Errorf("CPartialResumes = %d, want 3", got)
	}
	// Resumptions are not retries: no backoff should have been paid.
	if got := rec.Counter(metrics.CRetries); got != 0 {
		t.Errorf("CRetries = %d, want 0 (resume is not retry)", got)
	}
}

func TestRetryGivesUpAfterLimit(t *testing.T) {
	sched := pfs.NewFaultSchedule(9).Add(pfs.Rule{
		Kind: "write", Class: pfs.ClassTransient, // no Count: never heals
	})
	rec := retryWorld(t, Info{RetryLimit: 3}, sched, func(f *File, fs *pfs.FileSystem) {
		err := f.WriteIndependent(make([]byte, 512), datatype.Bytes(512), 1)
		if !errors.Is(err, pfs.ErrTransient) {
			t.Fatalf("giveup should keep the transient class, got %v", err)
		}
	})
	if got := rec.Counter(metrics.CRetries); got != 3 {
		t.Errorf("CRetries = %d, want 3", got)
	}
	if got := rec.Counter(metrics.CGiveups); got != 1 {
		t.Errorf("CGiveups = %d, want 1", got)
	}
}

func TestRetryHardErrorNotRetried(t *testing.T) {
	sched := pfs.NewFaultSchedule(9).Add(pfs.Rule{
		Kind: "write", Class: pfs.ClassIO, Count: 1,
	})
	rec := retryWorld(t, Info{}, sched, func(f *File, fs *pfs.FileSystem) {
		err := f.WriteIndependent(make([]byte, 512), datatype.Bytes(512), 1)
		if !errors.Is(err, pfs.ErrIO) {
			t.Fatalf("want hard ErrIO, got %v", err)
		}
	})
	if got := rec.Counter(metrics.CRetries); got != 0 {
		t.Errorf("CRetries = %d, want 0 (hard errors surface at once)", got)
	}
}

func TestRetryDisabled(t *testing.T) {
	sched := pfs.NewFaultSchedule(9).Add(pfs.Rule{
		Kind: "write", Class: pfs.ClassTransient, Count: 1,
	})
	rec := retryWorld(t, Info{RetryLimit: -1}, sched, func(f *File, fs *pfs.FileSystem) {
		err := f.WriteIndependent(make([]byte, 512), datatype.Bytes(512), 1)
		if !errors.Is(err, pfs.ErrTransient) {
			t.Fatalf("disabled retries should surface the transient, got %v", err)
		}
	})
	if got := rec.Counter(metrics.CRetries); got != 0 {
		t.Errorf("CRetries = %d, want 0", got)
	}
}

func TestRetryDeadlineCapsBackoff(t *testing.T) {
	sched := pfs.NewFaultSchedule(9).Add(pfs.Rule{
		Kind: "write", Class: pfs.ClassTransient,
	})
	info := Info{RetryLimit: 10}
	rec := retryWorld(t, info, sched, func(f *File, fs *pfs.FileSystem) {
		err := f.WriteIndependent(make([]byte, 512), datatype.Bytes(512), 1)
		if !errors.Is(err, pfs.ErrTransient) {
			t.Fatalf("want transient giveup, got %v", err)
		}
	})
	// Eight doubling backoffs from retryBackoff (0.5 ms to 64 ms, 127.5 ms
	// in all) fit the 250 ms retryDeadline; a ninth (128 ms) does not, so
	// the deadline truncates the retry ladder below the limit of ten.
	if got := rec.Counter(metrics.CRetries); got != 8 {
		t.Errorf("CRetries = %d, want 8 (deadline-capped)", got)
	}
	if got := rec.Counter(metrics.CGiveups); got != 1 {
		t.Errorf("CGiveups = %d, want 1", got)
	}
}

func TestRetryReadPath(t *testing.T) {
	sched := pfs.NewFaultSchedule(9).Add(pfs.Rule{
		Kind: "read", Class: pfs.ClassTransient, Count: 1,
	})
	data := bytes.Repeat([]byte{0x3C}, 2048)
	rec := retryWorld(t, Info{}, sched, func(f *File, fs *pfs.FileSystem) {
		if err := f.WriteIndependent(data, datatype.Bytes(2048), 1); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, 2048)
		if err := f.ReadIndependent(got, datatype.Bytes(2048), 1); err != nil {
			t.Fatalf("read should recover: %v", err)
		}
		if !bytes.Equal(got, data) {
			t.Error("recovered read returned wrong bytes")
		}
	})
	if got := rec.Counter(metrics.CRetries); got != 1 {
		t.Errorf("CRetries = %d, want 1", got)
	}
}

func TestErrorClassRoundTrip(t *testing.T) {
	for _, c := range []int64{ClassOK, ClassTransient, ClassPartial, ClassIO, ClassInternal} {
		err := ClassError(c)
		if got := ErrorClass(err); got != c {
			t.Errorf("ErrorClass(ClassError(%s)) = %s", ClassName(c), ClassName(got))
		}
		if c != ClassOK && !errors.Is(err, ErrCollectiveAbort) {
			t.Errorf("ClassError(%s) does not wrap ErrCollectiveAbort", ClassName(c))
		}
	}
}

func TestAgreeErrorSingleRank(t *testing.T) {
	cfg := sim.DefaultConfig()
	w := mpi.NewWorld(1, cfg)
	w.Run(func(p *mpi.Proc) {
		if err := AgreeError(p, nil); err != nil {
			t.Errorf("clean agreement returned %v", err)
		}
		err := AgreeError(p, pfs.ErrIO)
		if !errors.Is(err, ErrCollectiveAbort) || ErrorClass(err) != ClassIO {
			t.Errorf("agreement lost the class: %v", err)
		}
	})
}
