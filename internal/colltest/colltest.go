// Package colltest provides a shared harness for exercising collective I/O
// implementations end to end: it runs a simulated MPI world, drives a
// parameterized interleaved workload through WriteAll/ReadAll, and verifies
// the file image byte-for-byte against an independently computed reference.
package colltest

import (
	"bytes"
	"fmt"

	"flexio/internal/datatype"
	"flexio/internal/hpio"
	"flexio/internal/metrics"
	"flexio/internal/mpi"
	"flexio/internal/mpiio"
	"flexio/internal/pfs"
	"flexio/internal/sim"
	"flexio/internal/trace"
)

// Workload is an HPIO-style regular interleaved collective access; see
// flexio/internal/hpio for the layout rules.
type Workload = hpio.Pattern

// SampleK, when positive, switches harness tracing to sampling: the
// aggregators and node leaders are always traced, K member ranks are
// reservoir-sampled, and every other rank gets a nil tracer (cmd/flexio's
// -sample flag; flexio/internal/experiments traces through EnableTracing
// too). Zero traces every rank.
var SampleK int

// EnableTracing attaches a trace sink of the given per-rank capacity
// (non-positive means trace.DefaultCapacity) to w — every rank, or under
// SampleK the first cbNodes ranks (the aggregators), the node leaders and
// SampleK sampled members. Call it after the node map is installed.
func EnableTracing(w *mpi.World, capacity, cbNodes int) *trace.Sink {
	if SampleK <= 0 {
		return w.EnableTracing(capacity)
	}
	always := make([]int, 0, cbNodes)
	for a := 0; a < cbNodes && a < w.Size(); a++ {
		always = append(always, a)
	}
	return w.EnableSampledTracing(capacity, trace.SamplePolicy{Always: always, K: SampleK, Seed: 1})
}

// Byte is the deterministic payload byte for a rank's k-th data byte.
func Byte(rank int, k int64) byte { return hpio.FillByte(rank, k) }

// Result carries the outcome of a harness run.
type Result struct {
	// Elapsed is the virtual wall time of the collective operation
	// (max completion - min start across ranks).
	Elapsed sim.Time
	// Image is the final file snapshot (writes only).
	Image []byte
	// World exposes per-rank stats.
	World *mpi.World
	// FS is the file system, for follow-on inspection.
	FS *pfs.FileSystem
	// Trace is the virtual-time event record of the measured phase (the
	// harness always traces, so equivalence tests can assert
	// well-formedness alongside data correctness).
	Trace *trace.Sink
	// Metrics is the live registry set of the measured phase (the harness
	// always enables metrics — they are allocation-free — so coherence
	// tests can compare them against stats and trace).
	Metrics *metrics.Set
	// Comm is the rank×rank communication matrix of the measured phase
	// (messages, bytes, and shuffle bytes per directed pair).
	Comm *mpi.CommMatrix
}

// CheckTrace verifies the recorded trace is well formed: balanced spans and
// monotone non-decreasing virtual time on every rank.
func (r Result) CheckTrace() error {
	if r.Trace == nil {
		return fmt.Errorf("colltest: no trace recorded")
	}
	return r.Trace.Check()
}

// BandwidthMBs converts a byte count and elapsed time to MB/s.
func (r Result) BandwidthMBs(bytes int64) float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(bytes) / 1e6 / r.Elapsed.Seconds()
}

// RunWrite performs one collective write of the workload and returns the
// result with the file image attached. make(coll) is invoked once and
// shared by all ranks (implementations are stateless per call).
func RunWrite(cfg *sim.Config, wl Workload, info mpiio.Info) (Result, error) {
	return run(cfg, wl, info, true, 1)
}

// RunWriteSteps performs `steps` identical collective writes on one open
// file, exercising persistent-realm and cache-warmth behaviour across
// calls. Only the final image is returned.
func RunWriteSteps(cfg *sim.Config, wl Workload, info mpiio.Info, steps int) (Result, error) {
	return run(cfg, wl, info, true, steps)
}

// RunReadBack writes the workload with a trusted independent path, then
// reads it back collectively and verifies the data.
func RunReadBack(cfg *sim.Config, wl Workload, info mpiio.Info) (Result, error) {
	w := mpi.NewWorld(wl.Ranks, cfg)
	if wl.NodeRanks > 0 {
		w.SetNodeMap(mpi.BlockNodeMap(wl.NodeRanks))
	}
	fs := pfs.NewFileSystem(cfg)

	// Seed the file via independent list I/O (trusted path).
	seedErr := make(chan error, wl.Ranks)
	w.Run(func(p *mpi.Proc) {
		f, err := mpiio.Open(p, fs, "readback.dat", mpiio.Info{IndepMethod: mpiio.ListIO})
		if err != nil {
			seedErr <- err
			return
		}
		ft, disp := wl.Filetype(p.Rank())
		if err := f.SetView(disp, datatype.Bytes(1), ft); err != nil {
			seedErr <- err
			return
		}
		mt, _ := wl.Memtype()
		if err := f.WriteIndependent(wl.FillBuffer(p.Rank()), mt, wl.RegionCount); err != nil {
			seedErr <- err
			return
		}
		seedErr <- f.Close()
	})
	for i := 0; i < wl.Ranks; i++ {
		if err := <-seedErr; err != nil {
			return Result{}, err
		}
	}

	// Trace only the measured phase: timestamps restart at zero with the
	// clocks.
	sink := EnableTracing(w, 0, info.CbNodes)
	met := w.EnableMetrics()
	comm := w.EnableCommMatrix()
	w.ResetClocks()
	fs.ResetTiming()
	errs := make(chan error, wl.Ranks)
	start := w.MaxClock()
	w.Run(func(p *mpi.Proc) {
		f, err := mpiio.Open(p, fs, "readback.dat", info)
		if err != nil {
			errs <- err
			return
		}
		ft, disp := wl.Filetype(p.Rank())
		if err := f.SetView(disp, datatype.Bytes(1), ft); err != nil {
			errs <- err
			return
		}
		mt, bufLen := wl.Memtype()
		buf := make([]byte, bufLen)
		if err := f.ReadAll(buf, mt, wl.RegionCount); err != nil {
			errs <- err
			return
		}
		want := wl.FillBuffer(p.Rank())
		got, _ := datatype.Pack(buf, mt, 0, wl.RegionCount)
		exp, _ := datatype.Pack(want, mt, 0, wl.RegionCount)
		if !bytes.Equal(got, exp) {
			errs <- fmt.Errorf("rank %d: read-back data mismatch", p.Rank())
			return
		}
		errs <- f.Close()
	})
	for i := 0; i < wl.Ranks; i++ {
		if err := <-errs; err != nil {
			return Result{}, err
		}
	}
	return Result{Elapsed: w.MaxClock() - start, World: w, FS: fs, Trace: sink, Metrics: met, Comm: comm}, nil
}

func run(cfg *sim.Config, wl Workload, info mpiio.Info, write bool, steps int) (Result, error) {
	w := mpi.NewWorld(wl.Ranks, cfg)
	if wl.NodeRanks > 0 {
		w.SetNodeMap(mpi.BlockNodeMap(wl.NodeRanks))
	}
	sink := EnableTracing(w, 0, info.CbNodes)
	met := w.EnableMetrics()
	comm := w.EnableCommMatrix()
	fs := pfs.NewFileSystem(cfg)
	errs := make(chan error, wl.Ranks)
	w.Run(func(p *mpi.Proc) {
		f, err := mpiio.Open(p, fs, "coll.dat", info)
		if err != nil {
			errs <- err
			return
		}
		ft, disp := wl.Filetype(p.Rank())
		if err := f.SetView(disp, datatype.Bytes(1), ft); err != nil {
			errs <- err
			return
		}
		mt, _ := wl.Memtype()
		buf := wl.FillBuffer(p.Rank())
		for s := 0; s < steps; s++ {
			if err := f.WriteAll(buf, mt, wl.RegionCount); err != nil {
				errs <- fmt.Errorf("rank %d step %d: %w", p.Rank(), s, err)
				return
			}
		}
		errs <- f.Close()
	})
	for i := 0; i < wl.Ranks; i++ {
		if err := <-errs; err != nil {
			return Result{}, err
		}
	}
	res := Result{
		Elapsed: w.MaxClock(),
		World:   w,
		FS:      fs,
		Trace:   sink,
		Metrics: met,
		Comm:    comm,
	}
	res.Image = fs.Snapshot("coll.dat", int64(len(wl.Reference())))
	return res, nil
}

// VerifyImage compares a written image to the workload reference and
// returns a descriptive error on the first mismatch.
func VerifyImage(wl Workload, img []byte) error {
	ref := wl.Reference()
	if len(img) < len(ref) {
		return fmt.Errorf("image too short: %d < %d", len(img), len(ref))
	}
	for i := range ref {
		if img[i] != ref[i] {
			return fmt.Errorf("file byte %d = %d, want %d", i, img[i], ref[i])
		}
	}
	return nil
}
