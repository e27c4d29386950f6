// Package colltest provides a shared harness for exercising collective I/O
// implementations end to end: it runs a simulated MPI world, drives a
// parameterized interleaved workload through WriteAll/ReadAll, and verifies
// the file image byte-for-byte against an independently computed reference.
//
// Transfer is the one runner every caller shares. It records nothing of its
// own: a caller that wants a trace, metrics or a clean comm matrix arms the
// world before handing it over (World.EnableTracing, EnableMetrics,
// EnableCommMatrix) and reads them from Result.World afterwards.
package colltest

import (
	"bytes"
	"errors"
	"fmt"

	"flexio/internal/datatype"
	"flexio/internal/hpio"
	"flexio/internal/mpi"
	"flexio/internal/mpiio"
	"flexio/internal/pfs"
	"flexio/internal/sim"
)

// Workload is an HPIO-style regular interleaved collective access; see
// flexio/internal/hpio for the layout rules.
type Workload = hpio.Pattern

// File is the file name the harness's runs and sessions open.
const File = "coll.dat"

// StepSpec is one rank's access for one step of a run: the view it installs
// and the buffer it moves through it.
type StepSpec struct {
	Filetype datatype.Type
	Disp     int64
	Memtype  datatype.Type
	Count    int64
	Buf      []byte
}

// Spec is the workload as a constant step: at every step rank r moves its
// fill buffer through the same view. Each rank builds its spec on first use;
// a read moves into the same buffer, so a caller clears it first.
func Spec(wl Workload) func(step, rank int) StepSpec {
	specs := make([]StepSpec, wl.Ranks)
	return func(_, rank int) StepSpec {
		if s := &specs[rank]; s.Filetype == nil {
			s.Filetype, s.Disp = wl.Filetype(rank)
			s.Memtype, _ = wl.Memtype()
			s.Count, s.Buf = wl.RegionCount, wl.FillBuffer(rank)
		}
		return specs[rank]
	}
}

// Transfer opens name on every rank of w, runs `steps` steps in one
// World.Run and closes the file. At each step rank r installs spec(step, r)'s
// view, unless it is the one already installed, and moves its buffer: a
// collective write or read through info.Collective, or an independent one
// when there is none. It returns each rank's error (nil for a rank a fault
// killed) and, apart from those, the first Open or SetView failure in rank
// order, after which its rank neither moves nor closes.
func Transfer(w *mpi.World, fs *pfs.FileSystem, name string, info mpiio.Info, write bool, steps int,
	spec func(step, rank int) StepSpec) (errs []error, setup error) {
	errs = make([]error, w.Size())
	setups := make([]error, w.Size())
	w.Run(func(p *mpi.Proc) {
		r := p.Rank()
		f, err := mpiio.Open(p, fs, name, info)
		if err != nil {
			setups[r] = err
			return
		}
		var view StepSpec
		for s := 0; s < steps && errs[r] == nil; s++ {
			sp := spec(s, r)
			if s == 0 || sp.Filetype != view.Filetype || sp.Disp != view.Disp {
				if setups[r] = f.SetView(sp.Disp, datatype.Bytes(1), sp.Filetype); setups[r] != nil {
					return
				}
				view = sp
			}
			if write {
				errs[r] = f.WriteAll(sp.Buf, sp.Memtype, sp.Count)
			} else {
				errs[r] = f.ReadAll(sp.Buf, sp.Memtype, sp.Count)
			}
		}
		if err := f.Close(); errs[r] == nil {
			errs[r] = err
		}
	})
	for _, err := range setups {
		if err != nil {
			return nil, err
		}
	}
	return errs, nil
}

// run is Transfer with its errors folded into one.
func run(w *mpi.World, fs *pfs.FileSystem, info mpiio.Info, write bool, steps int, spec func(step, rank int) StepSpec) error {
	errs, err := Transfer(w, fs, File, info, write, steps, spec)
	if err != nil {
		return err
	}
	return errors.Join(errs...)
}

// ReadMatches reports whether buf, rank's buffer after a read of the
// workload, holds the bytes rank writes.
func ReadMatches(wl Workload, rank int, buf []byte) bool {
	mt, _ := wl.Memtype()
	got, _ := datatype.Pack(buf, mt, 0, wl.RegionCount)
	want, _ := datatype.Pack(wl.FillBuffer(rank), mt, 0, wl.RegionCount)
	return bytes.Equal(got, want)
}

// Result carries the outcome of a harness run.
type Result struct {
	// Elapsed is the virtual wall time of the run: the latest rank clock,
	// the clocks having started at zero.
	Elapsed sim.Time
	// Image is the final file snapshot (Write only).
	Image []byte
	// World is the world the run ran on, with whatever its caller armed.
	World *mpi.World
	// FS is the file system, for follow-on inspection.
	FS *pfs.FileSystem
}

// BandwidthMBs converts a byte count and elapsed time to MB/s.
func (r Result) BandwidthMBs(bytes int64) float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(bytes) / 1e6 / r.Elapsed.Seconds()
}

// NewWorld builds the workload's world: wl.Ranks ranks, on the block node
// map wl.NodeRanks names. It records nothing until its caller arms it.
func NewWorld(cfg *sim.Config, wl Workload) *mpi.World {
	w := mpi.NewWorld(wl.Ranks, cfg)
	if wl.NodeRanks > 0 {
		w.SetNodeMap(mpi.BlockNodeMap(wl.NodeRanks))
	}
	return w
}

// WriteSpec writes `steps` steps of spec to File on a new file system over w.
func WriteSpec(w *mpi.World, info mpiio.Info, steps int, spec func(step, rank int) StepSpec) (Result, error) {
	fs := pfs.NewFileSystem(w.Config())
	if err := run(w, fs, info, true, steps, spec); err != nil {
		return Result{}, err
	}
	return Result{Elapsed: w.MaxClock(), World: w, FS: fs}, nil
}

// Write performs `steps` identical collective writes of the workload on one
// open file of a new file system over w, and attaches the final image.
func Write(w *mpi.World, wl Workload, info mpiio.Info, steps int) (Result, error) {
	res, err := WriteSpec(w, info, steps, Spec(wl))
	if err == nil {
		res.Image = res.FS.Snapshot(File, wl.FileSize())
	}
	return res, err
}

// ReadBack writes the workload to a new file system over w through a trusted
// independent path (list I/O), resets the world's clocks and books, then
// reads it back collectively and verifies every rank's bytes, so the result
// holds the read alone.
func ReadBack(w *mpi.World, wl Workload, info mpiio.Info) (Result, error) {
	fs := pfs.NewFileSystem(w.Config())
	spec := Spec(wl)
	if err := run(w, fs, mpiio.Info{IndepMethod: mpiio.ListIO}, true, 1, spec); err != nil {
		return Result{}, err
	}
	for r := range wl.Ranks {
		clear(spec(0, r).Buf)
	}
	w.ResetClocks()
	fs.ResetTiming()
	if err := run(w, fs, info, false, 1, spec); err != nil {
		return Result{}, err
	}
	for r := range wl.Ranks {
		if !ReadMatches(wl, r, spec(0, r).Buf) {
			return Result{}, fmt.Errorf("rank %d: read-back data mismatch", r)
		}
	}
	return Result{Elapsed: w.MaxClock(), World: w, FS: fs}, nil
}

// RunWrite performs one collective write of the workload on a new world and
// returns the result with the file image attached.
func RunWrite(cfg *sim.Config, wl Workload, info mpiio.Info) (Result, error) {
	return Write(NewWorld(cfg, wl), wl, info, 1)
}

// RunWriteSteps performs `steps` identical collective writes on one open
// file of a new world, exercising persistent-realm and cache-warmth
// behaviour across calls. Only the final image is returned.
func RunWriteSteps(cfg *sim.Config, wl Workload, info mpiio.Info, steps int) (Result, error) {
	return Write(NewWorld(cfg, wl), wl, info, steps)
}

// RunReadBack is ReadBack on a new world.
func RunReadBack(cfg *sim.Config, wl Workload, info mpiio.Info) (Result, error) {
	return ReadBack(NewWorld(cfg, wl), wl, info)
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
