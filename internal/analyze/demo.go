package analyze

import (
	"fmt"

	"flexio/internal/core"
	"flexio/internal/datatype"
	"flexio/internal/mpi"
	"flexio/internal/mpiio"
	"flexio/internal/pfs"
	"flexio/internal/sim"
)

// Demo runs a deliberately unhealthy pair of workloads and returns the world
// they ran on, metrics enabled, so `flexio observe` (and the analyzer tests)
// have findings that are known in advance. Act one is a rank
// failure: a journalled collective write loses rank 1 mid-round, the
// survivors abort through the deadline guard, and the collective resumes
// with the dead rank demoted from aggregator duty — the dump's failover
// event and deadline trips. Act two is a misconfigured collective write —
// misaligned realm displacements, a sparse access pattern that defeats
// data sieving, and one rank with far denser data than the rest so its
// aggregator is overloaded.
func Demo() (*mpi.World, error) {
	cfg := sim.DefaultConfig()
	const (
		ranks   = 4
		sparse  = ranks - 1 // ranks 0..2 write sparse blocks; rank 3 dense
		block   = 384       // bytes written per stride by each sparse rank
		stride  = 4096      // distance between a sparse rank's blocks
		sparseN = 768       // blocks per sparse rank -> 3 MiB sparse region
		dense   = int64(1) << 20
		// Deliberately not a multiple of the stripe (or even the page)
		// size, so every realm boundary lands mid-stripe.
		baseDisp = int64(1000)
	)
	region := int64(sparseN) * stride

	w := mpi.NewWorld(ranks, cfg)
	w.EnableMetrics()
	fs := pfs.NewFileSystem(cfg)

	// Act one: aggregator failover. The traffic is kept small (a few KiB
	// per rank) so act two's load-skew signal stays dominant in the
	// flight-recorder round totals.
	w.SetCollDeadline(50e-3)
	w.SetRankFaults(mpi.NewRankFaultSchedule(1).Crash(1, 1))
	journal := mpiio.NewWriteJournal()
	opts := core.Options{Method: mpiio.DataSieve, Journal: journal}
	attempt := func(coll mpiio.Collective) []error {
		res := make([]error, ranks)
		w.Run(func(p *mpi.Proc) {
			f, err := mpiio.Open(p, fs, "demo-failover.dat", mpiio.Info{
				Collective:  coll,
				CollBufSize: 2 << 10,
			})
			if err != nil {
				res[p.Rank()] = err
				return
			}
			const foBlock = 8 << 10
			buf := make([]byte, foBlock)
			for i := range buf {
				buf[i] = byte(p.Rank() + i)
			}
			if err := f.SetView(baseDisp+int64(p.Rank())*foBlock, datatype.Bytes(1), datatype.Bytes(foBlock)); err != nil {
				res[p.Rank()] = err
				return
			}
			if err := f.WriteAll(buf, datatype.Bytes(foBlock), 1); err != nil {
				// A dead peer makes Close collective-unsafe; bail here.
				res[p.Rank()] = err
				return
			}
			res[p.Rank()] = f.Close()
		})
		return res
	}
	for r, err := range attempt(core.New(opts)) {
		if r == 1 {
			continue // the victim crashes without returning
		}
		if err == nil {
			return nil, fmt.Errorf("demo: rank %d did not observe the crashed peer", r)
		}
		if cls := mpiio.ErrorClass(err); cls != mpiio.ClassUnresponsive {
			return nil, fmt.Errorf("demo: rank %d aborted with class %s: %w", r, mpiio.ClassName(cls), err)
		}
	}
	dead := w.FailedRanks()
	if len(dead) == 0 {
		return nil, fmt.Errorf("demo: no rank was detected dead")
	}
	w.ReviveAll()
	for r, err := range attempt(core.ResumeCollective(opts, journal, dead)) {
		if err != nil {
			return nil, fmt.Errorf("demo: resume failed on rank %d: %w", r, err)
		}
	}
	// Disarm the fault plane: act two's skewed aggregator runs far ahead
	// of the idle clients each round, and must not trip the guard.
	w.SetCollDeadline(0)
	w.SetRankFaults(nil)

	// Act two: the misconfigured collective write.
	info := mpiio.Info{
		// Even realms over the aggregate extent, no alignment, sieving
		// aggregators: the configuration the analyzer should object to.
		Collective:  core.New(core.Options{Method: mpiio.DataSieve}),
		CollBufSize: 256 << 10,
	}
	errs := make(chan error, ranks)
	w.Run(func(p *mpi.Proc) {
		f, err := mpiio.Open(p, fs, "demo.dat", info)
		if err != nil {
			errs <- err
			return
		}
		var (
			ft   datatype.Type
			disp int64
			buf  []byte
		)
		if p.Rank() < sparse {
			// Interleaved sparse writers: 384-byte blocks every 4 KiB,
			// offset per rank so the three never overlap.
			ft, err = datatype.Resized(datatype.Bytes(block), stride)
			if err != nil {
				errs <- err
				return
			}
			disp = baseDisp + int64(p.Rank())*block
			buf = make([]byte, sparseN*block)
		} else {
			// One dense writer at the tail of the file: its realm's
			// aggregator receives ~3.6x the median shuffle bytes.
			ft = datatype.Bytes(dense)
			disp = baseDisp + region
			buf = make([]byte, dense)
		}
		for i := range buf {
			buf[i] = byte(p.Rank()*31 + i)
		}
		if err := f.SetView(disp, datatype.Bytes(1), ft); err != nil {
			errs <- err
			return
		}
		if err := f.WriteAll(buf, datatype.Bytes(int64(len(buf))), 1); err != nil {
			errs <- fmt.Errorf("rank %d: %w", p.Rank(), err)
			return
		}
		errs <- f.Close()
	})
	for i := 0; i < ranks; i++ {
		if err := <-errs; err != nil {
			return nil, err
		}
	}
	return w, nil
}
