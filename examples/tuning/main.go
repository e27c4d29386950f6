// Tuning: conditional data sieving (the paper's §6.3). The engine can pick
// the collective-buffer access method per collective call from a simple
// metric — the filetype extent. This example sweeps the extent, measures
// data sieving and naive I/O beneath the same collective write, locates
// the empirical crossover, and shows that the Conditional option tracks
// the winner on both sides of it.
//
// Run with: go run ./examples/tuning
package main

import (
	"fmt"
	"log"

	"flexio/internal/colltest"
	"flexio/internal/core"
	"flexio/internal/datatype"
	"flexio/internal/mpi"
	"flexio/internal/mpiio"
	"flexio/internal/sim"
)

const (
	ranks    = 8
	fileSize = 64 << 20
)

// run writes the fig5-style workload (regions of half the extent) with the
// given options and returns MB/s.
func run(cfg *sim.Config, extent int64, o core.Options) float64 {
	blockSize := int64(fileSize / ranks)
	regions := blockSize / extent
	rs := extent / 2
	ft := datatype.Must(datatype.Resized(datatype.Bytes(rs), extent))
	spec := func(step, rank int) colltest.StepSpec {
		buf := make([]byte, rs*regions)
		for i := range buf {
			buf[i] = byte(rank + i)
		}
		return colltest.StepSpec{
			Filetype: ft,
			Disp:     int64(rank) * blockSize,
			Memtype:  datatype.Bytes(rs),
			Count:    regions,
			Buf:      buf,
		}
	}
	res, err := colltest.WriteSpec(mpi.NewWorld(ranks, cfg), mpiio.Info{Collective: core.New(o)}, 1, spec)
	if err != nil {
		log.Fatal(err)
	}
	total := int64(ranks) * regions * rs
	return res.BandwidthMBs(total)
}

func main() {
	cfg := sim.DefaultConfig()
	extents := []int64{1 << 10, 4 << 10, 8 << 10, 16 << 10, 32 << 10, 64 << 10}

	fmt.Printf("conditional data sieving: %d ranks, %d MB file, regions at 50%% of extent\n\n",
		ranks, fileSize>>20)
	fmt.Printf("%-12s %12s %12s %12s   %s\n", "extent", "datasieve", "naive", "conditional", "winner")

	var crossover int64 = -1
	for _, ext := range extents {
		ds := run(cfg, ext, core.Options{Method: mpiio.DataSieve})
		nv := run(cfg, ext, core.Options{Method: mpiio.Naive})
		cond := run(cfg, ext, core.Options{Conditional: true})
		winner := "datasieve"
		if nv > ds {
			winner = "naive"
			if crossover < 0 {
				crossover = ext
			}
		}
		fmt.Printf("%-12s %12.2f %12.2f %12.2f   %s\n",
			fmt.Sprintf("%dKB", ext>>10), ds, nv, cond, winner)
	}
	if crossover > 0 {
		fmt.Printf("\nempirical crossover at ~%dKB extent; the Conditional engine option picks\n", crossover>>10)
		fmt.Println("the method per collective call with a threshold hint, so applications need")
		fmt.Println("not know where the crossover falls on a given system (paper §6.3).")
	}
}
