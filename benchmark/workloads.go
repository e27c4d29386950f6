package main

import (
	"flexio/internal/core"
	"flexio/internal/mpiio"
	"flexio/internal/sim"
	"flexio/internal/twophase"
)

// workload is one set of inputs the benchmark runs. Everything the program
// sees comes from shape(seed); the remaining fields are the open-time hints
// and the simulated cluster.
type workload struct {
	name string
	// why is the reason the workload exists; BENCHMARK.json and the README
	// carry the same line.
	why      string
	shape    func(seed int64) shape
	cbNodes  int
	cbBuffer int64 // cb_buffer_size (0 = the 4 MiB default)
	// engine builds a fresh collective implementation; every opened file
	// gets its own, as every MPI_File_open does.
	engine    func() mpiio.Collective
	sim       func() *sim.Config
	integrity bool
	read      bool
	// rollEvery closes and removes the file after this many ops and opens a
	// fresh one (0 = one file for the whole repeat).
	rollEvery int
	// opsPer10s is the number of timed ops in one repeat when the run is
	// given 10 seconds; it scales linearly with -seconds. Sized so the
	// seven repeats and their set-up fit the budget on a 2-core box at the
	// commit that added the benchmark, then frozen.
	opsPer10s int
}

// nodeRanks is the block node map every workload runs under: two
// consecutive ranks share a simulated node.
const nodeRanks = 2

func sieveShape(seed int64) shape {
	return newInterleave(seed, 8, 512, 1024, 256, 64, false)
}

func sieveEngine() mpiio.Collective {
	return core.New(core.Options{Persistent: true, Comm: core.Nonblocking, Method: mpiio.DataSieve})
}

// netBoundSim is a congested interconnect in front of flash storage: the
// network, not the servers, decides virtual time.
func netBoundSim() *sim.Config {
	c := sim.DefaultConfig()
	c.NetBandwidth = 10e6
	c.ServerBandwidth = 1e9
	c.IOCallOverhead = 20e-6
	c.SeekCost = 5e-6
	c.LockGrantCost = 5e-6
	c.LockRevokeCost = 20e-6
	c.StripeLockCost = 50e-6
	return c
}

// workloads is the benchmark's fixed list, in the order results print.
var workloads = []*workload{
	{
		name:      "sieve-write",
		why:       "pfs does the work (sieve RMW, page locks, stripe conflicts); the layout memo hits, so datatype is idle",
		shape:     sieveShape,
		cbNodes:   4,
		cbBuffer:  256 << 10,
		engine:    sieveEngine,
		opsPer10s: 260,
	},
	{
		name:      "sieve-read",
		why:       "same layers the other way: page-cache hits, no RMW or revokes, unpack for pack; a write gain that costs reads shows here",
		shape:     sieveShape,
		cbNodes:   4,
		cbBuffer:  256 << 10,
		engine:    sieveEngine,
		read:      true,
		opsPer10s: 290,
	},
	{
		name: "ckpt-write",
		why:  "Fig 7 checkpoint: a new view every op, so the memo misses and datatype, realm and core intersection do real work on cold pages",
		shape: func(seed int64) shape {
			return newCheckpoint(seed, 16, 32, 100, 256, 32)
		},
		cbNodes: 8,
		engine: func() mpiio.Collective {
			return core.New(core.Options{Persistent: true, Align: 2 << 20, Method: mpiio.DataSieve})
		},
		rollEvery: 32,
		opsPer10s: 48,
	},
	{
		name: "tiny-enum-write",
		why:  "Fig 4 small regions: 32k pieces of 16 B through an enumerated filetype, so request exchange and aggregator merge dominate",
		shape: func(seed int64) shape {
			return newInterleave(seed, 16, 16, 2048, 112, 16, true)
		},
		cbNodes:  8,
		cbBuffer: 64 << 10,
		engine: func() mpiio.Collective {
			return core.New(core.Options{Comm: core.Nonblocking})
		},
		opsPer10s: 110,
	},
	{
		name: "net-shuffle-write",
		why:  "large regions on a slow network: mpi is most of virtual time and host cost is transport copies and rendezvous",
		shape: func(seed int64) shape {
			return newInterleave(seed, 8, 32<<10, 16, 0, 0, false)
		},
		cbNodes:  4,
		cbBuffer: 1 << 20,
		engine: func() mpiio.Collective {
			return core.New(core.Options{Persistent: true, Comm: core.Alltoallw})
		},
		sim:       netBoundSim,
		opsPer10s: 850,
	},
	{
		name:      "romio-write",
		why:       "sieve-write through the ROMIO-style twophase engine, the baseline the paper compares against",
		shape:     sieveShape,
		cbNodes:   4,
		cbBuffer:  256 << 10,
		engine:    func() mpiio.Collective { return twophase.New() },
		opsPer10s: 250,
	},
	{
		name:      "integrity-write",
		why:       "sieve-write with wire and at-rest checksums armed: the only workload where integrity works; compare row by row with sieve-write",
		shape:     sieveShape,
		cbNodes:   4,
		cbBuffer:  256 << 10,
		engine:    sieveEngine,
		integrity: true,
		opsPer10s: 40,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
