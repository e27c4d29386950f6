package main

import (
	"flag"
	"fmt"
	"strconv"
	"strings"

	"flexio/internal/colltest"
	"flexio/internal/core"
	"flexio/internal/hpio"
	"flexio/internal/mpiio"
	"flexio/internal/realm"
	"flexio/internal/sim"
	"flexio/internal/stats"
)

var (
	// unusedBy names the hpio flags an implementation does not read.
	unusedBy = map[string][]string{
		"old":  {"align", "pfr", "method", "comm", "realms"},
		"none": {"align", "pfr", "method", "comm", "realms", "preagg"},
	}
	// methods are -method's values; conditional picks one per call.
	methods = map[string]mpiio.Method{"datasieve": mpiio.DataSieve, "naive": mpiio.Naive, "listio": mpiio.ListIO, "conditional": mpiio.DataSieve}
	comms   = map[string]core.CommStrategy{"nonblocking": core.Nonblocking, "alltoallw": core.Alltoallw}
)

// runHPIO runs one HPIO configuration through a collective implementation
// and reports its bandwidth and an MPE-style phase and counter table.
func runHPIO(fs *flag.FlagSet, args []string, out *output) error {
	var rec recording
	rec.flags(fs)
	procs := fs.Int("procs", 64, "number of MPI processes")
	region := fs.Int64("region", 1024, "region size in bytes")
	count := fs.Int64("count", 4096, "regions per process")
	spacing := fs.Int64("spacing", 128, "file spacing between regions in bytes")
	aggs := fs.Int("aggs", 0, "I/O aggregators (0 = all processes)")
	preagg := fs.Bool("preagg", false, "node-local pre-aggregation (two-level exchange); needs -nodes, changes nothing else")
	impl := fs.String("impl", "new", "collective implementation: new, old (the ROMIO baseline), or none (independent I/O)")
	method := fs.String("method", "datasieve", "buffer access method for the new code: datasieve, naive, listio, conditional")
	comm := fs.String("comm", "nonblocking", "data exchange for the new code: nonblocking or alltoallw")
	align := fs.Int64("align", 0, "file realm alignment in bytes (0 = off)")
	pfr := fs.Bool("pfr", false, "persistent file realms")
	realms := fs.String("realms", "even", "file realms of the new code: even, cyclic:<block bytes>, or node-local (each aggregator gets what its node's ranks access; every rank gathers every access list)")
	enumerate := fs.Bool("enumerate", false, "use an enumerated (vector) filetype instead of the succinct form")
	memContig := fs.Bool("memcontig", false, "contiguous memory layout")
	steps := fs.Int("steps", 1, "number of repeated collective writes")
	verify := fs.Bool("verify", true, "verify the file image")
	if _, err := parse(fs, args, 0, 0, "no arguments"); err != nil {
		return err
	}
	if err := refuse(fs, unusedBy[*impl], "does nothing with -impl "+*impl); err != nil {
		return err
	}

	o := core.Options{Align: *align, Persistent: *pfr, Preagg: *preagg, Conditional: *method == "conditional"}
	var ok bool
	if o.Method, ok = methods[*method]; !ok {
		return usagef("unknown -method %q", *method)
	}
	if o.Comm, ok = comms[*comm]; !ok {
		return usagef("unknown -comm %q", *comm)
	}
	switch block, isCyclic := strings.CutPrefix(*realms, "cyclic:"); {
	case *realms == "node-local":
		o.Assigner = realm.NodeLocal{}
	case isCyclic:
		n, err := strconv.ParseInt(block, 10, 64)
		if err != nil || n <= 0 {
			return usagef("bad -realms block size %q", block)
		}
		o.Assigner = realm.Cyclic{Block: n}
	case *realms != "even":
		return usagef("unknown -realms %q", *realms)
	}
	var coll mpiio.Collective
	name := "independent"
	switch *impl {
	case "new":
		coll = core.New(o)
	case "old":
		coll = core.ROMIO(core.Options{Preagg: *preagg})
	case "none":
	default:
		return usagef("unknown -impl %q", *impl)
	}
	if coll != nil {
		name = coll.Name()
	}

	wl := hpio.Pattern{Ranks: *procs, RegionSize: *region, RegionCount: *count, Spacing: *spacing,
		MemNoncontig: !*memContig, MemGap: *spacing, Enumerate: *enumerate, NodeRanks: rec.nodes}
	if err := wl.Validate(); err != nil {
		return usagef("%v", err)
	}
	colltest.SampleK = rec.sample
	res, err := colltest.RunWriteSteps(sim.DefaultConfig(), wl, mpiio.Info{Collective: coll, CbNodes: *aggs}, *steps)
	if err != nil {
		return err
	}
	if *verify {
		if err := colltest.VerifyImage(wl, res.Image); err != nil {
			return fmt.Errorf("verification failed: %w", err)
		}
	}
	total := wl.TotalBytes() * int64(*steps)
	fmt.Fprintf(out, "%s\nimpl=%s aggregators=%d steps=%d\n", wl, name, *aggs, *steps)
	fmt.Fprintf(out, "aggregate data: %.2f MB   elapsed (virtual): %v   bandwidth: %.2f MB/s\n",
		float64(total)/1e6, res.Elapsed, res.BandwidthMBs(total))
	fmt.Fprintf(out, "\n%s\n", stats.Merge(res.World.Recorders()...).Table())
	return rec.render(out, res.World, true)
}
