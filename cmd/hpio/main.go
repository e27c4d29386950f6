// Command hpio runs a single HPIO benchmark configuration through a chosen
// collective I/O implementation on the simulated cluster and reports
// bandwidth plus an MPE-style phase and counter breakdown.
//
// Example:
//
//	hpio -procs 64 -region 1024 -count 4096 -spacing 128 -aggs 16 -impl new
//	hpio -impl old -enumerate
//	hpio -procs 256 -count 256 -region 16 -aggs 16 -nodes 16 -preagg -realms node-local
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"flexio/internal/analyze"
	"flexio/internal/colltest"
	"flexio/internal/core"
	"flexio/internal/critpath"
	"flexio/internal/hpio"
	"flexio/internal/mpiio"
	"flexio/internal/realm"
	"flexio/internal/sim"
	"flexio/internal/stats"
)

func main() {
	procs := flag.Int("procs", 64, "number of MPI processes")
	region := flag.Int64("region", 1024, "region size in bytes")
	count := flag.Int64("count", 4096, "regions per process")
	spacing := flag.Int64("spacing", 128, "file spacing between regions in bytes")
	aggs := flag.Int("aggs", 0, "I/O aggregators (0 = all processes)")
	nodes := flag.Int("nodes", 0, "ranks per simulated node (0 = one rank per node)")
	preagg := flag.Bool("preagg", false, "node-local pre-aggregation (two-level exchange); needs -nodes, changes nothing else")
	impl := flag.String("impl", "new", "collective implementation: new, old, or none")
	method := flag.String("method", "datasieve", "buffer access method for the new code: datasieve, naive, listio, conditional")
	comm := flag.String("comm", "nonblocking", "data exchange for the new code: nonblocking or alltoallw")
	align := flag.Int64("align", 0, "file realm alignment in bytes (0 = off)")
	pfr := flag.Bool("pfr", false, "persistent file realms")
	realms := flag.String("realms", "even", "file realms of the new code: even, cyclic:<block bytes>, or node-local (each aggregator gets what its node's ranks access; every rank gathers every access list)")
	enumerate := flag.Bool("enumerate", false, "use an enumerated (vector) filetype instead of the succinct form")
	memContig := flag.Bool("memcontig", false, "contiguous memory layout")
	steps := flag.Int("steps", 1, "number of repeated collective writes")
	verify := flag.Bool("verify", true, "verify the file image")
	tracePath := flag.String("trace", "", "write the run's Chrome trace JSON (Perfetto-loadable) to this file")
	sampleK := flag.Int("sample", 0, "trace only the aggregators, node leaders, and this many reservoir-sampled member ranks (0 = trace every rank)")
	breakdown := flag.Bool("breakdown", false, "print the per-phase/per-round trace breakdown")
	critRun := flag.Bool("critpath", false, "print the run's critical-path profile (virtual-time causal DAG)")
	metricsOut := flag.String("metrics-out", "", "write the run's Prometheus text exposition to this file")
	analyzeRun := flag.Bool("analyze", false, "print the collective-I/O health analyzer report for the run")
	flag.Parse()

	colltest.SampleK = *sampleK

	wl := hpio.Pattern{
		Ranks:        *procs,
		RegionSize:   *region,
		RegionCount:  *count,
		Spacing:      *spacing,
		MemNoncontig: !*memContig,
		MemGap:       *spacing,
		Enumerate:    *enumerate,
		NodeRanks:    *nodes,
	}
	if err := wl.Validate(); err != nil {
		log.Fatal(err)
	}

	var coll mpiio.Collective
	switch *impl {
	case "old":
		coll = core.ROMIO(core.Options{Preagg: *preagg})
	case "none":
		coll = nil
	case "new":
		o := core.Options{Align: *align, Persistent: *pfr}
		switch *method {
		case "datasieve":
			o.Method = mpiio.DataSieve
		case "naive":
			o.Method = mpiio.Naive
		case "listio":
			o.Method = mpiio.ListIO
		case "conditional":
			o.Conditional = true
		default:
			log.Fatalf("unknown method %q", *method)
		}
		switch *comm {
		case "nonblocking":
			o.Comm = core.Nonblocking
		case "alltoallw":
			o.Comm = core.Alltoallw
		default:
			log.Fatalf("unknown comm %q", *comm)
		}
		o.Preagg = *preagg
		switch block, isCyclic := strings.CutPrefix(*realms, "cyclic:"); {
		case *realms == "even":
		case *realms == "node-local":
			o.Assigner = realm.NodeLocal{}
		case isCyclic:
			n, err := strconv.ParseInt(block, 10, 64)
			if err != nil || n <= 0 {
				log.Fatalf("bad -realms block size %q", block)
			}
			o.Assigner = realm.Cyclic{Block: n}
		default:
			log.Fatalf("unknown realms %q", *realms)
		}
		coll = core.New(o)
	default:
		log.Fatalf("unknown impl %q", *impl)
	}

	cfg := sim.DefaultConfig()
	res, err := colltest.RunWriteSteps(cfg, wl, mpiio.Info{Collective: coll, CbNodes: *aggs}, *steps)
	if err != nil {
		log.Fatal(err)
	}
	if *verify {
		if err := colltest.VerifyImage(wl, res.Image); err != nil {
			log.Fatalf("verification failed: %v", err)
		}
	}

	total := wl.TotalBytes() * int64(*steps)
	name := "independent"
	if coll != nil {
		name = coll.Name()
	}
	fmt.Printf("%s\n", wl)
	fmt.Printf("impl=%s aggregators=%d steps=%d\n", name, *aggs, *steps)
	fmt.Printf("aggregate data: %.2f MB   elapsed (virtual): %v   bandwidth: %.2f MB/s\n",
		float64(total)/1e6, res.Elapsed, res.BandwidthMBs(total))

	agg := stats.Merge(res.World.Recorders()...)
	fmt.Println()
	fmt.Println(agg.Table())

	if *tracePath != "" {
		if err := res.Trace.WriteChromeTraceFile(*tracePath); err != nil {
			log.Fatalf("trace: %v", err)
		}
		fmt.Printf("\nwrote Chrome trace (%d events, %d ranks) to %s\n",
			res.Trace.Events(), res.Trace.Ranks(), *tracePath)
	}
	if *breakdown {
		fmt.Println()
		fmt.Println(res.Trace.Breakdown().Format(agg))
	}
	if *critRun {
		rep := critpath.Analyze(res.Trace)
		rep.Note(res.Metrics)
		fmt.Println()
		fmt.Println(rep.Format())
		if fs := analyze.TraceFindings(res.Trace, rep); len(fs) > 0 {
			fmt.Print(analyze.FormatReport(fs))
		}
	}
	if *metricsOut != "" {
		f, err := os.Create(*metricsOut)
		if err != nil {
			log.Fatalf("metrics: %v", err)
		}
		if err := res.Metrics.WriteProm(f); err != nil {
			log.Fatalf("metrics: %v", err)
		}
		if err := f.Close(); err != nil {
			log.Fatalf("metrics: %v", err)
		}
		fmt.Printf("\nwrote Prometheus exposition to %s\n", *metricsOut)
	}
	if *analyzeRun {
		fmt.Println()
		fmt.Print(analyze.FormatReport(analyze.Analyze(res.Metrics.Dump(true))))
	}
}
