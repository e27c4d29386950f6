// Command pfrbench runs the persistent-file-realm time-step workload
// (paper §6.4 / Figure 7) for one configuration, reporting bandwidth and
// the lock/cache counters that explain it.
//
// Example:
//
//	pfrbench -clients 32 -pfr -align 2097152
//	pfrbench -clients 32            # baseline: no PFR, no alignment
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"flexio/internal/critpath"
	"flexio/internal/experiments"
	"flexio/internal/stats"
	"flexio/internal/trace"
)

func main() {
	clients := flag.Int("clients", 32, "number of client processes (half act as aggregators)")
	elems := flag.Int64("elems", 100, "elements per data point")
	elemSize := flag.Int64("elemsize", 32, "element size in bytes")
	points := flag.Int64("points", 2048, "number of data points")
	steps := flag.Int("steps", 32, "time steps (one collective write each)")
	pfr := flag.Bool("pfr", false, "persistent file realms")
	align := flag.Int64("align", 0, "file realm alignment in bytes (0 = off; the paper uses the 2MB stripe)")
	nodes := flag.Int("nodes", 0, "ranks per simulated node (0 = one rank per node)")
	verify := flag.Bool("verify", false, "verify the final file image")
	tracePath := flag.String("trace", "", "write the run's Chrome trace JSON (Perfetto-loadable) to this file")
	sampleK := flag.Int("sample", 0, "trace only the aggregators, node leaders, and this many reservoir-sampled member ranks (0 = trace every rank)")
	breakdown := flag.Bool("breakdown", false, "print the per-phase/per-round trace breakdown")
	critRun := flag.Bool("critpath", false, "print the run's critical-path profile (virtual-time causal DAG)")
	metricsOut := flag.String("metrics-out", "", "write the run's Prometheus text exposition to this file")
	flag.Parse()

	experiments.NodeRanks = *nodes
	experiments.SampleK = *sampleK

	if *tracePath != "" || *breakdown || *critRun {
		experiments.TraceCapacity = trace.DefaultCapacity
	}

	p := experiments.DefaultFig7()
	p.Clients = []int{*clients}
	p.ElemsPerPoint = *elems
	p.ElemSize = *elemSize
	p.Points = *points
	p.Steps = *steps
	p.Verify = *verify

	res, err := experiments.RunPFRConfig(p, *clients, *pfr, *align)
	if err != nil {
		log.Fatal(err)
	}
	total := p.Points * p.ElemsPerPoint * p.ElemSize * int64(p.Steps)
	fmt.Printf("clients=%d aggregators=%d points=%d elems=%d x %dB steps=%d pfr=%v align=%d\n",
		*clients, *clients/2, p.Points, p.ElemsPerPoint, p.ElemSize, p.Steps, *pfr, *align)
	fmt.Printf("data per step: %.2f MB   total: %.2f MB\n",
		float64(total)/float64(p.Steps)/1e6, float64(total)/1e6)
	fmt.Printf("elapsed (virtual): %v   bandwidth: %.2f MB/s\n", res.Elapsed, res.BandwidthMBs(total))

	agg := stats.Merge(res.World.Recorders()...)
	fmt.Printf("\nlock grants:      %d\n", agg.Counter(stats.CLockGrants))
	fmt.Printf("lock revocations: %d\n", agg.Counter(stats.CLockRevokes))
	fmt.Printf("stripe conflicts: %d\n", agg.Counter(stats.CStripeConflicts))
	fmt.Printf("cache hits:       %d\n", agg.Counter(stats.CCacheHits))
	fmt.Printf("cache flushes:    %d\n", agg.Counter(stats.CCacheFlushes))
	fmt.Printf("I/O calls:        %d\n", agg.Counter(stats.CIOCalls))
	fmt.Printf("bytes to storage: %.2f MB (vs %.2f MB useful)\n",
		float64(agg.Counter(stats.CBytesIO))/1e6, float64(total)/1e6)

	if *tracePath != "" {
		if err := experiments.LastTrace.WriteChromeTraceFile(*tracePath); err != nil {
			log.Fatalf("trace: %v", err)
		}
		fmt.Printf("\nwrote Chrome trace (%d events, %d ranks) to %s\n",
			experiments.LastTrace.Events(), experiments.LastTrace.Ranks(), *tracePath)
	}
	if *breakdown {
		fmt.Println()
		fmt.Println(experiments.LastTrace.Breakdown().Format(agg))
	}
	if *critRun {
		fmt.Println()
		fmt.Println(critpath.Analyze(experiments.LastTrace).Format())
	}
	if *metricsOut != "" {
		f, err := os.Create(*metricsOut)
		if err != nil {
			log.Fatalf("metrics: %v", err)
		}
		if err := res.World.MetricsSet().WriteProm(f); err != nil {
			log.Fatalf("metrics: %v", err)
		}
		if err := f.Close(); err != nil {
			log.Fatalf("metrics: %v", err)
		}
		fmt.Printf("\nwrote Prometheus exposition to %s\n", *metricsOut)
	}
}
