// Command benchmark is flexio's one benchmark: seven named workloads, each
// a closed loop of collective calls issued one at a time by a single
// caller, measured end to end and layer by layer from outside the program.
//
//	go run . [-seed N] [-seconds S] [-quick]      every workload, interleaved
//	go run . -workload W -seed N -seconds S -trace 0|1   one workload, one JSON line
//	go run . -compare a.json b.json               apply the bounds to two result files
//
// See README.md for the workloads, the metrics and how they were sized.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

// metricValue is one reported number. Runs holds the per-repeat values the
// median was taken over (end-to-end metrics only).
type metricValue struct {
	Value float64   `json:"value"`
	Unit  string    `json:"unit"`
	Runs  []float64 `json:"runs,omitempty"`
}

// workloadResult is everything measured on one workload.
type workloadResult struct {
	OpsPerRepeat  int                    `json:"ops_per_repeat"`
	Repeats       int                    `json:"repeats"`
	Attempted     int                    `json:"attempted"`
	Failed        int                    `json:"failed"`
	OpsFailedFrac float64                `json:"ops_failed_frac"`
	EndToEnd      map[string]metricValue `json:"end_to_end,omitempty"`
	PerLayer      map[string]metricValue `json:"per_layer,omitempty"`
}

// result is the file a full run writes and -compare reads.
type result struct {
	Seed       int64                      `json:"seed"`
	Seconds    float64                    `json:"seconds"`
	Quick      bool                       `json:"quick"`
	GoMaxProcs int                        `json:"gomaxprocs"`
	GoVersion  string                     `json:"go_version"`
	Workloads  map[string]*workloadResult `json:"workloads"`
	Spans      map[string]spanTotal       `json:"span_summary"`
}

// options is what one invocation measures.
type options struct {
	seed    int64
	seconds float64
	quick   bool
	// endToEnd runs the seven untraced repeats; perLayer runs the recorder
	// read-out, the traced repeat and the isolated timings.
	endToEnd bool
	perLayer bool
}

// quickOps is the op count of a -quick repeat.
const quickOps = 20

// setupSamples is how many set-up times one end-to-end run takes per
// workload: one from every repeat, the rest from sessions set up and
// dropped. Set-up lasts milliseconds to tens of them, so a steady median
// needs more samples than there are repeats.
const setupSamples = 25

// layerRepeats is how many untraced repeats back the per-layer numbers
// when the end-to-end repeats are not run alongside.
const layerRepeats = 3

func (o options) ops(wl *workload) int {
	if o.quick {
		// Long enough to roll the file over once where the workload does.
		return max(quickOps, wl.rollEvery)
	}
	return max(4, int(math.Round(float64(wl.opsPer10s)*o.seconds/10)))
}

// measure runs the named workloads and returns their results. Repeats are
// interleaved round-robin across the workloads so that machine drift lands
// on all of them alike.
func measure(wls []*workload, o options, sp *spanLog) (map[string]*workloadResult, error) {
	type state struct {
		sh       shape
		ops      int
		untraced []*repeatResult
		traced   *repeatResult
		setups   []float64
	}
	states := make([]*state, len(wls))
	nUntraced := repeats
	if o.quick {
		nUntraced = 1
	} else if !o.endToEnd {
		nUntraced = layerRepeats
	}
	for i, wl := range wls {
		st := &state{sh: wl.shape(o.seed), ops: o.ops(wl)}
		states[i] = st
		// One throwaway session warms the heap before repeat 1.
		if _, err := runRepeat(wl, st.sh, min(st.ops, quickOps), false, sp, 0, nil); err != nil {
			return nil, err
		}
	}
	for rep := 1; rep <= nUntraced; rep++ {
		for i, wl := range wls {
			r, err := runRepeat(wl, states[i].sh, states[i].ops, false, sp, rep, nil)
			if err != nil {
				return nil, err
			}
			states[i].untraced = append(states[i].untraced, r)
			states[i].setups = append(states[i].setups, r.setupS)
		}
	}
	if o.endToEnd && !o.quick {
		for rep := nUntraced + 1; rep <= setupSamples; rep++ {
			for i, wl := range wls {
				s, err := timeSetup(wl, states[i].sh, sp, rep)
				if err != nil {
					return nil, err
				}
				states[i].setups = append(states[i].setups, s)
			}
		}
	}
	if o.perLayer {
		for i, wl := range wls {
			r, err := runRepeat(wl, states[i].sh, states[i].ops, true, sp, setupSamples+1, nil)
			if err != nil {
				return nil, err
			}
			states[i].traced = r
		}
	}

	var iso map[string]float64
	if o.perLayer {
		iso = runIsolated(o.seed, o.quick, sp)
	}
	out := make(map[string]*workloadResult, len(wls))
	for i, wl := range wls {
		st := states[i]
		res := &workloadResult{OpsPerRepeat: st.ops, Repeats: len(st.untraced)}
		perRepeat := map[string][]float64{"setup_s": st.setups}
		for _, r := range st.untraced {
			res.Attempted += len(r.opNS)
			res.Failed += r.failed
			for name, v := range r.endToEnd(st.sh.userBytes()) {
				perRepeat[name] = append(perRepeat[name], v)
			}
		}
		medians := make(map[string]float64)
		for name, runs := range perRepeat {
			medians[name] = median(runs)
		}
		if o.endToEnd {
			res.EndToEnd = make(map[string]metricValue)
			for _, d := range endToEndDefs {
				res.EndToEnd[d.name] = metricValue{medians[d.name], d.unit, perRepeat[d.name]}
			}
		}
		if o.perLayer {
			res.Attempted += len(st.traced.opNS)
			res.Failed += st.traced.failed
			values := recorderMetrics(st.untraced, st.sh.ranks(), st.sh.userBytes())
			for k, v := range tracedMetrics(st.traced, medians, st.sh.userBytes()) {
				values[k] = v
			}
			for k, v := range iso {
				values[k] = v
			}
			res.PerLayer = make(map[string]metricValue)
			for _, d := range perLayerDefs() {
				res.PerLayer[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
			}
		}
		res.OpsFailedFrac = ratio(float64(res.Failed), float64(res.Attempted))
		out[wl.name] = res
	}
	return out, nil
}

// spanCapacity bounds the spans one invocation records: per repeat one span
// per op plus set-up, verify and rollover spans.
func spanCapacity(wls []*workload, o options) int {
	n := len(isolated) + 1
	for _, wl := range wls {
		n += (repeats+2)*(o.ops(wl)+16) + 8*setupSamples
	}
	return n
}

// outDir is where result and span files go: benchmark/out when run from the
// repository root, out/ when run from the benchmark's own directory.
func outDir() string {
	if st, err := os.Stat("benchmark"); err == nil && st.IsDir() {
		return filepath.Join("benchmark", "out")
	}
	return "out"
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func printMetrics(name string, res *workloadResult) {
	fmt.Printf("\n%s  (%d repeats x %d ops, %d failed of %d)\n", name, res.Repeats, res.OpsPerRepeat, res.Failed, res.Attempted)
	for _, d := range endToEndDefs {
		if m, ok := res.EndToEnd[d.name]; ok {
			fmt.Printf("  %-34s %14.4f %s\n", d.name, m.Value, m.Unit)
		}
	}
	for _, d := range perLayerDefs() {
		if m, ok := res.PerLayer[d.name]; ok {
			fmt.Printf("  %-34s %14.4f %s\n", d.name, m.Value, m.Unit)
		}
	}
}

func run() error {
	var (
		wlName  = flag.String("workload", "", "run this workload only and print one JSON result line")
		seed    = flag.Int64("seed", 1, "seed of the payload bytes and the interleave's rank-to-slot permutation")
		seconds = flag.Float64("seconds", 10, "measuring time per workload; op counts scale with it")
		traced  = flag.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics")
		quick   = flag.Bool("quick", false, "1 repeat of about 20 ops per workload, isolated timings at one iteration")
		compare = flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
		spec    = flag.String("spec", "", "path of BENCHMARK.json (default: found from the working directory)")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare takes two result files")
		}
		return compareFiles(*spec, flag.Arg(0), flag.Arg(1))
	}
	if *seconds <= 0 {
		return fmt.Errorf("-seconds must be positive, got %v", *seconds)
	}

	procs := min(runtime.NumCPU(), 2)
	runtime.GOMAXPROCS(procs)
	o := options{seed: *seed, seconds: *seconds, quick: *quick, endToEnd: true, perLayer: true}
	wls := workloads
	if *wlName != "" {
		wl := findWorkload(*wlName)
		if wl == nil {
			return fmt.Errorf("unknown workload %q", *wlName)
		}
		wls = []*workload{wl}
		o.endToEnd, o.perLayer = *traced == 0, *traced != 0
	}

	sp := newSpanLog(spanCapacity(wls, o))
	results, err := measure(wls, o, sp)
	if err != nil {
		return err
	}
	dir := outDir()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := sp.write(filepath.Join(dir, "spans.json")); err != nil {
		return err
	}

	full := result{Seed: *seed, Seconds: *seconds, Quick: *quick, GoMaxProcs: procs,
		GoVersion: runtime.Version(), Workloads: results, Spans: sp.summary()}
	if err := writeJSON(filepath.Join(dir, "result.json"), full); err != nil {
		return err
	}
	if *wlName != "" {
		return printProtocolLine(results[*wlName], o)
	}
	fmt.Printf("flexio benchmark: seed %d, %g s per workload, GOMAXPROCS %d, %s\n", *seed, *seconds, procs, runtime.Version())
	failed := 0
	for _, wl := range wls {
		printMetrics(wl.name, results[wl.name])
		failed += results[wl.name].Failed
	}
	names := make([]string, 0, len(full.Spans))
	for name := range full.Spans {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("\nspans (%s)\n", filepath.Join(dir, "spans.json"))
	for _, name := range names {
		fmt.Printf("  %-34s %8d %12.4f s\n", name, full.Spans[name].Count, full.Spans[name].Seconds)
	}
	fmt.Printf("\nresult written to %s\n", filepath.Join(dir, "result.json"))
	if failed > 0 {
		return fmt.Errorf("%d ops failed", failed)
	}
	return nil
}

// printProtocolLine prints the one JSON object a driver reads from the
// last line of standard output.
func printProtocolLine(res *workloadResult, o options) error {
	metrics := res.EndToEnd
	if o.perLayer {
		metrics = res.PerLayer
	}
	line := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, make(map[string]metricValue, len(metrics))}
	for name, m := range metrics {
		line.Metrics[name] = metricValue{Value: m.Value, Unit: m.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}
