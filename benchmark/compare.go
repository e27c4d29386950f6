package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// benchSpec is the part of BENCHMARK.json the program reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// loadSpec reads BENCHMARK.json from path, or from the working directory or
// its parent when path is empty.
func loadSpec(path string) (*benchSpec, error) {
	candidates := []string{path}
	if path == "" {
		candidates = []string{"BENCHMARK.json", "../BENCHMARK.json"}
	}
	var data []byte
	var err error
	for _, c := range candidates {
		if data, err = os.ReadFile(c); err == nil {
			break
		}
	}
	if err != nil {
		return nil, err
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &spec, nil
}

func loadResult(path string) (*result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r result
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// quartileSpread is the distance between the first and third quartile of v
// as a share of its median, with the quartiles Python's
// statistics.quantiles(v, n=4) gives (the exclusive method).
func quartileSpread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(q float64) float64 {
		pos := q * float64(len(s)+1)
		j := int(pos)
		if j < 1 {
			return s[0]
		}
		if j >= len(s) {
			return s[len(s)-1]
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return ratio(at(0.75)-at(0.25), median(s))
}

// verdict is one row of a comparison.
type verdict struct {
	workload, metric string
	a, b             float64
	// worse is how much b is worse than a as a share of a (negative when
	// it is better); spread is the wider of the two files' quartile spreads.
	worse, spread, bound float64
	state                string // "ok", "regressed" or "unresolved"
}

// judge applies one end-to-end metric's bound to the per-repeat values of
// two runs. A change counts as a regression when the median worsened by
// more than the bound and the spread is narrow enough to tell, or when every
// repeat of b is worse than every repeat of a. When the spread is wider
// than the bound the row is unresolved, unless every repeat of b is better
// than every repeat of a.
func judge(m specMetric, a, b metricValue) verdict {
	sign := 1.0 // lower is better: worse means larger
	if m.Better == "higher" {
		sign = -1
	}
	v := verdict{metric: m.Name, a: a.Value, b: b.Value, bound: m.Bound, state: "ok"}
	v.worse = sign * ratio(b.Value-a.Value, a.Value)
	v.spread = max(quartileSpread(a.Runs), quartileSpread(b.Runs))
	allWorse := len(a.Runs) > 0 && len(b.Runs) > 0
	allBetter := allWorse
	for _, x := range a.Runs {
		for _, y := range b.Runs {
			if sign*(y-x) <= 0 {
				allWorse = false
			}
			if sign*(y-x) >= 0 {
				allBetter = false
			}
		}
	}
	switch {
	case v.worse > m.Bound && (v.spread <= m.Bound || allWorse):
		v.state = "regressed"
	case v.spread > m.Bound && !allBetter:
		v.state = "unresolved"
	}
	return v
}

// compareResults judges every workload x end-to-end metric of b against a
// and reports whether b holds: no regressed row and no failed op.
func compareResults(spec *benchSpec, a, b *result) ([]verdict, bool) {
	var rows []verdict
	holds := true
	for _, w := range spec.Workloads {
		ra, rb := a.Workloads[w.Name], b.Workloads[w.Name]
		if ra == nil || rb == nil {
			rows = append(rows, verdict{workload: w.Name, metric: "(missing)", state: "regressed"})
			holds = false
			continue
		}
		if rb.OpsFailedFrac > 0 || ra.OpsFailedFrac > 0 {
			rows = append(rows, verdict{workload: w.Name, metric: "ops_failed_frac",
				a: ra.OpsFailedFrac, b: rb.OpsFailedFrac, state: "regressed"})
			holds = false
		}
		for _, m := range spec.EndToEnd {
			v := judge(m, ra.EndToEnd[m.Name], rb.EndToEnd[m.Name])
			v.workload = w.Name
			rows = append(rows, v)
			if v.state == "regressed" {
				holds = false
			}
		}
	}
	return rows, holds
}

// compareFiles is the -compare mode; comparing two runs of one commit is
// the A/A check.
func compareFiles(specPath, pathA, pathB string) error {
	spec, err := loadSpec(specPath)
	if err != nil {
		return err
	}
	a, err := loadResult(pathA)
	if err != nil {
		return err
	}
	b, err := loadResult(pathB)
	if err != nil {
		return err
	}
	rows, holds := compareResults(spec, a, b)
	fmt.Printf("%-18s %-20s %14s %14s %9s %9s %7s  %s\n", "workload", "metric", "a", "b", "worse", "spread", "bound", "verdict")
	for _, v := range rows {
		fmt.Printf("%-18s %-20s %14.4f %14.4f %+8.2f%% %8.2f%% %6.1f%%  %s\n",
			v.workload, v.metric, v.a, v.b, 100*v.worse, 100*v.spread, 100*v.bound, v.state)
	}
	if !holds {
		return fmt.Errorf("%s does not hold against %s", pathB, pathA)
	}
	return nil
}
