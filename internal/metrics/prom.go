package metrics

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"flexio/internal/bufpool"
)

// promPrefix namespaces every exposed metric.
const promPrefix = "flexio_"

// WriteProm writes the Set in Prometheus text exposition format (version
// 0.0.4): counters per rank as <name>_total{rank="r"}, gauges per rank,
// histograms merged across ranks (cumulative le buckets over the non-empty
// log-bucket edges plus +Inf, then _sum and _count), and the process-wide
// buffer-pool counters. Output order is fixed, so the exposition of a
// deterministic run is itself deterministic.
func (s *Set) WriteProm(w io.Writer) error {
	bw := bufio.NewWriter(w)

	// Counters.
	for c := Counter(0); c < numCounters; c++ {
		if counterMeta[c].name == "" {
			continue
		}
		name := promPrefix + counterMeta[c].name + "_total"
		any := false
		for r := 0; r < s.Ranks(); r++ {
			if s.Registry(r).Counter(c) != 0 {
				any = true
				break
			}
		}
		if !any {
			continue
		}
		fmt.Fprintf(bw, "# HELP %s %s\n", name, counterMeta[c].help)
		fmt.Fprintf(bw, "# TYPE %s counter\n", name)
		for r := 0; r < s.Ranks(); r++ {
			fmt.Fprintf(bw, "%s{rank=\"%d\"} %d\n", name, r, s.Registry(r).Counter(c))
		}
	}

	// Gauges.
	for g := Gauge(0); g < numGauges; g++ {
		name := promPrefix + gaugeMeta[g].name
		any := false
		for r := 0; r < s.Ranks(); r++ {
			if s.Registry(r).Gauge(g) != 0 {
				any = true
				break
			}
		}
		if !any {
			continue
		}
		fmt.Fprintf(bw, "# HELP %s %s\n", name, gaugeMeta[g].help)
		fmt.Fprintf(bw, "# TYPE %s gauge\n", name)
		for r := 0; r < s.Ranks(); r++ {
			fmt.Fprintf(bw, "%s{rank=\"%d\"} %s\n", name, r, formatProm(s.Registry(r).Gauge(g)))
		}
	}

	writePromHists(bw, s.Merged())
	writePromBufpool(bw)
	return bw.Flush()
}

// writePromHists emits the merged histogram section: the per-phase family
// under one HELP/TYPE header with a phase label per member, then the
// per-round byte histograms, each with cumulative le buckets, +Inf, _sum
// and _count. Shared by the per-rank and per-node (rollup) expositions —
// histograms always merge across ranks, so the section is identical in
// both.
func writePromHists(bw *bufio.Writer, merged *Registry) {
	familyDone := false // the per-phase family shares one HELP/TYPE header
	for h := Hist(0); h < numHists; h++ {
		hist := merged.Hist(h)
		if hist.Count() == 0 {
			continue
		}
		family := h < Hist(numPhases)
		name, help, label := promPrefix+histMeta[h].name, histMeta[h].help, ""
		if family {
			name, help, label = promPrefix+"phase_seconds", "virtual seconds per phase charge", "phase=\""+Phase(h).String()+"\","
		}
		if !family || !familyDone {
			fmt.Fprintf(bw, "# HELP %s %s\n", name, help)
			fmt.Fprintf(bw, "# TYPE %s histogram\n", name)
		}
		familyDone = familyDone || family
		cum := int64(0)
		hist.Buckets(func(upper float64, count int64) {
			cum += count
			fmt.Fprintf(bw, "%s_bucket{%sle=\"%s\"} %d\n", name, label, formatProm(upper), cum)
		})
		fmt.Fprintf(bw, "%s_bucket{%sle=\"+Inf\"} %d\n", name, label, hist.Count())
		if label != "" {
			label = strings.TrimSuffix(label, ",")
			fmt.Fprintf(bw, "%s_sum{%s} %s\n", name, label, formatProm(hist.Sum()))
			fmt.Fprintf(bw, "%s_count{%s} %d\n", name, label, hist.Count())
		} else {
			fmt.Fprintf(bw, "%s_sum %s\n", name, formatProm(hist.Sum()))
			fmt.Fprintf(bw, "%s_count %d\n", name, hist.Count())
		}
	}
}

// writePromBufpool emits the process-global buffer-pool counters (the
// pools are shared by all simulated ranks, so they carry no rank or node
// label).
func writePromBufpool(bw *bufio.Writer) {
	pc := bufpool.Snapshot()
	pool := []struct {
		name string
		help string
		v    int64
	}{
		{"bufpool_gets", "buffers handed out by the shared pools (process-wide)", pc.Gets},
		{"bufpool_puts", "buffers returned to the shared pools (process-wide)", pc.Puts},
		{"bufpool_news", "buffers newly allocated by the shared pools (process-wide)", pc.News},
		{"bufpool_drops", "oversized buffers dropped instead of pooled (process-wide)", pc.Drops},
	}
	for _, p := range pool {
		name := promPrefix + p.name + "_total"
		fmt.Fprintf(bw, "# HELP %s %s\n", name, p.help)
		fmt.Fprintf(bw, "# TYPE %s counter\n", name)
		fmt.Fprintf(bw, "%s %d\n", name, p.v)
	}
}

// formatProm renders a float the way Prometheus clients do: shortest
// round-trip representation.
func formatProm(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// ParseProm is a strict-enough parser for the exposition format WriteProm
// emits: it validates HELP/TYPE/sample structure and returns series
// (name{labels}) -> value. Used by the round-trip test and report's
// file input path.
func ParseProm(r io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	types := map[string]string{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(line)
			if len(fields) != 4 {
				return nil, fmt.Errorf("metrics: line %d: malformed TYPE: %q", lineNo, line)
			}
			switch fields[3] {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				return nil, fmt.Errorf("metrics: line %d: unknown metric type %q", lineNo, fields[3])
			}
			types[fields[2]] = fields[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		// Sample: name[{labels}] value
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("metrics: line %d: malformed sample: %q", lineNo, line)
		}
		series := strings.TrimSpace(line[:sp])
		valStr := line[sp+1:]
		v, err := strconv.ParseFloat(valStr, 64)
		if err != nil && valStr != "+Inf" && valStr != "-Inf" && valStr != "NaN" {
			return nil, fmt.Errorf("metrics: line %d: bad value %q: %v", lineNo, valStr, err)
		}
		name := series
		if i := strings.IndexByte(series, '{'); i >= 0 {
			if !strings.HasSuffix(series, "}") {
				return nil, fmt.Errorf("metrics: line %d: unterminated labels: %q", lineNo, series)
			}
			name = series[:i]
		}
		base := name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if t, ok := types[strings.TrimSuffix(name, suf)]; ok && t == "histogram" && strings.HasSuffix(name, suf) {
				base = strings.TrimSuffix(name, suf)
			}
		}
		if _, ok := types[base]; !ok {
			return nil, fmt.Errorf("metrics: line %d: sample %q without TYPE declaration", lineNo, name)
		}
		if _, dup := out[series]; dup {
			return nil, fmt.Errorf("metrics: line %d: duplicate series %q", lineNo, series)
		}
		out[series] = v
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// PromSeriesNames returns the sorted series names of a parsed exposition —
// convenience for tests and tools.
func PromSeriesNames(m map[string]float64) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
