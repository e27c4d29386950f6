package report

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"flexio/internal/metrics"
)

// LoadFile ingests one run's artifact by sniffing its format:
//
//   - a flight-recorder dump (JSON with the flexio-flight-v1 schema);
//   - a Prometheus exposition (the text format WriteProm emits).
//
// spec may carry a "#label" suffix naming the run in the report; the label
// defaults to the file's base name.
func LoadFile(spec string) (*Source, error) {
	path, label := spec, ""
	if i := strings.LastIndexByte(spec, '#'); i >= 0 {
		path, label = spec[:i], spec[i+1:]
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	src, err := sniff(data, label)
	if err != nil {
		return nil, fmt.Errorf("report: %s: %w", path, err)
	}
	if src.Label == "" {
		base := path
		if i := strings.LastIndexByte(base, '/'); i >= 0 {
			base = base[i+1:]
		}
		src.Label = base
	}
	return src, nil
}

func sniff(data []byte, label string) (*Source, error) {
	trimmed := bytes.TrimSpace(data)
	if len(trimmed) == 0 {
		return nil, fmt.Errorf("empty artifact")
	}
	if trimmed[0] == '{' {
		var head struct {
			Schema string `json:"schema"`
		}
		if err := json.Unmarshal(trimmed, &head); err != nil {
			return nil, fmt.Errorf("parse JSON: %w", err)
		}
		if head.Schema != metrics.DumpSchema {
			return nil, fmt.Errorf("unrecognized JSON artifact (schema %q)", head.Schema)
		}
		var d metrics.Dump
		if err := json.Unmarshal(trimmed, &d); err != nil {
			return nil, fmt.Errorf("parse flight dump: %w", err)
		}
		return &Source{Label: label, Dump: &d}, nil
	}
	prom, err := metrics.ParseProm(bytes.NewReader(trimmed))
	if err != nil {
		return nil, fmt.Errorf("parse exposition: %w", err)
	}
	return &Source{Label: label, Prom: prom}, nil
}

// FromSet captures a live metrics set as a source carrying both its full
// dump and its exposition (per-rank series), so phase histograms, per-rank
// critpath gauges, counters, and round structure all diff.
func FromSet(label string, s *metrics.Set) (*Source, error) {
	var buf bytes.Buffer
	if err := s.WriteProm(&buf); err != nil {
		return nil, err
	}
	prom, err := metrics.ParseProm(&buf)
	if err != nil {
		return nil, err
	}
	return &Source{Label: label, Dump: s.Dump(true), Prom: prom}, nil
}
