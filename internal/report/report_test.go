package report

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"flexio/internal/colltest"
	"flexio/internal/core"
	"flexio/internal/critpath"
	"flexio/internal/hpio"
	"flexio/internal/mpi"
	"flexio/internal/mpiio"
	"flexio/internal/pfs"
	"flexio/internal/sim"
)

// detPattern is a small read workload: reads are bit-deterministic in
// virtual time, which is what the determinism property needs.
var detPattern = hpio.Pattern{
	Ranks:       4,
	RegionSize:  256,
	RegionCount: 32,
	Spacing:     128,
}

// detSession opens a traced, metered read session of detPattern on the
// core engine.
func detSession(t *testing.T) (*mpi.World, *pfs.FileSystem, *colltest.Session) {
	t.Helper()
	cfg := sim.DefaultConfig()
	w, fs := mpi.NewWorld(detPattern.Ranks, cfg), pfs.NewFileSystem(cfg)
	w.SetNodeMap(mpi.BlockNodeMap(2))
	w.EnableTracing(0)
	w.EnableMetrics()
	info := mpiio.Info{Collective: core.New(core.Options{}), CbNodes: 2, CollBufSize: 32 << 10}
	s, err := colltest.NewSession(w, fs, detPattern, info, false)
	if err != nil {
		t.Fatal(err)
	}
	return w, fs, s
}

func TestDeltaRanking(t *testing.T) {
	a := Delta{Name: "a", Old: 100, New: 110} // +10%
	b := Delta{Name: "b", Old: 100, New: 150} // +50%
	c := Delta{Name: "c", Old: 0, New: 1}     // fresh appearance: +Inf
	if !deltaLess(b, a) || deltaLess(a, b) {
		t.Fatal("bigger relative movement must rank first")
	}
	if !deltaLess(c, b) {
		t.Fatal("fresh appearance must outrank finite movement")
	}
	if !math.IsInf(c.Rel(), 1) {
		t.Fatalf("Rel of fresh appearance = %v, want +Inf", c.Rel())
	}
	if (Delta{}).Rel() != 0 {
		t.Fatal("zero-over-zero must be 0, not NaN")
	}
	// Equal relative movement: absolute breaks the tie, then name.
	d1 := Delta{Name: "x", Old: 10, New: 20}
	d2 := Delta{Name: "y", Old: 100, New: 200}
	if !deltaLess(d2, d1) {
		t.Fatal("equal relative movement must fall back to absolute")
	}
}

func TestDiffFromProm(t *testing.T) {
	old := &Source{Label: "before", Prom: map[string]float64{
		`flexio_phase_seconds_sum{phase="io"}`:           1.0,
		`flexio_phase_seconds_sum{phase="comm"}`:         0.5,
		`flexio_io_bytes_total{rank="0"}`:                1000,
		`flexio_shuffle_internode_bytes_total{rank="0"}`: 600,
		`flexio_critpath_seconds{rank="0"}`:              0.2,
		`flexio_critpath_seconds{rank="1"}`:              0.1,
	}}
	new := &Source{Label: "after", Prom: map[string]float64{
		`flexio_phase_seconds_sum{phase="io"}`:           2.0,
		`flexio_phase_seconds_sum{phase="comm"}`:         0.5,
		`flexio_io_bytes_total{rank="0"}`:                1000,
		`flexio_shuffle_internode_bytes_total{rank="0"}`: 900,
		`flexio_critpath_seconds{rank="0"}`:              0.1,
		`flexio_critpath_seconds{rank="1"}`:              0.4,
	}}
	rep := Diff(old, new)
	if rep.OldLabel != "before" || rep.NewLabel != "after" {
		t.Fatalf("labels = %q -> %q", rep.OldLabel, rep.NewLabel)
	}
	if len(rep.Phases) != 2 || rep.Phases[0].Name != "io" {
		t.Fatalf("phases = %+v, want io ranked first", rep.Phases)
	}
	if rep.InterNodeBytes == nil || rep.InterNodeBytes.Abs() != 300 {
		t.Fatalf("internode headline = %+v, want +300", rep.InterNodeBytes)
	}
	// Unchanged counters are dropped from the ranked list.
	for _, d := range rep.Counters {
		if d.Name == "io_bytes" {
			t.Fatal("unchanged counter survived into the report")
		}
	}
	// Per-rank critpath shifts: r1 tripled, ranks first.
	if len(rep.RankCritSec) != 2 || rep.RankCritSec[0].Name != "r1" {
		t.Fatalf("rank critpath = %+v, want r1 first", rep.RankCritSec)
	}
	if top := rep.Top(); !strings.Contains(top, "phase io") {
		t.Fatalf("Top = %q, want the io phase headline", top)
	}
	// Identical sources yield an empty report.
	if empty := Diff(old, old); len(empty.Phases) != 2 || empty.Phases[0].Abs() != 0 {
		// phases list keeps entries but with zero deltas
		t.Fatalf("self-diff phases = %+v", empty.Phases)
	}
	if got := Diff(old, old).Top(); got != "no differences" {
		t.Fatalf("self-diff Top = %q", got)
	}
}

func TestLoadFileSniffing(t *testing.T) {
	dir := t.TempDir()

	other := filepath.Join(dir, "other.json")
	os.WriteFile(other, []byte(`{"results":{"after":[{"name":"a","virt_sec_per_op":2}]}}`), 0o644)
	if _, err := LoadFile(other); err == nil || !strings.Contains(err.Error(), "unrecognized JSON artifact") {
		t.Fatalf("JSON without the flight-dump schema must be refused, got %v", err)
	}

	prom := filepath.Join(dir, "scrape.prom")
	os.WriteFile(prom, []byte("# TYPE flexio_io_bytes_total counter\nflexio_io_bytes_total{rank=\"0\"} 7\n"), 0o644)
	src, err := LoadFile(prom)
	if err != nil {
		t.Fatal(err)
	}
	if src.Label != "scrape.prom" || src.Prom[`flexio_io_bytes_total{rank="0"}`] != 7 {
		t.Fatalf("prom source = %+v", src)
	}

	dump := filepath.Join(dir, "flight.json")
	os.WriteFile(dump, []byte(`{"schema":"flexio-flight-v1","ranks":2,"naggs":1,"stripe_size":65536,"rounds":[]}`), 0o644)
	src, err = LoadFile(dump + "#run1")
	if err != nil {
		t.Fatal(err)
	}
	if src.Label != "run1" || src.Dump == nil || src.Dump.Ranks != 2 {
		t.Fatalf("dump source = %+v", src)
	}

	if _, err := LoadFile(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing file must error")
	}
}

// TestReportDeterministic is the acceptance property: diffing two
// independently built but identically configured runs yields
// byte-identical text and JSON on every render. Read sessions are
// bit-deterministic in virtual time, so the report must be too.
func TestReportDeterministic(t *testing.T) {
	build := func() *Source {
		w, fs, s := detSession(t)
		// Drop the seeding and warm-up phases from the telemetry: only the
		// steady-state reads are bit-deterministic in virtual time.
		w.ResetClocks()
		fs.ResetTimingKeepLocks()
		for i := 0; i < 3; i++ {
			if err := s.Step(); err != nil {
				t.Fatal(err)
			}
		}
		critpath.Analyze(w.TraceSink()).Note(w.MetricsSet())
		src, err := FromSet("run", w.MetricsSet())
		if err != nil {
			t.Fatal(err)
		}
		return src
	}
	oldA, newA := build(), build()
	oldB, newB := build(), build()

	repA, repB := Diff(oldA, newA), Diff(oldB, newB)
	if repA.Format() != repB.Format() {
		t.Fatalf("report text differs across identical run pairs:\n--- A ---\n%s\n--- B ---\n%s",
			repA.Format(), repB.Format())
	}
	var ja, jb bytes.Buffer
	if err := repA.WriteJSON(&ja); err != nil {
		t.Fatal(err)
	}
	if err := repB.WriteJSON(&jb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ja.Bytes(), jb.Bytes()) {
		t.Fatal("report JSON differs across identical run pairs")
	}
	// And re-rendering the same report is stable.
	if repA.Format() != repA.Format() {
		t.Fatal("Format not stable across renders")
	}
}

// TestDiffDumpsCritPath checks the full-dump path: critpath summaries and
// round structure flow into the report.
func TestDiffDumpsCritPath(t *testing.T) {
	w, _, s := detSession(t)
	if err := s.Step(); err != nil {
		t.Fatal(err)
	}
	critpath.Analyze(w.TraceSink()).Note(w.MetricsSet())
	src, err := FromSet("run", w.MetricsSet())
	if err != nil {
		t.Fatal(err)
	}
	if src.Dump == nil || src.Dump.CritPath == nil {
		t.Fatal("full dump missing critpath summary")
	}
	r := Diff(src, src)
	if r.CritPath == nil {
		t.Fatal("diff of full dumps lost the critpath section")
	}
	if r.CritPath.Shifted() {
		t.Fatal("self-diff claims the hotspot moved")
	}
	if r.Rounds == nil || r.Rounds.Old != r.Rounds.New {
		t.Fatalf("rounds delta = %+v", r.Rounds)
	}
}

// FuzzLoadFile: whatever a file holds, loading it fails or yields a source
// of exactly one kind, labelled, that a report can be built from and
// rendered without a panic (the loader feeds Diff unchecked).
func FuzzLoadFile(f *testing.F) {
	f.Add([]byte(`{"results":{"before":[{"name":"a","virt_sec_per_op":1}],"after":[{"name":"a","virt_sec_per_op":2}]}}`), "before")
	f.Add([]byte(`{"results":{"after":[]}}`), "")
	f.Add([]byte(`{"results":{"before":[]}}`), "nope")
	f.Add([]byte("# TYPE flexio_io_bytes_total counter\nflexio_io_bytes_total{rank=\"0\"} 7\n"), "")
	f.Add([]byte(`{"schema":"flexio-flight-v1","ranks":2,"naggs":1,"stripe_size":65536,"rounds":[]}`), "run1")
	f.Add([]byte(`{"schema":"flexio-flight-v1","ranks":2,"naggs":1,"rounds":[{"round":0,"aggs":[{"rank":0,"recv_bytes":5}],"imbalance":1}],"failover":{"dead_ranks":[1],"realms":2}}`), "")
	f.Add([]byte(`{"schema":"other"}`), "")
	f.Add([]byte(`{"results":`), "")
	f.Add([]byte("  \n"), "")
	f.Fuzz(func(t *testing.T, data []byte, label string) {
		if strings.ContainsAny(label, "#/\x00") {
			return // the label is not what is fuzzed: keep the spec one path and one label
		}
		path := filepath.Join(t.TempDir(), "artifact")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		spec := path
		if label != "" {
			spec += "#" + label
		}
		src, err := LoadFile(spec)
		if err != nil {
			return
		}
		kinds := 0
		for _, is := range []bool{src.Dump != nil, src.Prom != nil} {
			if is {
				kinds++
			}
		}
		if kinds != 1 || src.Label == "" {
			t.Fatalf("loaded source %+v: want one kind and a label", src)
		}
		rep := Diff(src, src)
		if text := rep.Format(); !strings.Contains(text, "differential run report") {
			t.Fatalf("report of a loaded source against itself:\n%s", text)
		}
	})
}
