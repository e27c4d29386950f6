package colltest

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"flexio/internal/core"
	"flexio/internal/metrics"
	"flexio/internal/mpi"
	"flexio/internal/mpiio"
	"flexio/internal/pfs"
	"flexio/internal/sim"
	"flexio/internal/stats"
)

var recordRecorders = flag.Bool("record-recorders", false,
	"rewrite testdata/recorders_*.txt from this build (only for a change meant to move a recorded count or charge)")

// recorderRun is one run whose books TestRecorderGolden lists.
type recorderRun struct {
	res Result
	// exact marks a run whose virtual times repeat to the bit (reads,
	// Alltoallw): its phase seconds and histogram buckets are listed too.
	// Write rows wander with the order ranks reach the file system, so
	// only their counters and canonical flight dump are.
	exact bool
}

// TestRecorderGolden compares what every recording surface prints after
// five collectives with testdata/recorders_*.txt: the merged stats table,
// each rank's stats line, the per-rank and per-node Prometheus expositions
// and the canonical flight dump. The listings were written by this test,
// with -record-recorders, before the two per-rank stores became one.
func TestRecorderGolden(t *testing.T) {
	wl := Workload{Ranks: 4, RegionSize: 64, RegionCount: 32, Spacing: 64, Disp: 32, MemNoncontig: true, MemGap: 3, NodeRanks: 2}
	const cb, stripe = 1 << 10, 4096
	cfg := func() *sim.Config {
		c := sim.DefaultConfig()
		c.StripeSize = stripe
		return c
	}
	runs := map[string]func() (recorderRun, error){
		"new_write": func() (recorderRun, error) {
			res, err := Write(recorded(cfg(), wl), wl, mpiio.Info{Collective: core.New(core.Options{Validate: true}), CollBufSize: cb, CbNodes: 2}, 1)
			return recorderRun{res: res}, err
		},
		"romio_write": func() (recorderRun, error) {
			res, err := Write(recorded(cfg(), wl), wl, mpiio.Info{Collective: core.ROMIO(core.Options{}), CollBufSize: cb, CbNodes: 2}, 1)
			return recorderRun{res: res}, err
		},
		"new_read": func() (recorderRun, error) {
			res, err := readFresh(cfg(), wl, mpiio.Info{Collective: core.New(core.Options{Validate: true}), CollBufSize: cb, CbNodes: 2})
			return recorderRun{res: res, exact: true}, err
		},
		"romio_read": func() (recorderRun, error) {
			res, err := readFresh(cfg(), wl, mpiio.Info{Collective: core.ROMIO(core.Options{}), CollBufSize: cb, CbNodes: 2})
			return recorderRun{res: res, exact: true}, err
		},
		"a2a_write": func() (recorderRun, error) {
			res, err := Write(recorded(cfg(), wl), wl, mpiio.Info{
				Collective: core.New(core.Options{Comm: core.Alltoallw, Method: mpiio.DataSieve}), CollBufSize: cb, CbNodes: 2}, 1)
			return recorderRun{res: res, exact: true}, err
		},
		"storage_chaos": func() (recorderRun, error) {
			res, err := writeFaulted(cfg(), wl, mpiio.Info{
				Collective: core.New(core.Options{Comm: core.Alltoallw, Method: mpiio.DataSieve}), CollBufSize: cb, CbNodes: 2, RetryLimit: 6})
			return recorderRun{res: res, exact: true}, err
		},
	}
	for name, run := range runs {
		t.Run(name, func(t *testing.T) {
			rr, err := run()
			if err != nil {
				t.Fatal(err)
			}
			got := listRecorders(t, rr)
			path := filepath.Join("testdata", "recorders_"+name+".txt")
			if *recordRecorders {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (record with -record-recorders)", err)
			}
			if got != string(want) {
				gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
				for i := 0; i < len(gl) || i < len(wl); i++ {
					var g, w string
					if i < len(gl) {
						g = gl[i]
					}
					if i < len(wl) {
						w = wl[i]
					}
					if g != w {
						t.Fatalf("%s line %d:\n got %q\nwant %q", path, i+1, g, w)
					}
				}
			}
		})
	}
}

// listRecorders renders every recording surface of one run.
func listRecorders(t *testing.T, rr recorderRun) string {
	t.Helper()
	var b strings.Builder
	recs := rr.res.World.Recorders()
	flat := stats.Merge(recs...)
	section := func(title string) { fmt.Fprintf(&b, "-- %s\n", title) }

	section("stats table (merged)")
	b.WriteString(keepLines(flat.Table(), rr.exact, func(l string) bool {
		return !strings.HasPrefix(l, "phase times") && !strings.Contains(l, ".")
	}))
	section("stats per rank")
	for r, rec := range recs {
		s := rec.String()
		if !rr.exact {
			var keep []string
			for _, f := range strings.Fields(s) {
				if strings.HasPrefix(f, "n[") {
					keep = append(keep, f)
				}
			}
			s = strings.Join(keep, " ")
		}
		fmt.Fprintf(&b, "%d: %s\n", r, s)
	}

	// The buffer-pool counters are process-wide, so they depend on what
	// else ran in this test binary: they are left out.
	prom := func(write func(*bytes.Buffer) error) string {
		var buf bytes.Buffer
		if err := write(&buf); err != nil {
			t.Fatal(err)
		}
		return keepLines(buf.String(), rr.exact, func(l string) bool { return strings.Contains(l, "_total") }, "flexio_bufpool_")
	}
	section("prometheus (per rank)")
	met := rr.res.World.MetricsSet()
	b.WriteString(prom(func(buf *bytes.Buffer) error { return met.WriteProm(buf) }))
	section("prometheus (per node)")
	ru := metrics.NewRollup(met, metrics.NodeOfBlock(2))
	b.WriteString(prom(func(buf *bytes.Buffer) error { return ru.WriteProm(buf) }))
	section("flight (canonical)")
	var buf bytes.Buffer
	if err := met.Dump(false).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	b.WriteString(buf.String())
	return b.String()
}

// keepLines returns text's lines, newline-terminated, minus those holding
// any of the drop substrings and, unless all, those keep rejects.
func keepLines(text string, all bool, keep func(string) bool, drop ...string) string {
	var b strings.Builder
next:
	for _, l := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		for _, d := range drop {
			if strings.Contains(l, d) {
				continue next
			}
		}
		if all || keep(l) {
			b.WriteString(l)
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// recorded builds the workload's world with its trace and metrics armed.
func recorded(cfg *sim.Config, wl Workload) *mpi.World {
	w := NewWorld(cfg, wl)
	w.EnableTracing(0)
	w.EnableMetrics()
	return w
}

// readFresh writes the workload collectively, then reads it back with the
// same collective in a second world over the same file system, so the
// recorders hold the read alone.
func readFresh(cfg *sim.Config, wl Workload, info mpiio.Info) (Result, error) {
	seed, err := RunWrite(cfg, wl, info)
	if err != nil {
		return Result{}, err
	}
	fs := seed.FS
	fs.ResetTiming()
	w := recorded(cfg, wl)
	spec := Spec(wl)
	for r := range wl.Ranks {
		clear(spec(0, r).Buf)
	}
	if err := run(w, fs, info, false, 1, spec); err != nil {
		return Result{}, err
	}
	for r := range wl.Ranks {
		if !ReadMatches(wl, r, spec(0, r).Buf) {
			return Result{}, fmt.Errorf("rank %d: read-back data mismatch", r)
		}
	}
	return Result{Elapsed: w.MaxClock(), World: w, FS: fs}, nil
}

// writeFaulted is one collective write under a storage fault schedule that
// makes every client retry two transient errors (backing off each time)
// and resume two partial writes.
func writeFaulted(cfg *sim.Config, wl Workload, info mpiio.Info) (Result, error) {
	fs := pfs.NewFileSystem(cfg)
	fs.SetFaultSchedule(pfs.NewFaultSchedule(7).
		Add(pfs.Rule{Class: pfs.ClassTransient, Count: 2}).
		Add(pfs.Rule{Kind: "write", Class: pfs.ClassPartial, Frac: 0.5, Count: 2}))
	w := recorded(cfg, wl)
	if err := run(w, fs, info, true, 1, Spec(wl)); err != nil {
		return Result{}, err
	}
	if err := VerifyImage(wl, fs.Snapshot(File, wl.FileSize())); err != nil {
		return Result{}, err
	}
	return Result{Elapsed: w.MaxClock(), World: w, FS: fs}, nil
}
