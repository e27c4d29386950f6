package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// flexio runs one command line in-process and returns its exit status,
// stdout and stderr.
func flexio(args ...string) (code int, stdout, stderr string) {
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// TestUsageErrors: a command line flexio cannot run exits 2 and says why;
// where it prints the usage, the usage names every command.
func TestUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args  []string
		usage bool   // the usage is printed
		names string // stderr names this
	}{
		{nil, true, ""},
		{[]string{"nosuch"}, true, `"nosuch"`},
		{[]string{"hpio", "-nosuch"}, true, "-nosuch"},
		{[]string{"fig", "-nosuch"}, true, "-nosuch"},
		{[]string{"fig", "9"}, false, `"9"`},
		{[]string{"fig", "5", "-clients", "8"}, false, "-clients"},
		{[]string{"fig", "7", "-pfr"}, false, "-pfr"},
		{[]string{"ledger", "bench"}, true, `"ledger"`},
		{[]string{"observe"}, true, `"observe"`},
		{[]string{"hpio", "-analyze"}, true, "-analyze"},
		{[]string{"hpio", "-breakdown"}, true, "-breakdown"},
		{[]string{"chaos"}, false, "one selection"},
		{[]string{"chaos", "storage", "rank"}, false, "one selection"},
		{[]string{"chaos", "core-nb,nosuch-fault"}, false, "nosuch-fault"},
		{[]string{"report", "only-one.json"}, false, "two artifacts"},
		{[]string{"hpio", "-impl", "old", "-pfr"}, false, "-pfr"},
		{[]string{"hpio", "-impl", "none", "-preagg"}, false, "-preagg"},
		{[]string{"hpio", "-realms", "cyclic:0"}, false, "-realms"},
		{[]string{"hpio", "-realms", "node-local", "-align", "4096"}, false, "-align"},
		{[]string{"hpio", "-realms", "cyclic:4096", "-align", "4096"}, false, "-align"},
		{[]string{"hpio", "-sample", "4"}, false, "-sample"},
		{[]string{"fig", "5", "-small", "-sample", "2", "-metrics-out", "m.prom"}, false, "-sample"},
	} {
		code, out, errOut := flexio(tc.args...)
		if code != 2 || out != "" {
			t.Errorf("%q: exit %d with stdout %q, want 2 and none", tc.args, code, out)
		}
		if !strings.Contains(errOut, tc.names) {
			t.Errorf("%q: stderr does not name %s:\n%s", tc.args, tc.names, errOut)
		}
		for _, c := range commands {
			if tc.usage && !strings.Contains(errOut, "flexio "+c.name) {
				t.Errorf("%q: usage does not name %s:\n%s", tc.args, c.name, errOut)
			}
		}
	}
}

func TestHPIOVerifies(t *testing.T) {
	code, out, errOut := flexio("hpio", "-procs", "8", "-region", "256", "-count", "64", "-aggs", "4")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	for _, want := range []string{"impl=flexio(even,nonblocking) aggregators=4 steps=1", "bandwidth: ", "MB/s"} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
}

// TestFig7Cell: fig 7 -clients runs one cell of the figure and prints its
// lock and cache counters, and -critpath renders the profile after them.
func TestFig7Cell(t *testing.T) {
	code, out, errOut := flexio("fig", "7", "-clients", "8", "-steps", "2", "-points", "256", "-pfr", "-critpath")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	for _, want := range []string{"clients=8 aggregators=4 points=256 elems=100 x 32B steps=2 pfr=true align=0",
		"\nlock grants:", "\nlock revocations:", "\ncache hits:", "\ncache flushes:", "\n\n== critical path: 8 rank(s)"} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
}

// TestRecordingNeedsARun: a recording of a run that did not happen or was
// not traced is an error, not silence.
func TestRecordingNeedsARun(t *testing.T) {
	var rec recording
	rec.critpath = true
	if err := rec.render(&output{Writer: &bytes.Buffer{}}, nil); err == nil {
		t.Fatal("-critpath without a run rendered nothing and no error")
	}
}

// TestAblationRecords: an ablation's run is recorded like any figure's:
// -metrics-out and -trace write their files.
func TestAblationRecords(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct{ fig, flag, file string }{
		{"A5", "-metrics-out", "a5.prom"},
		{"A1", "-trace", "a1.json"},
	} {
		path := filepath.Join(dir, tc.file)
		if code, _, errOut := flexio("fig", tc.fig, "-small", tc.flag, path); code != 0 {
			t.Fatalf("fig %s %s: exit %d: %s", tc.fig, tc.flag, code, errOut)
		}
		if st, err := os.Stat(path); err != nil || st.Size() == 0 {
			t.Errorf("fig %s %s wrote no file: %v", tc.fig, tc.flag, err)
		}
	}
}
