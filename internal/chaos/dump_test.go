package chaos

import (
	"bytes"
	"flag"
	"os"
	"strings"
	"testing"
)

var recordDumps = flag.Bool("record-dumps", false,
	"rewrite testdata/dumps.golden from this run (only for a change that is meant to move a canonical flight dump)")

const dumpsPath = "testdata/dumps.golden"

// dumpCells are the cells whose canonical flight dumps the golden pins: one
// per corruption plane (the abort cells, whose integrity events carry
// unrepaired outcomes next to repaired ones), and the journalled crash
// resumes, one alone and one under a repairable wire plane, whose failover
// events split their rounds between replay and skip.
var dumpCells = []string{
	"core-nb-write-corrupt-wire-abort",
	"core-nb-read-corrupt-atrest-abort",
	"core-nb-write-corrupt-torn-repair",
	"core-nb-read-cb1-corrupt-atrest-ahead-abort",
	"core-nb-crash-mid-rounds-v3-cb2",
	"twophase-crash-mid-rounds-v1-corrupt-wire-repair",
}

// TestFlightDumpGolden compares the canonical dump (Set.Dump(false)) of each
// of dumpCells with testdata/dumps.golden: the integrity and failover
// events, the abort context and every round row, byte for byte.
func TestFlightDumpGolden(t *testing.T) {
	var got bytes.Buffer
	for _, name := range dumpCells {
		cells, err := Select("^" + name + "$")
		if err != nil || len(cells) != 1 {
			t.Fatalf("%s is not one cell of the matrix: %v", name, err)
		}
		out, err := cells[0].Run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got.WriteString("== " + name + "\n")
		if err := out.Recording.WriteFlight(&got); err != nil {
			t.Fatal(err)
		}
	}
	if *recordDumps {
		if err := os.WriteFile(dumpsPath, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(dumpsPath)
	if err != nil {
		t.Fatal(err)
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := range min(len(gl), len(wl)) {
		if gl[i] != wl[i] {
			t.Fatalf("line %d: got %q, want %q", i+1, gl[i], wl[i])
		}
	}
	if len(gl) != len(wl) {
		t.Fatalf("dumps have %d lines, the golden %d", len(gl), len(wl))
	}
}
