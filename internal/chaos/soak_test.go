package chaos

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func family(name string) []Scenario {
	cells, _ := Select(name)
	return cells
}

// TestRankSoakQuick drives the soak end to end over the rank family's quick
// subset, checking it reports no failure and leaves the whole recording set
// and the report for every cell (rank cells always export — the interesting
// runs are the ones that recovered).
func TestRankSoakQuick(t *testing.T) {
	dir := t.TempDir()
	cells := Quick(family("rank"))
	if n := Soak(cells, dir, t.Logf); n != 0 {
		t.Fatalf("%d failures", n)
	}
	for _, c := range cells {
		for _, suffix := range []string{".trace.json", ".flight.json", ".critpath.txt", ".comm.json", ".report.txt"} {
			if _, err := os.Stat(filepath.Join(dir, c.Name()+suffix)); err != nil {
				t.Errorf("missing artifact: %v", err)
			}
		}
	}
}

// TestSoakArtifactPolicy: a storage cell that rides its fault out leaves
// only its report, one that aborts leaves its recordings too — and the
// flight file is the canonical dump, byte for byte, so it diffs against any
// other run of the cell.
func TestSoakArtifactPolicy(t *testing.T) {
	// The directory does not exist yet: the soak creates it.
	dir := filepath.Join(t.TempDir(), "not", "yet")
	rides := Scenario{Engine: "core-nb", Write: true, Storage: FaultTransient, Seed: 7}
	aborts := Scenario{Engine: "core-nb", Write: true, Storage: FaultRound1, Seed: 42}
	if n := Soak([]Scenario{rides, aborts}, dir, t.Logf); n != 0 {
		t.Fatalf("soak reported %d failures", n)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, ent := range ents {
		got = append(got, ent.Name())
	}
	want := []string{
		aborts.Name() + ".comm.json", aborts.Name() + ".critpath.txt", aborts.Name() + ".flight.json",
		aborts.Name() + ".report.txt", aborts.Name() + ".trace.json", rides.Name() + ".report.txt",
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("artifacts:\n got %v\nwant %v", got, want)
	}

	out, err := aborts.Run()
	if err != nil {
		t.Fatal(err)
	}
	var dump bytes.Buffer
	if err := out.Recording.WriteFlight(&dump); err != nil {
		t.Fatal(err)
	}
	file, err := os.ReadFile(filepath.Join(dir, aborts.Name()+".flight.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(file, dump.Bytes()) {
		t.Error("the soak's flight file differs from the canonical dump of another run")
	}
}

// TestSoakUnwritableArtifacts: artifacts that cannot be written fail the
// soak, loudly — the cells themselves held.
func TestSoakUnwritableArtifacts(t *testing.T) {
	file := filepath.Join(t.TempDir(), "taken")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	var log strings.Builder
	logf := func(format string, args ...any) { fmt.Fprintf(&log, format+"\n", args...) }
	cells := []Scenario{{Engine: "core-nb", Write: true, Storage: FaultTransient, Seed: 7}}
	if n := Soak(cells, file, logf); n == 0 {
		t.Error("soak into a path that is a file reported no failure")
	}
	if !strings.Contains(log.String(), "FAIL: artifact directory") {
		t.Errorf("soak did not log the failure:\n%s", log.String())
	}

	// A directory that exists but refuses one file: that file is the failure.
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, cells[0].Name()+".report.txt"), 0o755); err != nil {
		t.Fatal(err)
	}
	log.Reset()
	if n := Soak(cells, dir, logf); n != 1 {
		t.Errorf("soak reported %d failures, want the 1 unwritable report", n)
	}
	if !strings.Contains(log.String(), "FAIL: artifact "+cells[0].Name()+".report.txt") {
		t.Errorf("soak did not log the unwritable artifact:\n%s", log.String())
	}
}
