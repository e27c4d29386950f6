package chaos

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"strings"
	"sync"
	"testing"

	"flexio/internal/metrics"
	"flexio/internal/mpiio"
)

var recordMatrix = flag.Bool("record-matrix", false,
	"rewrite testdata/matrix.golden from this run (only for a change that is meant to move a cell's outcome, or adds cells)")

const goldenPath = "testdata/matrix.golden"

// firstRuns holds each cell's first run in this test binary, so the tests
// that look at one run from different sides (invariants, golden line, the
// first half of a determinism pair) share it instead of repeating it.
var firstRuns sync.Map

type ran struct {
	once sync.Once
	out  *Outcome
	err  error
}

func firstRun(c Scenario) (*Outcome, error) {
	v, _ := firstRuns.LoadOrStore(c.Name(), &ran{})
	r := v.(*ran)
	r.once.Do(func() { r.out, r.err = c.Run() })
	return r.out, r.err
}

// eachCellOf runs fn as a parallel subtest per cell of the family (the quick
// subset in short mode).
func eachCellOf(t *testing.T, family string, fn func(t *testing.T, c Scenario)) {
	cells := Matrix()
	if testing.Short() {
		cells = Quick(cells)
	}
	for _, c := range cells {
		c := c
		if c.Family() != family {
			continue
		}
		t.Run(c.Name(), func(t *testing.T) {
			t.Parallel()
			fn(t, c)
		})
	}
}

// eachCell is eachCellOf under one subtest per family; it returns once every
// cell is done.
func eachCell(t *testing.T, fn func(t *testing.T, c Scenario)) {
	for _, fam := range Families {
		fam := fam
		t.Run(fam, func(t *testing.T) { eachCellOf(t, fam, fn) })
	}
}

func readGolden(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		name, _, _ := strings.Cut(line, " ")
		lines[name] = line
	}
	return lines
}

// TestMatrix runs every cell of the one table and compares its golden line
// — name, seed, agreed class, dead set and every counter a soak prints —
// with testdata/matrix.golden. The first 147 lines' worth of cells were
// recorded from the four separate harnesses at the commit before they
// became one (see CHANGES.md, PR 20), so passing is equivalence with them.
// A violating cell exports its artifacts to $CHAOS_TRACE_DIR when set, so
// CI can attach them.
func TestMatrix(t *testing.T) {
	golden := readGolden(t)
	var mu sync.Mutex
	lines := map[string]string{}
	eachCell(t, func(t *testing.T, c Scenario) {
		out, err := firstRun(c)
		if err != nil {
			if a, aerr := newArtifacts(os.Getenv("CHAOS_TRACE_DIR"), t.Logf); aerr == nil && out != nil {
				a.export(c, out, true)
			}
			t.Fatal(err)
		}
		mu.Lock()
		lines[c.Name()] = out.Line()
		mu.Unlock()
		if *recordMatrix {
			return
		}
		if want, ok := golden[c.Name()]; !ok {
			t.Errorf("no golden line; got\n%s", out.Line())
		} else if out.Line() != want {
			t.Errorf("golden line moved:\n got %s\nwant %s", out.Line(), want)
		}
	})

	names := map[string]bool{}
	var all strings.Builder
	for _, c := range Matrix() {
		if names[c.Name()] {
			t.Errorf("duplicate cell name %q", c.Name())
		}
		names[c.Name()] = true
		all.WriteString(lines[c.Name()] + "\n")
	}
	if *recordMatrix {
		if len(lines) != len(names) {
			t.Fatalf("-record-matrix needs the whole table: ran %d of %d cells", len(lines), len(names))
		}
		if err := os.WriteFile(goldenPath, []byte(all.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	for name := range golden {
		if !names[name] {
			t.Errorf("golden line for %q, which is no longer a cell", name)
		}
	}
}

// The three families under the names they had as separate harnesses: every
// cell holds its invariants.
func TestChaosMatrix(t *testing.T)     { holdsInvariants(t, "storage") }
func TestRankChaosMatrix(t *testing.T) { holdsInvariants(t, "rank") }
func TestCorruptMatrix(t *testing.T)   { holdsInvariants(t, "corrupt") }

func holdsInvariants(t *testing.T, family string) {
	eachCellOf(t, family, func(t *testing.T, c Scenario) {
		if _, err := firstRun(c); err != nil {
			t.Fatalf("invariant violated: %v", err)
		}
	})
}

// canonical renders what must be byte-identical between two runs of a cell:
// its golden line, its flight dump and its comm matrix.
func canonical(t *testing.T, out *Outcome) map[string][]byte {
	t.Helper()
	var flight, comm bytes.Buffer
	if err := out.Recording.WriteFlight(&flight); err != nil {
		t.Fatal(err)
	}
	if err := out.Recording.WriteComm(&comm); err != nil {
		t.Fatal(err)
	}
	return map[string][]byte{"line": []byte(out.Line()), ".flight.json": flight.Bytes(), ".comm.json": comm.Bytes()}
}

// sameRun asserts two runs of one cell are indistinguishable in everything
// canonical, and that the flight dump tells the story the class implies: a
// storage or integrity abort leaves its context (whichever agreement raised
// it, the ones before round 0 included), a recovery its failover event.
func sameRun(t *testing.T, a, b *Outcome) {
	t.Helper()
	fa, fb := canonical(t, a), canonical(t, b)
	for name, x := range fa {
		if !bytes.Equal(x, fb[name]) {
			t.Errorf("%s differs between identical runs:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", name, x, fb[name])
		}
	}
	if a.Class == mpiio.ClassOK {
		return
	}
	var d metrics.Dump
	if err := json.Unmarshal(fa[".flight.json"], &d); err != nil {
		t.Fatalf("flight dump does not parse: %v", err)
	}
	switch a.Class {
	case mpiio.ClassIO, mpiio.ClassTransient, mpiio.ClassIntegrity:
		if d.Abort == nil {
			t.Error("dump of an aborted cell carries no abort context")
		}
	case mpiio.ClassUnresponsive:
		if d.Failover == nil {
			t.Error("dump of a recovered cell carries no failover event")
		} else if len(d.Failover.DeadRanks) == 0 {
			t.Error("failover event names no dead ranks")
		}
	}
}

// TestMatrixDeterministic: every cell, run twice, yields the same golden
// line and byte-identical canonical flight dumps and comm matrices — the
// whole fault-detect-recover cycle reproduces, which is what lets a CI
// artifact be diffed against a local reproduction. (Virtual time is not
// compared: lock-revoke arrival order can wobble it within a round.)
func TestMatrixDeterministic(t *testing.T) {
	eachCell(t, func(t *testing.T, c Scenario) {
		a, err := firstRun(c)
		if err != nil {
			t.Fatal(err)
		}
		b, err := c.Run()
		if err != nil {
			t.Fatal(err)
		}
		sameRun(t, a, b)
	})
}

// TestRankChaosDeterministic is the same property off the table: the
// fault-detect-revive-resume cycle reproduces under seeds no row uses.
func TestRankChaosDeterministic(t *testing.T) {
	for _, s := range []Scenario{
		{Engine: "core-nb", Write: true, Rank: RankCrashMid, Victim: 1, Seed: 31},
		{Engine: "core-a2a", Write: true, Rank: RankStraggler, Victim: 2, Seed: 32},
		{Engine: "twophase", Write: true, Rank: RankCrashMid, Victim: 3, CbNodes: 2, Seed: 33},
		{Engine: "core-nb", Write: true, Rank: RankDropStorm, Victim: 1, Seed: 34},
	} {
		s := s
		t.Run(s.Name(), func(t *testing.T) {
			t.Parallel()
			a, err := s.Run()
			if err != nil {
				t.Fatal(err)
			}
			b, err := s.Run()
			if err != nil {
				t.Fatal(err)
			}
			sameRun(t, a, b)
		})
	}
}

// TestSpecRoundTrip: every scenario of the table prints a spec that parses
// back to itself.
func TestSpecRoundTrip(t *testing.T) {
	for _, s := range Matrix() {
		got, err := ParseSpec(s.Spec())
		if err != nil {
			t.Errorf("%s: spec %q does not parse: %v", s.Name(), s.Spec(), err)
		} else if got != s {
			t.Errorf("%s: spec %q parsed to %+v, want %+v", s.Name(), s.Spec(), got, s)
		}
	}
}

// TestQuick: the short-mode subset keeps every family and every fault.
func TestQuick(t *testing.T) {
	all, quick := map[string]bool{}, map[string]bool{}
	for _, c := range Matrix() {
		all[c.Family()+"/"+c.Fault()] = true
	}
	for _, c := range Quick(Matrix()) {
		key := c.Family() + "/" + c.Fault()
		if quick[key] {
			t.Errorf("Quick kept two cells for %s", key)
		}
		quick[key] = true
	}
	if len(quick) != len(all) {
		t.Errorf("Quick covers %d of %d family/fault pairs", len(quick), len(all))
	}
}

// TestSelect pins what -chaos accepts.
func TestSelect(t *testing.T) {
	count := func(what string) int {
		t.Helper()
		cells, err := Select(what)
		if err != nil {
			t.Fatalf("Select(%q): %v", what, err)
		}
		return len(cells)
	}
	total := 0
	for _, fam := range Families {
		n := count(fam)
		if n == 0 {
			t.Errorf("family %s is empty", fam)
		}
		total += n
	}
	if all := count("all"); all != total || all != len(Matrix()) {
		t.Errorf("all selects %d cells, the families %d, the matrix has %d", all, total, len(Matrix()))
	}
	if n := count("^twophase-.*-giveup$"); n != 2 {
		t.Errorf("regexp selected %d cells, want the 2 twophase giveup cells", n)
	}
	cells, err := Select("core-blk,read,atrest:abort,seed=7")
	if err != nil {
		t.Fatal(err)
	}
	want := Scenario{Engine: "core-blk", Corrupt: CorruptAtRest, Seed: 7}
	if len(cells) != 1 || cells[0] != want {
		t.Errorf("spec selected %+v, want %+v", cells, want)
	}
	if _, err := Select("core-nb,crash-mid-rounds:9"); err == nil || !strings.Contains(err.Error(), "victim 9") {
		t.Errorf("bad spec: got %v, want an error naming the victim", err)
	}
	// Not a family, not a cell name, not a spec: refused, naming the families.
	if _, err := Select("tenant"); err == nil || !strings.Contains(err.Error(), "[storage rank corrupt]") {
		t.Errorf("tenant: got %v, want a refusal naming the three families", err)
	}
}
