package chaos

import (
	"strings"
	"testing"

	"flexio/internal/mpiio"
	"flexio/internal/stats"
)

// TestRankChaosJournalPaths pins the two recovery modes side by side: an
// aggregator victim moves realms (fresh journal epoch, full replay) while
// a pure-client victim keeps them (same epoch, committed rounds skipped).
func TestRankChaosJournalPaths(t *testing.T) {
	agg := Scenario{Engine: "core-nb", Write: true, Rank: RankCrashMid, Victim: 1, Seed: 21}
	out, err := agg.Run()
	if err != nil {
		t.Fatal(err)
	}
	if out.PreRounds == 0 {
		t.Error("aggregator victim: nothing journalled before the crash")
	}
	if out.Skipped != 0 {
		t.Errorf("aggregator victim moved realms; resume must replay everything, skipped %d", out.Skipped)
	}
	if out.Replayed == 0 {
		t.Error("aggregator victim: resume replayed nothing")
	}

	client := Scenario{Engine: "core-nb", Write: true, Rank: RankCrashMid, Victim: 3, CbNodes: 2, Seed: 22}
	out, err = client.Run()
	if err != nil {
		t.Fatal(err)
	}
	if out.Skipped == 0 {
		t.Errorf("client victim kept realms; resume must skip the %d committed rounds", out.PreRounds)
	}
}

// TestRankChaosComposesStorageFaults pins two planes at once: the brownout
// slows storage (visible in the stats) while the crash kills the rank, and
// recovery still converges byte-identically.
func TestRankChaosComposesStorageFaults(t *testing.T) {
	s := Scenario{Engine: "core-nb", Write: true, Rank: RankCrashMid, Victim: 1, Storage: FaultBrownout, Seed: 41}
	out, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if out.Class != mpiio.ClassUnresponsive {
		t.Errorf("abort class %s, want unresponsive", mpiio.ClassName(out.Class))
	}
	if out.Stats.Counter(stats.CBrownoutServes) == 0 {
		t.Error("brownout never served a slowed request")
	}
}

// TestCorruptAbortHeals pins the full quarantine lifecycle on one
// scenario: unrepairable at-rest damage aborts with the integrity class,
// stays quarantined (never silently served), and a clean full rewrite
// through the normal datapath heals the backlog to zero.
func TestCorruptAbortHeals(t *testing.T) {
	s := Scenario{Engine: "core-nb", Write: true, Corrupt: CorruptAtRest, Seed: 77}
	out, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if out.Class != mpiio.ClassIntegrity {
		t.Fatalf("class = %s, want integrity", mpiio.ClassName(out.Class))
	}
	if !out.Healed {
		t.Fatal("clean rewrite did not heal the quarantine")
	}
	if out.AtRest.Unrepaired == 0 {
		t.Fatal("no unrepaired read recorded before the heal")
	}
}

// TestRunRejectsBadRows: a table row is validated like a spec, so a bad
// field is reported as what it is — not run under another engine, and not
// as the invariant violation the misconfigured world would produce.
func TestRunRejectsBadRows(t *testing.T) {
	ok := Scenario{Engine: "core-nb", Write: true, Rank: RankCrashMid, Victim: 1, Seed: 1}
	for _, tc := range []struct {
		name string
		edit func(*Scenario)
		want string
	}{
		{"engine", func(s *Scenario) { *s = Scenario{Engine: "romio", Write: true, Storage: FaultTransient} }, `unknown engine "romio"`},
		{"victim-negative", func(s *Scenario) { s.Victim = -1 }, "victim -1 out of range [0,4)"},
		{"victim-high", func(s *Scenario) { s.Victim = 7 }, "victim 7 out of range [0,4)"},
		{"cb-high", func(s *Scenario) { s.CbNodes = 9 }, "cb_nodes 9 out of range [0,4]"},
		{"cb-negative", func(s *Scenario) { s.CbNodes = -3 }, "cb_nodes -3 out of range [0,4]"},
		{"storage", func(s *Scenario) { s.Storage = "gremlins" }, `unknown storage fault "gremlins"`},
		{"rank", func(s *Scenario) { s.Rank = "crash-brownout" }, `unknown rank fault "crash-brownout"`},
		{"plane", func(s *Scenario) { s.Corrupt = "gamma-ray" }, `unknown corruption plane "gamma-ray"`},
		{"method", func(s *Scenario) { s.Method = mpiio.IntegratedSieve }, `unknown method "integrated"`},
		{"direction", func(s *Scenario) { s.Write = false }, "direction"},
		{"stray-victim", func(s *Scenario) { s.Rank = "" }, "victim 1 without a rank fault"},
		{"stray-budget", func(s *Scenario) { s.Repairable = true }, "repair budget without a corruption plane"},
	} {
		s := ok
		tc.edit(&s)
		out, err := s.Run()
		if out != nil || err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Run() = %v, %v; want no outcome and an error containing %q", tc.name, out, err, tc.want)
		}
	}
}

// TestSetupErrorVerbatim: when the world itself refuses the configuration
// (here past validate, so Open sees the cb_nodes it rejects), Run returns
// that error and no outcome, rather than the "no failed rank detected" the
// dropped error used to end in.
func TestSetupErrorVerbatim(t *testing.T) {
	for _, s := range []Scenario{
		{Engine: "core-nb", Write: true, Rank: RankCrashMid, Victim: 3, CbNodes: 9, Seed: 1},
		{Engine: "twophase", Write: true, Storage: FaultTransient, CbNodes: 9, Seed: 1},
		{Engine: "core-a2a", Corrupt: CorruptWire, Repairable: true, CbNodes: 9, Seed: 1},
	} {
		out, err := s.run()
		if out != nil || err == nil || err.Error() != "mpiio: cb_nodes 9 out of range [0,4]" {
			t.Errorf("%s: run() = %v, %v; want Open's error verbatim", s.Name(), out, err)
		}
	}
}
