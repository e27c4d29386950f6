package chaos

import (
	"encoding/json"
	"reflect"
	"slices"
	"strings"
	"testing"

	"flexio/internal/metrics"
	"flexio/internal/mpiio"
	"flexio/internal/trace"
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
	if out.Totals.Counter(metrics.CRoundsSkipped) != 0 {
		t.Errorf("aggregator victim moved realms; resume must replay everything, skipped %d", out.Totals.Counter(metrics.CRoundsSkipped))
	}
	if out.Totals.Counter(metrics.CRoundsReplayed) == 0 {
		t.Error("aggregator victim: resume replayed nothing")
	}

	client := Scenario{Engine: "core-nb", Write: true, Rank: RankCrashMid, Victim: 3, CbNodes: 2, Seed: 22}
	out, err = client.Run()
	if err != nil {
		t.Fatal(err)
	}
	if out.Totals.Counter(metrics.CRoundsSkipped) == 0 {
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
	if out.Totals.Counter(metrics.CBrownoutServes) == 0 {
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

// roundsAt returns, for every instant called name on the rank's trace, the
// rounds of the round spans open around it, outermost first: one round for
// work inside its own round, two for a file access a pipeline issued for the
// next round.
func roundsAt(tr *trace.Tracer, name string) [][]int64 {
	var at [][]int64
	var open []int64 // -1 for a span that is no round
	for _, e := range tr.Events() {
		switch e.Kind {
		case trace.KindBegin:
			round := int64(-1)
			for _, tg := range e.Tags {
				if e.Name == trace.RoundSpan && tg.Key == trace.RoundTag {
					round = tg.Int
				}
			}
			open = append(open, round)
		case trace.KindEnd:
			open = open[:len(open)-1]
		case trace.KindInstant:
			if e.Name == name {
				at = append(at, slices.DeleteFunc(slices.Clone(open), func(r int64) bool { return r < 0 }))
			}
		}
	}
	return at
}

// TestReadAheadCellsLandAhead pins what the read-ahead rows are for: the
// fault of each lands in a file access issued for round r+1 from inside round
// r (or, for the crash, right behind a round's last send, where that access
// would have started), not in a round's own read.
func TestReadAheadCellsLandAhead(t *testing.T) {
	for _, s := range readAheadTable() {
		t.Run(s.Name(), func(t *testing.T) {
			t.Parallel()
			out, err := firstRun(s)
			if err != nil {
				t.Fatal(err)
			}
			sink := out.Recording.Trace
			instant, want := "", [][]int64(nil)
			switch {
			case s.Storage == FaultTransientRound1:
				instant, want = "retry", [][]int64{{0, 1}, {0, 1}}
			case s.Storage == FaultPartialLast:
				instant, want = "resume", [][]int64{{2, 3}, {2, 3}}
			case s.Rank != "":
				instant, want = trace.CrashName, [][]int64{{1}}
			}
			for rank := 0; rank < s.naggs(); rank++ {
				got := roundsAt(sink.Tracer(rank), instant)
				switch {
				case s.Corrupt != "":
					// The lone aggregator read its first rounds clean.
					for _, rounds := range roundsAt(sink.Tracer(rank), "integrity_mismatch") {
						if len(rounds) != 2 || rounds[1] != rounds[0]+1 {
							t.Errorf("at-rest damage met in rounds %v, want a read-ahead", rounds)
						}
						got = append(got, rounds)
					}
					if len(got) == 0 {
						t.Error("the aggregator met no at-rest damage")
					}
				case s.Rank != "" && rank != s.Victim:
				case !reflect.DeepEqual(got, want):
					t.Errorf("rank %d: %s in rounds %v, want %v", rank, instant, got, want)
				}
			}
			if s.Rank != "" {
				// The victim died with its last send of the round behind it.
				evs := sink.Tracer(s.Victim).Events()
				k := slices.IndexFunc(evs, func(e trace.Event) bool { return e.Name == trace.CrashName })
				if k < 1 || evs[k-1].Name != trace.MsgSendName {
					t.Errorf("the event before the crash is not a send")
				}
			}
			if s.Corrupt != "" && !s.Repairable {
				var d metrics.Dump
				if err := json.Unmarshal(canonical(t, out)[".flight.json"], &d); err != nil {
					t.Fatal(err)
				}
				if d.Abort == nil || d.Abort.Round < 1 {
					t.Errorf("abort context %+v, want the round a read-ahead ran in", d.Abort)
				}
			}
		})
	}
}
