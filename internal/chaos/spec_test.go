package chaos

import (
	"strings"
	"testing"

	"flexio/internal/mpiio"
)

// badSpecs are inputs ParseSpec must reject, each with the words its error
// must contain — the field at fault. The first block is what the old
// per-family parsers let through to end as a bogus invariant violation.
var badSpecs = []struct{ spec, want string }{
	{"core-nb,crash-mid-rounds:3,cb=9", "cb_nodes 9 out of range [0,4]"},
	{"core-nb,crash-mid-rounds:3,cb=-3", "cb_nodes -3 out of range [0,4]"},
	{"core-nb,crash-mid-rounds:-1", "victim -1 out of range [0,4)"},
	{"core-nb,crash-mid-rounds:7", "victim 7 out of range [0,4)"},
	{"core-nb,drop-storm:9", "victim 9 out of range [0,4)"},
	{"core-nb,crash-mid-rounds:3:9", `"crash-mid-rounds:3:9": want crash-mid-rounds[:victim]`},
	{"core-nb,crash-mid-rounds:1:2:junk", `"crash-mid-rounds:1:2:junk": want crash-mid-rounds[:victim]`},
	{"romio,write,transient", `unknown engine "romio"`},

	{"", `unknown engine ""`},
	{"core-nb,", `spec field ""`},
	{"core-nb,no-such-fault:1", `spec field "no-such-fault:1"`},
	{"core-nb,straggler:x", `"straggler:x": want straggler[:victim]`},
	{"core-nb,gamma-ray", `spec field "gamma-ray"`},
	{"core-nb,wire:often", `unknown budget "often"`},
	{"core-nb,integrated", `spec field "integrated"`},
	{"core-nb,cb=two", `spec field "cb=two"`},
	{"core-nb,seed=", `spec field "seed="`},
	{"core-nb,transient,giveup", "a second storage fault (transient is already set)"},
	{"core-nb,straggler:2,drop-storm", "a second rank fault (straggler is already set)"},
	{"core-nb,wire,torn", "a second corruption plane (wire is already set)"},
	{"core-nb,read,write", "direction given twice"},
	{"core-nb,read,straggler:2", "direction"},
	{"core-nb,write,crash-mid-read:1", "direction"},
}

// TestParseSpec pins the grammar: defaults, every kind of field, and every
// rejection with the field it names.
func TestParseSpec(t *testing.T) {
	for _, tc := range []struct {
		spec string
		want Scenario
	}{
		{"core-nb,write", Scenario{Engine: "core-nb", Write: true, Seed: 1}},
		{"twophase,read,listio,giveup,seed=-4", Scenario{Engine: "twophase", Method: mpiio.ListIO, Storage: FaultGiveup, Seed: -4}},
		{"core-a2a,sieve-hard,degraded,naive", Scenario{Engine: "core-a2a", Write: true, Method: mpiio.Naive, Degraded: true, Storage: FaultSieveHard, Seed: 1}},
		{"core-blk,seed=9,pre,cb=2,crash-mid-rounds:3,partial,wire",
			Scenario{Engine: "core-blk", Write: true, Preagg: true, CbNodes: 2, Seed: 9, Storage: FaultPartial,
				Rank: RankCrashMid, Victim: 3, Corrupt: CorruptWire, Repairable: true}},
	} {
		got, err := ParseSpec(tc.spec)
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", tc.spec, err)
		} else if got != tc.want {
			t.Errorf("ParseSpec(%q) = %+v, want %+v", tc.spec, got, tc.want)
		}
	}
	for _, tc := range badSpecs {
		s, err := ParseSpec(tc.spec)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("ParseSpec(%q) = %+v, %v; want an error containing %q", tc.spec, s, err, tc.want)
		}
	}
}

// TestParseRankSpec pins the rank-fault field: fault[:victim], victim 1 by
// default, the read direction following crash-mid-read.
func TestParseRankSpec(t *testing.T) {
	s, err := ParseSpec("core-nb,crash-mid-rounds:3,cb=2,seed=5")
	if err != nil {
		t.Fatal(err)
	}
	if s.Rank != RankCrashMid || s.Victim != 3 || s.CbNodes != 2 || s.Engine != "core-nb" || !s.Write || s.Seed != 5 {
		t.Fatalf("parsed %+v", s)
	}
	if s, err = ParseSpec("core-a2a,straggler"); err != nil || s.Victim != 1 || !s.Write {
		t.Fatalf("default victim: parsed %+v, %v", s, err)
	}
	if s, err = ParseSpec("core-nb,crash-mid-read:0,pre"); err != nil || s.Write || s.Victim != 0 || !s.Preagg {
		t.Fatalf("crash-mid-read: parsed %+v, %v", s, err)
	}
}

// TestParseCorruptSpec pins the corruption field: plane[:budget], repair by
// default.
func TestParseCorruptSpec(t *testing.T) {
	s, err := ParseSpec("core-nb,atrest:abort,pre,seed=5")
	if err != nil {
		t.Fatal(err)
	}
	if s.Corrupt != CorruptAtRest || s.Repairable || !s.Preagg || !s.Write {
		t.Fatalf("parsed %+v", s)
	}
	for _, spec := range []string{"twophase,read,torn", "twophase,read,torn:repair"} {
		if s, err = ParseSpec(spec); err != nil || s.Corrupt != CorruptTorn || !s.Repairable || s.Write {
			t.Fatalf("%s: parsed %+v, %v", spec, s, err)
		}
	}
}

// FuzzParseSpec: ParseSpec never panics, and whatever it accepts is a valid
// scenario whose printed spec parses back to the same scenario.
func FuzzParseSpec(f *testing.F) {
	for _, s := range Matrix() {
		f.Add(s.Spec())
	}
	for _, tc := range badSpecs {
		f.Add(tc.spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		s, err := ParseSpec(spec)
		if err != nil {
			return
		}
		if err := s.validate(); err != nil {
			t.Fatalf("ParseSpec(%q) accepted an invalid scenario: %v", spec, err)
		}
		again, err := ParseSpec(s.Spec())
		if err != nil || again != s {
			t.Fatalf("ParseSpec(%q) = %+v, printed as %q, which parses to %+v, %v", spec, s, s.Spec(), again, err)
		}
	})
}
