package chaos

import (
	"fmt"
	"regexp"
	"slices"

	"flexio/internal/mpiio"
)

// seeded numbers a table's rows: row i (from 1) gets seed base+i, so a
// table only ever grows at its end.
type seeded struct {
	base  int64
	cells []Scenario
}

func (t *seeded) add(s Scenario) {
	s.Seed = t.base + int64(len(t.cells)) + 1
	t.cells = append(t.cells, s)
}

// The engines of the first-generation rows, and the exchange strategy that
// joined the table later (its rows sit at the end of each table).
var (
	coreEngines = []string{"core-nb", "core-a2a"}
	allEngines  = []string{"core-nb", "core-a2a", "twophase"}
)

// storageTable is the storage family: every engine, both directions, the
// buffered I/O methods and every storage fault, plus the degraded-mode
// recovery rows and pre-aggregation riding the storage planes.
func storageTable() []Scenario {
	t := seeded{base: 1000}
	grid := func(engine string, method mpiio.Method) {
		for _, write := range []bool{true, false} {
			for _, f := range storageFaults[:6] { // sieve-hard has its own rows
				t.add(Scenario{Engine: engine, Write: write, Method: method, Storage: f})
			}
		}
	}
	// Hard sieve faults, with and without the fall-back to naive I/O.
	sieveHard := func(engine string) {
		for _, degraded := range []bool{false, true} {
			t.add(Scenario{Engine: engine, Write: true, Degraded: degraded, Storage: FaultSieveHard})
		}
	}
	// The two-level exchange must keep agreement and integrity through
	// retries, partial transfers, and hard round aborts.
	pre := func(engine string) {
		for _, write := range []bool{true, false} {
			for _, f := range []Fault{FaultTransient, FaultPartial, FaultRound1} {
				t.add(Scenario{Engine: engine, Write: write, Storage: f, Preagg: true})
			}
		}
	}
	grid("core-nb", mpiio.DataSieve)
	grid("core-nb", mpiio.ListIO)
	grid("core-a2a", mpiio.DataSieve)
	grid("twophase", mpiio.DataSieve)
	for _, e := range coreEngines {
		sieveHard(e)
	}
	for _, e := range allEngines {
		pre(e)
	}
	grid("core-blk", mpiio.DataSieve)
	sieveHard("core-blk")
	pre("core-blk")
	return t.cells
}

// rankTable is the rank family: every engine against every rank fault,
// with both aggregator and pure-client victims for the mid-collective
// crash, leader and member victims under pre-aggregation, and the rows
// that compose a rank fault with a storage or corruption plane.
func rankTable() []Scenario {
	t := seeded{base: 7000}
	write := func(engine string, f RankFault, victim int) Scenario {
		return Scenario{Engine: engine, Write: true, Rank: f, Victim: victim}
	}
	base := func(e string) {
		t.add(write(e, RankCrashShuffle, 1))
		t.add(write(e, RankCrashMid, 1)) // aggregator victim: realms move, fresh epoch
		client := write(e, RankCrashMid, 3)
		client.CbNodes = 2 // pure-client victim: same epoch, journal skips
		t.add(client)
		t.add(write(e, RankStraggler, 2)) // aggregator running late, not dead
		t.add(write(e, RankDropStorm, 1))
		brownout := write(e, RankCrashMid, 1)
		brownout.Storage = FaultBrownout
		t.add(brownout)
	}
	read := func(e string, victim int, pre bool) {
		t.add(Scenario{Engine: e, Rank: RankCrashRead, Victim: victim, Preagg: pre})
	}
	// Nodes span nodeRanks consecutive ranks, so rank 0 leads node 0 and
	// rank 1 is its member. A leader crash forces the resume to elect the
	// next live co-resident (PlanNode excludes the dead set); a member crash
	// aborts through the leader's seeded error.
	pre := func(e string) {
		leader := write(e, RankCrashMid, 0)
		leader.Preagg = true
		t.add(leader)
		member := write(e, RankCrashShuffle, 1)
		member.Preagg = true
		t.add(member)
	}
	// Two planes at once: recovery (or, for the drop storm, redelivery) has
	// to ride out retries, resumed tails and re-requested payloads.
	composed := func(e string) {
		with := func(s Scenario, f Fault, plane CorruptPlane) {
			s.Storage, s.Corrupt, s.Repairable = f, plane, plane != ""
			t.add(s)
		}
		with(write(e, RankCrashMid, 1), FaultTransient, "")
		client := write(e, RankCrashMid, 3)
		client.CbNodes = 2
		with(client, FaultPartial, "")
		with(write(e, RankStraggler, 2), FaultTransient, "")
		with(write(e, RankDropStorm, 1), "", CorruptWire)
		with(write(e, RankCrashMid, 1), "", CorruptWire)
		leader := write(e, RankCrashMid, 0)
		leader.Preagg = true
		with(leader, "", CorruptWire)
	}
	for _, e := range allEngines {
		base(e)
	}
	for _, e := range coreEngines {
		read(e, 1, false)
	}
	for _, e := range allEngines {
		pre(e)
	}
	read("core-nb", 0, true) // leader dies mid-read: scatter must abort uniformly
	base("core-blk")
	read("core-blk", 1, false)
	pre("core-blk")
	for _, e := range engines {
		composed(e.name)
	}
	return t.cells
}

// corruptTable is the corruption family: every engine, both directions,
// both planes, repairable and exhausted budgets, plus torn writes and the
// pre-aggregation rows, where the leader gather, merge and scatter must
// carry the checksums too.
func corruptTable() []Scenario {
	t := seeded{base: 9000}
	add := func(engine string, write bool, plane CorruptPlane, repairable, pre bool) {
		t.add(Scenario{Engine: engine, Write: write, Corrupt: plane, Repairable: repairable, Preagg: pre})
	}
	base := func(e string) {
		for _, write := range []bool{true, false} {
			for _, plane := range []CorruptPlane{CorruptWire, CorruptAtRest} {
				add(e, write, plane, true, false)
				add(e, write, plane, false, false)
			}
		}
		add(e, true, CorruptTorn, true, false)
	}
	pre := func(e string) {
		add(e, true, CorruptWire, true, true)
		add(e, false, CorruptWire, true, true)
		add(e, true, CorruptAtRest, true, true)
	}
	for _, e := range allEngines {
		base(e)
	}
	for _, e := range allEngines {
		pre(e)
	}
	base("core-blk")
	pre("core-blk")
	return t.cells
}

// readAheadTable is the pipelined read against every plane, with and without
// pre-aggregation: faults aimed at rounds an aggregator reads ahead (round 1
// is the first, the last round the last), at-rest damage a lone aggregator
// first meets reading ahead, repairable and not, and an aggregator that dies
// right after a round's last send.
func readAheadTable() []Scenario {
	t := seeded{base: 11000}
	for _, pre := range []bool{false, true} {
		for _, f := range []Fault{FaultTransientRound1, FaultPartialLast} {
			t.add(Scenario{Engine: "core-nb", Storage: f, Preagg: pre})
		}
		for _, repairable := range []bool{true, false} {
			t.add(Scenario{Engine: "core-nb", CbNodes: 1, Corrupt: CorruptAtRestAhead, Repairable: repairable, Preagg: pre})
		}
		victim := 1
		if pre {
			victim = 0 // an aggregator that also leads its node
		}
		t.add(Scenario{Engine: "core-nb", Rank: RankCrashExchange, Victim: victim, Preagg: pre})
	}
	return t.cells
}

// Matrix is the one table: the three families, then the rows that joined
// after them.
func Matrix() []Scenario {
	var cells []Scenario
	for _, table := range [][]Scenario{storageTable(), rankTable(), corruptTable(), readAheadTable()} {
		cells = append(cells, table...)
	}
	return cells
}

// Quick is the short-mode subset: the first cell per family and fault.
func Quick(cells []Scenario) []Scenario {
	seen := map[string]bool{}
	var qs []Scenario
	for _, c := range cells {
		if key := c.Family() + "/" + c.Fault(); !seen[key] {
			seen[key] = true
			qs = append(qs, c)
		}
	}
	return qs
}

// Select resolves what to run: "all", a family name, a regular expression
// over cell names (when it matches any), or else a scenario spec.
func Select(what string) ([]Scenario, error) {
	cells := Matrix()
	if what == "all" {
		return cells, nil
	}
	var picked []Scenario
	if slices.Contains(Families, what) {
		for _, c := range cells {
			if c.Family() == what {
				picked = append(picked, c)
			}
		}
		return picked, nil
	}
	if re, err := regexp.Compile(what); err == nil {
		for _, c := range cells {
			if re.MatchString(c.Name()) {
				picked = append(picked, c)
			}
		}
		if len(picked) > 0 {
			return picked, nil
		}
	}
	s, err := ParseSpec(what)
	if err != nil {
		return nil, fmt.Errorf("%q is not all, a family %v, a regexp matching a cell name, or a spec: %w",
			what, Families, err)
	}
	return []Scenario{s}, nil
}
