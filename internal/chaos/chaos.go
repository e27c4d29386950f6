// Package chaos is a deterministic fault-injection harness for the
// collective I/O implementations. One Scenario describes one experiment on
// one simulated world: an engine configuration plus any subset of three
// fault planes — a storage fault (pfs.FaultSchedule rules), a rank fault
// (mpi.RankFaultSchedule crashes, stalls and drops) and silent corruption
// (wire or at-rest bit damage under the checksummed datapath). One Run
// checks the invariants the fault model promises, whatever the planes:
//
//   - Agreement: a collective either completes on every rank or returns an
//     error of the same class on every surviving rank (wrapping
//     ErrCollectiveAbort) — and it always returns: no deadlock. The class
//     is the join of what the planes predict.
//   - Evidence: every armed plane actually fired and was noticed — retries,
//     deadline trips, checksum mismatches are on the books. With checksums
//     on, an undetected flip is the one forbidden outcome.
//   - Recovery: an unresponsive abort resumes against the write journal
//     after the world is revived; an exhausted repair budget heals through
//     a clean rewrite.
//   - Integrity: whenever the run ends in success, the bytes are right,
//     verified against an independently computed reference image.
//   - Accounting: recovery work is visible in virtual time — the trace and
//     the stats agree on the backoff cost to within 1% — and the trace
//     stays well formed (balanced spans, monotone clocks).
//
// The scenarios are the cells of one table (matrix.go), run by one Soak
// (soak.go).
//
// Every cell is seeded and virtual-timed, so a failure reproduces exactly
// and its artifacts can be diffed against a local run.
package chaos

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"flexio/internal/colltest"
	"flexio/internal/core"
	"flexio/internal/hpio"
	"flexio/internal/metrics"
	"flexio/internal/mpi"
	"flexio/internal/mpiio"
	"flexio/internal/pfs"
	"flexio/internal/sim"
)

// Fault names a storage fault plane.
type Fault string

const (
	// FaultTransient injects a bounded burst of EAGAIN-style errors that
	// the retry layer must absorb.
	FaultTransient Fault = "transient"
	// FaultPartial injects short transfers whose tails must be resumed.
	FaultPartial Fault = "partial"
	// FaultRound1 injects a hard error confined to collective round 1;
	// the collective must abort on every rank with the io class.
	FaultRound1 Fault = "hard-round1"
	// FaultBrownout slows every OST; the collective must still complete.
	FaultBrownout Fault = "brownout"
	// FaultStorm runs a lock-revoke storm; the collective must complete.
	FaultStorm Fault = "storm"
	// FaultGiveup injects unhealing transient errors so the retry ladder
	// exhausts; the collective must abort with the transient class.
	FaultGiveup Fault = "giveup"
	// FaultSieveHard injects hard errors only into sieve operations; with
	// Degraded set the engine falls back to naive I/O and completes,
	// otherwise it aborts with the io class.
	FaultSieveHard Fault = "sieve-hard"
	// FaultTransientRound1 is FaultTransient confined to round 1: the first
	// round a pipelined read reads ahead, so the retries run while round 0
	// is on the wire.
	FaultTransientRound1 Fault = "transient-round1"
	// FaultPartialLast is FaultPartial confined to the collective's last
	// round: the resumed tail belongs to the last read-ahead, or to the
	// pipelined write that lands after the loop.
	FaultPartialLast Fault = "partial-last"
)

// RankFault names a rank fault plane — process failures, as opposed to the
// storage failures of Fault.
type RankFault string

const (
	// RankCrashShuffle kills the victim at round 0, before any round data
	// has been exchanged: the write journal is empty and recovery replays
	// the entire collective under reassigned realms.
	RankCrashShuffle RankFault = "crash-before-shuffle"
	// RankCrashMid kills the victim at round 2, after earlier rounds
	// became durable: recovery replays only what the journal lacks (the
	// skip path needs the victim to be a pure client — realm layouts that
	// survive the failover keep their journal epoch).
	RankCrashMid RankFault = "crash-mid-rounds"
	// RankCrashRead is RankCrashMid on a collective read; the rerun has no
	// journal to consult (reads are idempotent) but must still deliver
	// every byte through the reassigned realms. It is the one rank fault of
	// the read direction entered at a round boundary.
	RankCrashRead RankFault = "crash-mid-read"
	// RankCrashExchange kills an aggregator of a collective read in the
	// middle of round 1, right after its last send of the round (which,
	// pipelined, carries round 2 and follows the read-ahead of it): its
	// clients hold views of the pages it lent, and the round's agreement
	// must notice.
	RankCrashExchange RankFault = "crash-mid-exchange"
	// RankStraggler stalls the victim far past the collective deadline at
	// round 1 without killing it: deadline detection must flag it suspect
	// and abort every rank on the same decision.
	RankStraggler RankFault = "straggler"
	// RankDropStorm drops-and-redelivers a fraction of the victim's sends
	// with a retransmit penalty below the deadline: the collective must
	// complete, unaborted and byte-perfect, with redeliveries counted.
	RankDropStorm RankFault = "drop-storm"
)

// CorruptPlane names where a corruption plane injects bit damage.
type CorruptPlane string

const (
	// CorruptWire flips payload bits in flight on every link: the
	// receiver-side wire checksum must catch each one.
	CorruptWire CorruptPlane = "wire"
	// CorruptAtRest flips a stored bit after the bytes land on the media:
	// the per-stripe-block checksum must catch it on the next read.
	CorruptAtRest CorruptPlane = "atrest"
	// CorruptTorn loses the tail of written segments (torn write): reads
	// see zeros where data should be, caught like any at-rest mismatch.
	CorruptTorn CorruptPlane = "torn"
	// CorruptAtRestAhead is CorruptAtRest sparing the file's first page, so
	// that a single aggregator (cb=1) reads its first rounds clean and meets
	// the damage in a round it reads ahead: the repair, or the abort, comes
	// out of a read-ahead.
	CorruptAtRestAhead CorruptPlane = "atrest-ahead"
)

// The vocabularies ParseSpec and validate accept, in the order error
// messages list them.
var (
	storageFaults = []Fault{FaultTransient, FaultPartial, FaultRound1, FaultBrownout, FaultStorm, FaultGiveup, FaultSieveHard, FaultTransientRound1, FaultPartialLast}
	rankFaults    = []RankFault{RankCrashShuffle, RankCrashMid, RankCrashRead, RankCrashExchange, RankStraggler, RankDropStorm}
	corruptPlanes = []CorruptPlane{CorruptWire, CorruptAtRest, CorruptTorn, CorruptAtRestAhead}
	methods       = []mpiio.Method{mpiio.DataSieve, mpiio.Naive, mpiio.ListIO}
)

// engines is the engine table: a core engine is its exchange strategy, and
// twophase is the ROMIO-style planner in front of the same executor.
var engines = []engine{
	{name: "core-nb", comm: core.Nonblocking},
	{name: "core-a2a", comm: core.Alltoallw},
	{name: "core-blk", comm: core.Blocking},
	{name: "twophase", romio: true},
}

type engine struct {
	name  string
	comm  core.CommStrategy
	romio bool
}

// Rank-plane timing: the collective deadline, the straggler stall (far
// beyond it), and the drop redelivery penalty (safely below it). The
// deadline must clear the legitimate per-round skew — aggregators do file
// I/O while pure clients idle, a resume lets some aggregators skip
// journalled rounds others replay, and a brownout inflates every round —
// so it sits well above the worst healthy round and well below the stall.
const (
	rankDeadline = sim.Time(50e-3)
	rankStall    = sim.Time(1.0)
	rankDropPen  = sim.Time(3e-4)
)

// wireRepeatUnrepairable is one past the bounded re-request budget: every
// delivery attempt of a hit arrives corrupted, so the receiver can never
// pull a clean copy.
const wireRepeatUnrepairable = 4

// tile is the workload every scenario transfers: a gapped interleaved tile
// whose holes keep aggregator accesses noncontiguous (exercising data
// sieving and its RMW prefetch); with collBuf it splits each access into
// several rounds.
var tile = hpio.Pattern{Ranks: 4, RegionSize: 64, RegionCount: 32, Spacing: 64}

const (
	fname   = "chaos.dat"
	collBuf = 1024
	// nodeRanks is the block node-mapping width chaos worlds run under, so
	// pre-aggregation has co-resident ranks to gather and comm-matrix
	// artifacts split shuffle bytes into inter- and intra-node.
	nodeRanks = 2
)

// Scenario is one deterministic single-world chaos experiment: an engine
// configuration and the fault planes armed against it. The zero value of a
// plane leaves it unarmed; a scenario with none is the fault-free baseline
// the soak's differential reports diff against.
type Scenario struct {
	// Engine names a row of the engine table: "core-nb" (nonblocking
	// pipeline), "core-a2a" (Alltoallw), "core-blk" (ROMIO's blocking
	// exchange on the flexible planner) or "twophase" (ROMIO-style
	// baseline).
	Engine string
	// Write selects the transfer direction.
	Write bool
	// Method is the buffered I/O method the core engine drains rounds
	// with (ignored by twophase, which integrates its own sieve).
	Method mpiio.Method
	// Degraded enables the core engine's fall-back-to-naive recovery.
	Degraded bool
	// Preagg enables node-local pre-aggregation, so the fault planes also
	// exercise the two-level exchange and its leader failover.
	Preagg bool
	// CbNodes caps the aggregator count (0 = every rank aggregates).
	// Killing a rank at or above it exercises the journal's same-epoch
	// skip path: a dead pure client moves no realms.
	CbNodes int
	// Seed drives the fault schedules' probability coins and the checksum
	// domain.
	Seed int64

	// Storage is the storage fault plane ("" = none). It arms RetryLimit.
	Storage Fault
	// Rank is the rank fault plane ("" = none) and Victim the rank it
	// targets. It arms the collective deadline and the write journal.
	Rank   RankFault
	Victim int
	// Corrupt is the corruption plane ("" = none). It arms the wire and
	// at-rest checksums. Repairable is its recovery budget: true leaves the
	// repair path available (wire: one corrupted delivery per hit, inside
	// the re-request bound; at-rest: a retained-block ring large enough to
	// hold the working set), false exhausts it, forcing the
	// ErrDataIntegrity abort.
	Corrupt    CorruptPlane
	Repairable bool
}

// Name is a stable identifier for logs, subtests, and artifact file names.
// The shapes predate the one Scenario and are pinned by the golden matrix
// and by artifact names: a rank fault names its own direction and carries
// its victim, only storage-only cells spell out the method, and a storage
// fault riding a rank fault replaces the crash point (crash-brownout).
func (s Scenario) Name() string {
	dir := "read"
	if s.Write {
		dir = "write"
	}
	parts := []string{s.Engine}
	switch {
	case s.Rank != "":
		fault := string(s.Rank)
		if s.Storage != "" {
			kind, _, _ := strings.Cut(fault, "-")
			fault = kind + "-" + string(s.Storage)
		}
		parts = append(parts, fault, fmt.Sprintf("v%d", s.Victim))
	case s.Corrupt != "":
		parts = append(parts, dir)
	default:
		parts = append(parts, dir, s.Method.String())
	}
	if s.Rank == "" && s.Storage != "" {
		parts = append(parts, string(s.Storage))
	}
	if s.CbNodes > 0 {
		parts = append(parts, fmt.Sprintf("cb%d", s.CbNodes))
	}
	if s.Corrupt != "" {
		mode := "abort"
		if s.Repairable {
			mode = "repair"
		}
		parts = append(parts, "corrupt", string(s.Corrupt), mode)
	}
	if s.Degraded {
		parts = append(parts, "degraded")
	}
	if s.Preagg {
		parts = append(parts, "pre")
	}
	return strings.Join(parts, "-")
}

// Family is the table the scenario belongs to: its most disruptive plane.
func (s Scenario) Family() string {
	switch {
	case s.Rank != "":
		return "rank"
	case s.Corrupt != "":
		return "corrupt"
	default:
		return "storage"
	}
}

// Fault names the planes set, for Quick's one-cell-per-fault subset.
func (s Scenario) Fault() string {
	var parts []string
	if s.Storage != "" {
		parts = append(parts, string(s.Storage))
	}
	if s.Rank != "" {
		parts = append(parts, string(s.Rank))
	}
	if s.Corrupt != "" {
		parts = append(parts, fmt.Sprintf("%s:%t", s.Corrupt, s.Repairable))
	}
	return strings.Join(parts, "+")
}

// Baseline is the fault-free scenario of the same engine configuration.
func (s Scenario) Baseline() Scenario {
	return Scenario{Engine: s.Engine, Write: s.Write, Method: s.Method, Degraded: s.Degraded,
		Preagg: s.Preagg, CbNodes: s.CbNodes, Seed: 1}
}

// crashes reports whether the rank plane kills the victim's goroutine (as
// opposed to running it late or dropping its messages).
func (s Scenario) crashes() bool {
	return s.Rank == RankCrashShuffle || s.Rank == RankCrashMid || s.Rank.reads()
}

// reads reports whether the rank fault is one of the read direction (reads
// have no journal; the others need the write journal).
func (f RankFault) reads() bool { return f == RankCrashRead || f == RankCrashExchange }

// atRest reports whether the corruption plane damages stored bytes.
func (s Scenario) atRest() bool { return s.Corrupt != "" && s.Corrupt != CorruptWire }

// naggs is how many ranks aggregate.
func (s Scenario) naggs() int {
	if s.CbNodes > 0 {
		return s.CbNodes
	}
	return tile.Ranks
}

// validate rejects a scenario no world can run, naming the field at fault.
func (s Scenario) validate() error {
	if _, err := engineRow(s.Engine); err != nil {
		return err
	}
	if !slices.Contains(methods, s.Method) {
		return fmt.Errorf("unknown method %q (want one of %v)", s.Method, methods)
	}
	if s.Storage != "" && !slices.Contains(storageFaults, s.Storage) {
		return fmt.Errorf("unknown storage fault %q (want one of %v)", s.Storage, storageFaults)
	}
	if s.CbNodes < 0 || s.CbNodes > tile.Ranks {
		return fmt.Errorf("cb_nodes %d out of range [0,%d]", s.CbNodes, tile.Ranks)
	}
	switch {
	case s.Rank == "":
		if s.Victim != 0 {
			return fmt.Errorf("victim %d without a rank fault", s.Victim)
		}
	case !slices.Contains(rankFaults, s.Rank):
		return fmt.Errorf("unknown rank fault %q (want one of %v)", s.Rank, rankFaults)
	case s.Victim < 0 || s.Victim >= tile.Ranks:
		return fmt.Errorf("victim %d out of range [0,%d)", s.Victim, tile.Ranks)
	case s.Write == s.Rank.reads():
		return fmt.Errorf("direction: %s and %s are the rank faults of the read direction, the others need the write journal", RankCrashRead, RankCrashExchange)
	}
	switch {
	case s.Corrupt == "":
		if s.Repairable {
			return errors.New("repair budget without a corruption plane")
		}
	case !slices.Contains(corruptPlanes, s.Corrupt):
		return fmt.Errorf("unknown corruption plane %q (want one of %v)", s.Corrupt, corruptPlanes)
	}
	return nil
}

// engineRow looks an engine up in the table; an unknown name is an error.
func engineRow(name string) (engine, error) {
	names := make([]string, len(engines))
	for i, e := range engines {
		if e.name == name {
			return e, nil
		}
		names[i] = e.name
	}
	return engine{}, fmt.Errorf("unknown engine %q (want one of %v)", name, names)
}

// collective instantiates the scenario's engine against the journal (nil
// without a rank plane). A non-nil dead set makes it the resume of an
// attempt those ranks failed in: the flexio engines reassign realms off
// them, the baseline can only re-run under its fixed domains.
func (e engine) collective(s Scenario, journal *mpiio.WriteJournal, dead []int) mpiio.Collective {
	if e.romio {
		if dead != nil {
			journal.MarkResume(dead)
		}
		return core.ROMIO(core.Options{Journal: journal, Preagg: s.Preagg})
	}
	o := core.Options{Comm: e.comm, Method: s.Method, Preagg: s.Preagg, Journal: journal, Degraded: s.Degraded}
	if dead != nil {
		return core.ResumeCollective(o, journal, dead)
	}
	return core.New(o)
}

// flipRule is the at-rest corruption plan: every write segment is flipped
// (or torn), so whichever write lands last on a page leaves detectable
// damage for the next read.
func (s Scenario) flipRule() pfs.Rule {
	switch s.Corrupt {
	case CorruptTorn:
		return pfs.Rule{Class: pfs.ClassTorn}
	case CorruptAtRestAhead:
		return pfs.Rule{Class: pfs.ClassBitflip, MinOff: sim.DefaultConfig().PageSize}
	}
	return pfs.Rule{Class: pfs.ClassBitflip}
}

// storageSchedule builds the seeded pfs plan the transfer runs under: the
// storage plane's rules, and the at-rest flips when the transfer is the
// write that has to land them.
func (s Scenario) storageSchedule() *pfs.FaultSchedule {
	sched := pfs.NewFaultSchedule(s.Seed)
	// Partial rules are scoped to the transfer direction: an unscoped rule
	// would spend its injections on the sieve RMW prefetch reads, which the
	// pfs layer reports as transient (no data bytes lost), not partial.
	kind := "read"
	if s.Write {
		kind = "write"
	}
	switch s.Storage {
	case FaultTransient:
		sched.Add(pfs.Rule{Class: pfs.ClassTransient, Count: 2})
	case FaultTransientRound1:
		sched.Add(pfs.Rule{Rounds: []int{1}, Class: pfs.ClassTransient, Count: 2})
	case FaultPartial:
		sched.Add(pfs.Rule{Kind: kind, Class: pfs.ClassPartial, Frac: 0.5, Count: 2})
	case FaultPartialLast:
		// Every realm is an even share of the file, drained a collective
		// buffer a round.
		realm := (tile.FileSize() + int64(s.naggs()) - 1) / int64(s.naggs())
		last := int((realm+collBuf-1)/collBuf) - 1
		sched.Add(pfs.Rule{Kind: kind, Rounds: []int{last}, Class: pfs.ClassPartial, Frac: 0.5, Count: 2})
	case FaultRound1:
		sched.Add(pfs.Rule{Rounds: []int{1}, Class: pfs.ClassIO})
	case FaultBrownout:
		sched.AddBrownout(pfs.Brownout{OST: -1, Slowdown: 4, ExtraLatency: 1e-4})
	case FaultStorm:
		sched.AddStorm(pfs.RevokeStorm{PerGrant: 2})
	case FaultGiveup:
		sched.Add(pfs.Rule{Class: pfs.ClassTransient})
	case FaultSieveHard:
		sched.Add(pfs.Rule{Kind: "write", Class: pfs.ClassIO, Match: func(op pfs.Op) bool { return op.Sieve }})
	}
	if s.atRest() && s.Write {
		sched.Add(s.flipRule())
	}
	return sched
}

// rankSchedule builds the rank plane's seeded plan; wire corruption rides
// the same schedule (every payload on every link, the repeat budget
// deciding repairability — unlimited count keeps the plan independent of
// goroutine scheduling).
func (s Scenario) rankSchedule() *mpi.RankFaultSchedule {
	rf := mpi.NewRankFaultSchedule(s.Seed)
	switch s.Rank {
	case RankCrashShuffle:
		rf.Crash(s.Victim, 0)
	case RankCrashMid, RankCrashRead:
		rf.Crash(s.Victim, 2)
	case RankCrashExchange:
		// An aggregator serves every rank with data in the round (with
		// pre-aggregation, every node leader), itself included: this is its
		// last send of round 1.
		clients := tile.Ranks
		if s.Preagg {
			clients /= nodeRanks
		}
		rf.CrashAtSend(s.Victim, 1, int64(clients))
	case RankStraggler:
		// Composed with a storage plane, a core engine's straggler holds off
		// a round longer: the data-sieving core engines write the tile's
		// sparse rounds in pairs, so under Alltoallw the first write is
		// issued inside round 1, and a stall entering round 1 would abort
		// the attempt before any storage operation the plane could hit.
		// The baseline sieves in its collective buffer and writes every
		// round alone.
		round := 1
		if s.Storage != "" && s.Engine != "twophase" {
			round = 2
		}
		rf.Stall(s.Victim, round, rankStall, 1)
	case RankDropStorm:
		rf.Drop(s.Victim, 0.4, rankDropPen)
	}
	if s.Corrupt == CorruptWire {
		repeat := 1
		if !s.Repairable {
			repeat = wireRepeatUnrepairable
		}
		rf.Corrupt(mpi.Any, mpi.Any, repeat, 0)
	}
	return rf
}

// wantClass is the class the faulted attempt must agree on: the join (the
// maximum in mpiio's severity order, which is what AgreeError votes) of
// what each armed plane predicts.
func (e *world) wantClass() int64 {
	s, want := e.s, mpiio.ClassOK
	join := func(c int64) {
		if c > want {
			want = c
		}
	}
	switch s.Storage {
	case FaultRound1:
		join(mpiio.ClassIO)
	case FaultGiveup:
		join(mpiio.ClassTransient)
	case FaultSieveHard:
		// The flexible engines' degraded mode absorbs it on writes.
		if !s.Degraded || !s.Write || e.engine.romio {
			join(mpiio.ClassIO)
		}
	}
	if s.crashes() || s.Rank == RankStraggler {
		join(mpiio.ClassUnresponsive)
	}
	if s.Corrupt != "" && !s.Repairable {
		join(mpiio.ClassIntegrity)
	}
	return want
}

// storageEvidence names the stat that proves the storage plane exercised
// the path under test, and whether the schedule must also have counted an
// injection (brownouts and storms slow operations without failing any).
func (s Scenario) storageEvidence() (counter metrics.Counter, injects bool) {
	switch s.Storage {
	case FaultTransient, FaultTransientRound1:
		return metrics.CRetries, true
	case FaultPartial, FaultPartialLast:
		return metrics.CResumes, true
	case FaultBrownout:
		return metrics.CBrownoutServes, false
	case FaultStorm:
		return metrics.CStormRevokes, false
	case FaultGiveup:
		return metrics.CGiveups, true
	default:
		return metrics.CFaults, true
	}
}

// world is one scenario's simulated cluster and what was armed on it.
type world struct {
	s       Scenario
	engine  engine
	cfg     *sim.Config
	w       *mpi.World
	fs      *pfs.FileSystem
	journal *mpiio.WriteJournal
	// sched and rf are the plans the transfer runs under; seedFlips is the
	// at-rest plan an at-rest read scenario seeds its file under.
	sched, seedFlips *pfs.FaultSchedule
	rf               *mpi.RankFaultSchedule
}

// transfer runs one transfer of the tile on every rank (colltest.Transfer)
// and returns the per-rank results: a read also reports each live rank whose
// call returned nil but whose buffer does not hold the tile's bytes (a rank
// a fault killed mid-call keeps a nil error and no mismatch). An Open or
// SetView failure is a setup error, not a result.
func (e *world) transfer(info mpiio.Info, write bool) (errs []error, mism []bool, setup error) {
	spec := colltest.Spec(tile)
	if !write {
		for r := range tile.Ranks {
			clear(spec(0, r).Buf)
		}
	}
	if errs, setup = colltest.Transfer(e.w, e.fs, fname, info, write, 1, spec); setup != nil {
		return nil, nil, setup
	}
	mism = make([]bool, tile.Ranks)
	dead := e.w.FailedRanks()
	for r, err := range errs {
		mism[r] = !write && err == nil && !slices.Contains(dead, r) && !colltest.ReadMatches(tile, r, spec(0, r).Buf)
	}
	return errs, mism, nil
}

// attempt is a collective transfer under the scenario's engine and arming:
// the sub-block collective buffer (shuffle pieces smaller than a stripe
// block are the interesting case), cb_nodes, and RetryLimit with a storage
// plane. A non-nil dead set makes it the resume of an attempt those ranks
// failed in.
func (e *world) attempt(write bool, dead []int) ([]error, []bool, error) {
	info := mpiio.Info{Collective: e.engine.collective(e.s, e.journal, dead), CollBufSize: collBuf, CbNodes: e.s.CbNodes}
	if e.s.Storage != "" {
		info.RetryLimit = 6
	}
	return e.transfer(info, write)
}

// seedFile writes the reference file through the trusted independent path.
func (e *world) seedFile() error {
	errs, _, err := e.transfer(mpiio.Info{IndepMethod: mpiio.ListIO}, true)
	if err != nil {
		return err
	}
	return errors.Join(errs...)
}

// agree checks the agreement invariant over the ranks that returned (killed
// ones never do): all succeed, or all fail with one class wrapping
// ErrCollectiveAbort. It returns the agreed class.
func agree(errs []error, killed func(rank int) bool) (int64, error) {
	class, first := int64(-1), -1
	for r, err := range errs {
		if killed(r) {
			continue
		}
		if err != nil && !errors.Is(err, mpiio.ErrCollectiveAbort) {
			return 0, fmt.Errorf("rank %d error does not wrap ErrCollectiveAbort: %v", r, err)
		}
		c := mpiio.ErrorClass(err)
		if first < 0 {
			class, first = c, r
		} else if c != class {
			return 0, fmt.Errorf("agreement violated: rank %d ended %s (%v), rank %d %s (%v)",
				r, mpiio.ClassName(c), err, first, mpiio.ClassName(class), errs[first])
		}
	}
	return class, nil
}

// verifyData checks byte-identity with a fault-free run: every rank's
// read-back buffer and the file image against the workload's independent
// reference.
func (e *world) verifyData(mism []bool) error {
	for r, bad := range mism {
		if bad {
			return fmt.Errorf("rank %d: read-back bytes diverge from the reference", r)
		}
	}
	img := e.fs.Snapshot(fname, tile.FileSize())
	ref := tile.Reference()
	for i := range ref {
		if img[i] != ref[i] {
			return fmt.Errorf("file byte %d = %d, want %d (not byte-identical to a fault-free run)",
				i, img[i], ref[i])
		}
	}
	return nil
}

// Run executes the scenario and checks every invariant. A scenario that
// cannot run at all (bad field, Open or SetView failure) returns that error
// and no outcome. Otherwise the error is an invariant violation (nil means
// the scenario behaved) and the outcome is returned even on violation, so
// the caller can export its recording.
func (s Scenario) Run() (*Outcome, error) {
	if err := s.validate(); err != nil {
		return nil, fmt.Errorf("chaos: %s: %w", s.Name(), err)
	}
	return s.run()
}

func (s Scenario) run() (*Outcome, error) {
	eng, err := engineRow(s.Engine)
	if err != nil {
		return nil, err
	}
	e := &world{s: s, engine: eng, cfg: sim.DefaultConfig(), seedFlips: pfs.NewFaultSchedule(s.Seed)}
	e.w = mpi.NewWorld(tile.Ranks, e.cfg)
	e.fs = pfs.NewFileSystem(e.cfg)
	if s.Corrupt != "" {
		ringCap := 0 // default, sized for the tile's working set
		if !s.Repairable {
			// A single slot: every quarantined page but the most recent one
			// has aged out and the read must surface ErrDataIntegrity.
			ringCap = 1
		}
		e.w.EnableIntegrity(s.Seed)
		e.fs.EnableIntegrity(s.Seed, ringCap)
	}

	// Reads verify against a file seeded before the planes are armed.
	// At-rest read scenarios arm the flips for the seeding writes instead of
	// the transfer — that is how the damage gets to rest under recorded
	// checksums.
	if !s.Write {
		if s.atRest() {
			e.fs.SetFaultSchedule(e.seedFlips.Add(s.flipRule()))
		}
		if err := e.seedFile(); err != nil {
			return nil, fmt.Errorf("chaos: seeding %s: %w", s.Name(), err)
		}
	}

	// Trace and time only the faulted phase.
	out := &Outcome{Name: s.Name(), Seed: s.Seed,
		Recording: Recording{Trace: e.w.EnableTracing(0), Metrics: e.w.EnableMetrics(), Comm: e.w.CommMatrix()}}
	e.w.SetNodeMap(mpi.BlockNodeMap(nodeRanks))
	e.w.ResetClocks()
	e.fs.ResetTiming()

	e.sched = s.storageSchedule()
	e.fs.SetFaultSchedule(e.sched)
	e.rf = s.rankSchedule()
	e.w.SetRankFaults(e.rf)
	if s.Rank != "" {
		e.w.SetCollDeadline(rankDeadline)
		e.journal = mpiio.NewWriteJournal()
	}

	// The faulted attempt. With a corruption plane a write is followed by a
	// verifying collective read-back: that is where at-rest damage is
	// detected (reads detect inside the faulted read itself).
	errs, mism, err := e.attempt(s.Write, nil)
	if err == nil && s.Corrupt != "" && s.Write && errors.Join(errs...) == nil {
		errs, mism, err = e.attempt(false, nil)
	}
	if err != nil {
		return nil, err
	}
	e.snapshot(out)
	out.Dead = e.w.FailedRanks()

	out.Class, err = agree(errs, func(r int) bool { return s.crashes() && r == s.Victim })
	if err != nil {
		return out, err
	}
	if want := e.wantClass(); out.Class != want {
		return out, fmt.Errorf("agreed class %s, want %s (rank errors: %v)",
			mpiio.ClassName(out.Class), mpiio.ClassName(want), errs)
	}
	if err := e.evidence(out); err != nil {
		return out, err
	}

	// Follow the agreed class to the scenario's end state. A storage abort
	// has no recovery: the file is whatever the rounds before it wrote, and
	// nothing is promised about it.
	intact := true
	switch out.Class {
	case mpiio.ClassOK:
	case mpiio.ClassUnresponsive:
		mism, err = e.resume(out)
	case mpiio.ClassIntegrity:
		mism, err = e.heal(out)
	default:
		intact = false
	}
	if err == nil && intact {
		err = e.verifyData(mism)
	}
	if err == nil {
		if terr := out.Recording.Trace.Check(); terr != nil {
			err = fmt.Errorf("trace malformed: %w", terr)
		}
	}
	return out, err
}

// evidence requires each armed plane to have fired and been noticed in the
// faulted attempt. With the checksummed datapath on, an injection no
// checksum tripped on is silent corruption, the one forbidden outcome; and
// damage past the repair budget must stay flagged (quarantined), never be
// served.
func (e *world) evidence(out *Outcome) error {
	s := e.s
	counter, injects := s.storageEvidence()
	failed := s.Rank != "" && s.Rank != RankDropStorm
	wire, rest := s.Corrupt == CorruptWire, s.atRest()
	for _, c := range []struct {
		armed, seen bool
		missing     string
	}{
		{s.Storage != "" && injects, e.sched.Injected() > 0, "storage fault schedule never fired"},
		{s.Storage != "", out.Totals.Counter(counter) > 0, fmt.Sprintf("counter %q stayed zero", metrics.TableName(counter))},
		{s.Rank == RankDropStorm, out.Totals.Counter(metrics.CRedelivered) > 0, "drop schedule never fired: nothing was redelivered"},
		{failed, slices.Contains(out.Dead, s.Victim), fmt.Sprintf("victim %d not in detected dead set %v", s.Victim, out.Dead)},
		{failed, out.Totals.Counter(metrics.CDeadlineTrips) > 0, "deadline_trips stayed zero across an unresponsive abort"},
		{s.Corrupt != "", out.Injected > 0, "corruption schedule never fired"},
		{wire, out.Totals.Counter(metrics.CIntegWireMismatch) > 0, fmt.Sprintf("wire checksum never tripped across %d injections", out.Injected)},
		{wire && s.Repairable, out.Totals.Counter(metrics.CIntegWireRepaired) > 0, "no wire repair recorded"},
		{rest, out.AtRest.Mismatches > 0, fmt.Sprintf("at-rest checksum never tripped across %d injections", out.Injected)},
		{rest && s.Repairable, out.AtRest.Repairs > 0, "no at-rest repair recorded"},
		{rest && s.Repairable, out.AtRest.Backlog == 0, fmt.Sprintf("repairable run left %d blocks quarantined", out.AtRest.Backlog)},
		{rest && !s.Repairable, out.AtRest.Backlog > 0, "unrepairable at-rest damage left no quarantine backlog"},
	} {
		if c.armed && !c.seen {
			return errors.New(c.missing)
		}
	}
	return nil
}

// resume recovers from an unresponsive abort: revive the world (the
// crashed process restarts and rejoins), demote the dead ranks from
// aggregator duty, and run the transfer again against the journal, which
// lets same-epoch reruns skip the rounds already durable.
func (e *world) resume(out *Outcome) ([]bool, error) {
	s := e.s
	out.PreRounds = e.journal.Rounds()
	e.w.ReviveAll()
	errs, mism, err := e.attempt(s.Write, out.Dead)
	if err != nil {
		return nil, err
	}
	for r, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("rank %d failed on resume: %v", r, err)
		}
	}
	e.snapshot(out)
	if out.Totals.Counter(metrics.CFailovers) == 0 {
		return nil, errors.New("resume recorded no failover")
	}
	if !s.Write {
		return mism, nil
	}
	if out.Totals.Counter(metrics.CRoundsReplayed)+out.Totals.Counter(metrics.CRoundsSkipped) == 0 {
		return nil, errors.New("resume journalled no rounds (replayed=0 skipped=0)")
	}
	// The same-epoch skip path: a dead pure client moves no realms, so
	// everything committed before the crash must be reused, and a
	// mid-collective crash must have committed something.
	if s.Rank == RankCrashMid && s.CbNodes > 0 && s.Victim >= s.CbNodes {
		if out.PreRounds == 0 {
			return nil, errors.New("mid-collective crash committed no rounds before dying")
		}
		if out.Totals.Counter(metrics.CRoundsSkipped) == 0 {
			return nil, fmt.Errorf("client-victim resume replayed everything (skipped=0, pre=%d)", out.PreRounds)
		}
	}
	return mism, nil
}

// heal recovers from an integrity abort: with the planes cleared, a full
// rewrite through the normal datapath (the journal-replay repair in
// miniature) must empty the quarantine and the file converge to the
// reference. It uses block-aligned windows, because clearing a quarantine
// demands a window that repaves the whole block — exactly what a
// journal-replay repair writer does. The outcome keeps the counters of the
// abort; only the backlog is read again.
func (e *world) heal(out *Outcome) ([]bool, error) {
	e.w.SetRankFaults(nil)
	e.fs.SetFaultSchedule(nil)
	var mism []bool
	for _, write := range []bool{true, false} {
		info := mpiio.Info{Collective: e.engine.collective(e.s, nil, nil), CollBufSize: e.cfg.PageSize}
		errs, m, err := e.transfer(info, write)
		if err != nil {
			return nil, err
		}
		for r, err := range errs {
			if err != nil {
				return nil, fmt.Errorf("rank %d failed on the clean heal (write=%t): %v", r, write, err)
			}
		}
		mism = m
	}
	if out.AtRest.Backlog = e.fs.IntegrityStats().Backlog; out.AtRest.Backlog != 0 {
		return nil, fmt.Errorf("heal rewrite left %d blocks quarantined", out.AtRest.Backlog)
	}
	out.Healed = true
	return mism, nil
}

// snapshot reads the world's books into the outcome.
func (e *world) snapshot(out *Outcome) {
	out.Totals = out.Recording.Metrics.Merged()
	out.Injected = e.rf.Injected() + e.sched.Injected() + e.seedFlips.Injected()
	out.AtRest = e.fs.IntegrityStats()
	out.Elapsed = e.w.MaxClock()
}
