package mpi

import (
	"errors"
	"sort"
	"sync"

	"flexio/internal/integrity"
	"flexio/internal/sim"
)

// ErrRankUnresponsive marks a peer rank that crashed or blew past a
// collective's virtual-time deadline. It is the sentinel the error
// agreement protocol escalates to, so every survivor aborts the round on
// the same decision.
var ErrRankUnresponsive = errors.New("mpi: rank unresponsive")

// rankCrash is the private panic value an injected crash raises. World.Run
// recognizes it and lets the rank die quietly (no poison, no re-panic):
// peers detect the death through the liveness machinery instead of a test
// failure.
type rankCrash struct{ rank int }

// RankFaultSchedule is a seeded, deterministic plan of rank-level failures:
// crashes (at a two-phase round or at the Nth collective operation), stalls
// and stragglers (virtual-time delays charged at round boundaries), and
// message drops with redelivery (a per-send latency penalty modelling the
// retransmit timeout). It composes with pfs.FaultSchedule — one injects
// process failures, the other storage failures — and, like it, makes the
// same decisions on every run for a fixed seed regardless of goroutine
// scheduling.
//
// Crash and stall rules fire at most once: a collective resumed after
// ReviveAll does not re-kill its victim.
type RankFaultSchedule struct {
	mu       sync.Mutex
	seed     int64
	crashes  []crashRule
	stalls   []stallRule
	drops    []dropRule
	corrupts []corruptRule
	injected int64
}

type crashRule struct {
	rank  int
	round int   // fires at SetRound(round) when seq and send are 0
	seq   int64 // fires at the seq'th collective op when > 0
	send  int64 // fires right after the send'th send of round when > 0
	fired bool
}

type stallRule struct {
	rank  int
	round int      // first round the delay applies to
	delay sim.Time // charged to the rank's clock at each matching round
	left  int      // remaining rounds to fire on
}

type dropRule struct {
	from    int // Any matches every sender
	prob    float64
	penalty sim.Time
}

type corruptRule struct {
	from, to int // Any matches every rank
	repeat   int // consecutive corrupted delivery attempts per hit
	left     int // remaining injections (from Count)
}

// NewRankFaultSchedule returns an empty schedule; the seed drives the
// coins of Drop rules and the bits Corrupt rules flip.
func NewRankFaultSchedule(seed int64) *RankFaultSchedule {
	return &RankFaultSchedule{seed: seed}
}

// Crash makes rank panic when it reaches two-phase round (via
// Proc.SetRound). Returns the schedule for chaining.
func (s *RankFaultSchedule) Crash(rank, round int) *RankFaultSchedule {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.crashes = append(s.crashes, crashRule{rank: rank, round: round})
	return s
}

// CrashAtSeq makes rank panic at its seq'th collective operation (1-based,
// counting every rendezvous: barriers, allgathers, allreduces, alltoalls).
func (s *RankFaultSchedule) CrashAtSeq(rank int, seq int64) *RankFaultSchedule {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.crashes = append(s.crashes, crashRule{rank: rank, seq: seq})
	return s
}

// CrashAtSend makes rank panic right after its send'th point-to-point send
// (1-based) of two-phase round has left: the message is delivered, and
// whatever the rank would have done while it was in flight (a read-ahead, the
// previous round's write) never happens.
func (s *RankFaultSchedule) CrashAtSend(rank, round int, send int64) *RankFaultSchedule {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.crashes = append(s.crashes, crashRule{rank: rank, round: round, send: send})
	return s
}

// Stall charges rank a virtual-time delay at each of rounds consecutive
// rounds starting at round: the rank keeps running but arrives everywhere
// late, which is what trips deadline detection without tearing the process
// down. One round is a hiccup; more model a persistently slow rank.
func (s *RankFaultSchedule) Stall(rank, round int, d sim.Time, rounds int) *RankFaultSchedule {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stalls = append(s.stalls, stallRule{rank: rank, round: round, delay: d, left: max(rounds, 1)})
	return s
}

// Drop injects message loss on every link out of from (Any for every
// sender): each send is dropped and redelivered with probability prob,
// charging the sender the redelivery penalty (the retransmit timeout)
// before the message leaves. The message itself is still delivered — late
// — so the collective completes; this is a latency fault, not a loss.
func (s *RankFaultSchedule) Drop(from int, prob float64, penalty sim.Time) *RankFaultSchedule {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.drops = append(s.drops, dropRule{from: from, prob: prob, penalty: penalty})
	return s
}

// Corrupt injects silent payload corruption on the from→to link (Any on
// either side matches every rank): each matching send has one bit of its
// payload flipped in flight. The flipped bit is a function of the seed and
// the message alone, like Drop's coin. repeat is how many
// consecutive delivery attempts of one hit arrive corrupted — 1 means the
// first copy only, so a single re-request recovers; a repeat beyond
// integrity.MaxReRequests is unrepairable by construction and forces the
// ErrDataIntegrity abort path. Count caps total injections (0 =
// unlimited). Without World.EnableIntegrity the corruption is truly
// silent: the flipped payload is delivered as if nothing happened.
func (s *RankFaultSchedule) Corrupt(from, to, repeat, count int) *RankFaultSchedule {
	if repeat < 1 {
		repeat = 1
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.corrupts = append(s.corrupts, corruptRule{from: from, to: to, repeat: repeat, left: count})
	return s
}

// Victims returns the distinct ranks targeted by crash and stall rules, in
// ascending order — the failover participants an adaptive trace-sampling
// policy must always sample, since the causal record of their failure and
// recovery is what a postmortem needs.
func (s *RankFaultSchedule) Victims() []int {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	seen := map[int]bool{}
	var out []int
	for _, r := range s.crashes {
		if !seen[r.rank] {
			seen[r.rank] = true
			out = append(out, r.rank)
		}
	}
	for _, r := range s.stalls {
		if !seen[r.rank] {
			seen[r.rank] = true
			out = append(out, r.rank)
		}
	}
	sort.Ints(out)
	return out
}

// Injected returns how many rank faults have fired so far (crashes, stalls
// and redeliveries all count).
func (s *RankFaultSchedule) Injected() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.injected
}

// atRound evaluates round-triggered rules for rank entering round. It
// returns the stall delay to charge (0 for none) and whether the rank
// should crash.
func (s *RankFaultSchedule) atRound(rank, round int) (stall sim.Time, crash bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Rounds are visited in order within a collective, so "fire while
	// charges remain, starting at the rule's round" yields consecutive
	// slow rounds.
	for i := range s.stalls {
		r := &s.stalls[i]
		if r.rank != rank || r.left <= 0 || round < r.round {
			continue
		}
		r.left--
		s.injected++
		stall += r.delay
	}
	for i := range s.crashes {
		r := &s.crashes[i]
		if r.fired || r.seq > 0 || r.send > 0 || r.rank != rank || r.round != round {
			continue
		}
		r.fired = true
		s.injected++
		crash = true
	}
	return stall, crash
}

// crashAt fires the sequence-triggered crash rule that equals at: rank's
// seq'th collective operation, or its send'th point-to-point send of round.
// at is unfired, so a rule matches once; a round-triggered rule (no seq, no
// send) never does.
func (s *RankFaultSchedule) crashAt(at crashRule) (crash bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.crashes {
		if r := &s.crashes[i]; *r == at {
			r.fired, crash = true, true
			s.injected++
		}
	}
	return crash
}

// dropPenalty returns the redelivery latency for the seq'th send from→to
// (0 = deliver normally). The coin hashes only rank-deterministic values,
// so a seeded schedule drops the same messages on every run.
func (s *RankFaultSchedule) dropPenalty(from, to int, seq int64) sim.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	var pen sim.Time
	for i := range s.drops {
		r := &s.drops[i]
		if r.from != Any && r.from != from {
			continue
		}
		if float64(linkCoin(dropSalt, s.seed, i, from, to, seq)>>11)/(1<<53) >= r.prob {
			continue
		}
		s.injected++
		pen += r.penalty
	}
	return pen
}

// corruptHit evaluates corruption rules for the seq'th send from→to. On a
// hit it returns the repeat count (consecutive corrupted delivery
// attempts) and a hash that picks the flipped bit; the first matching
// rule wins.
func (s *RankFaultSchedule) corruptHit(from, to int, seq int64) (repeat int, bitHash uint64, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	// left encodes the remaining budget: 0 = unlimited, >0 = remaining,
	// -1 = exhausted.
	for i := range s.corrupts {
		r := &s.corrupts[i]
		if (r.from != Any && r.from != from) || (r.to != Any && r.to != to) || r.left < 0 {
			continue
		}
		if r.left > 0 {
			if r.left--; r.left == 0 {
				r.left = -1
			}
		}
		s.injected++
		h := linkCoin(corruptSalt, s.seed, i, from, to, seq)
		return r.repeat, integrity.Mix(h + 0x9e3779b97f4a7c15), true
	}
	return 0, 0, false
}

// The salts of the two link coin streams: drop and corrupt rules on the
// same link make independent decisions about the same message, which is
// exactly the redelivery-interaction case the regression tests pin down.
const (
	dropSalt    = 0x9e3779b97f4a7c15
	corruptSalt = 0xd1b54a32d192ed03
)

// linkCoin maps (seed, rule, link, seq) to a 64-bit hash with the
// splitmix64 finalizer chain, salted per stream.
func linkCoin(salt uint64, seed int64, rule, from, to int, seq int64) uint64 {
	x := integrity.Mix(uint64(seed) + salt)
	x = integrity.Mix(x ^ uint64(rule+1)*0xbf58476d1ce4e5b9)
	x = integrity.Mix(x ^ uint64(from+1)*0x94d049bb133111eb)
	x = integrity.Mix(x ^ uint64(to+2))
	x = integrity.Mix(x ^ uint64(seq))
	return x
}
