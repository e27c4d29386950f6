package pfs

import (
	"errors"
	"fmt"
	"sync"

	"flexio/internal/integrity"
	"flexio/internal/sim"
)

// Sentinel errors for fault classification. Every error the fault model
// injects wraps exactly one of these, so callers dispatch with errors.Is
// instead of string matching.
var (
	// ErrIO is a hard storage error: the operation failed with no side
	// effects and retrying it is pointless.
	ErrIO = errors.New("pfs: I/O error")
	// ErrTransient is an EAGAIN-style soft error: the operation failed
	// with no side effects but a later retry may succeed.
	ErrTransient = errors.New("pfs: transient I/O error")
	// ErrPartial marks a short transfer: a prefix of the request's data
	// bytes completed before the error. Concrete errors are *PartialError.
	ErrPartial = errors.New("pfs: partial transfer")
	// ErrDataIntegrity marks a read whose stored bytes failed their
	// stripe-block checksum and could not be repaired — neither from a
	// retained block image nor by an overwrite. Retrying is pointless;
	// only a journal-replay rewrite heals the block. It aliases the
	// integrity package's sentinel so both layers agree under errors.Is.
	ErrDataIntegrity = integrity.ErrDataIntegrity
)

// PartialError reports a short transfer: Written data bytes (a prefix of the
// request's linearized data stream, not of its file span) completed and are
// durable; the remainder was not attempted. It matches ErrPartial under
// errors.Is.
type PartialError struct {
	Written int64
}

func (e *PartialError) Error() string {
	return fmt.Sprintf("pfs: partial transfer: %d bytes completed", e.Written)
}

// Is makes errors.Is(err, ErrPartial) true for any *PartialError.
func (e *PartialError) Is(target error) bool { return target == ErrPartial }

// Class is the kind of fault a schedule rule injects.
type Class int

const (
	// ClassNone injects nothing.
	ClassNone Class = iota
	// ClassTransient aborts the op with ErrTransient and no side effects.
	ClassTransient
	// ClassPartial completes a prefix of the op's data bytes and returns
	// a *PartialError describing how far it got.
	ClassPartial
	// ClassIO aborts the op with ErrIO and no side effects.
	ClassIO
)

// String names the class for trace tags and tables.
func (c Class) String() string {
	switch c {
	case ClassNone:
		return "none"
	case ClassTransient:
		return "transient"
	case ClassPartial:
		return "partial"
	case ClassIO:
		return "io"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// classifyErr maps an arbitrary error onto the fault taxonomy. Unknown
// errors count as hard.
func classifyErr(err error) Class {
	switch {
	case err == nil:
		return ClassNone
	case errors.Is(err, ErrPartial):
		return ClassPartial
	case errors.Is(err, ErrTransient):
		return ClassTransient
	default:
		return ClassIO
	}
}

// Rule matches a subset of operations and injects one fault class into
// them. All match fields are conjunctive; zero values match everything.
//
// Rules deliberately do not key probability coins on Op.Client: client ids
// are assigned in Open order, which wall-clock goroutine scheduling can
// permute between runs. Coins hash the rank-deterministic fields (Seq, Off,
// Len, Kind) instead, so a seeded schedule makes identical decisions on
// every run.
type Rule struct {
	// Kind restricts to "read" or "write" ops ("" = both).
	Kind string
	// Name restricts to one file ("" = any).
	Name string
	// Rounds restricts to specific collective rounds (nil = any,
	// including ops outside a collective, which carry round -1).
	Rounds []int
	// MinSeq/MaxSeq bound the per-client operation sequence number
	// (1-based; zero = unbounded).
	MinSeq, MaxSeq int64
	// MinSegs restricts to list ops carrying at least this many segments.
	MinSegs int
	// MinOff/MaxOff bound the op's starting file offset (MaxOff zero =
	// unbounded; MaxOff is exclusive).
	MinOff, MaxOff int64
	// After/Until bound the op's virtual issue time (zero = unbounded;
	// Until is exclusive). Virtual times depend on simulated contention,
	// so time-windowed rules are best combined with Prob == 0 (always).
	After, Until sim.Time
	// Match is an extra predicate (nil = always). It must be pure: it may
	// not call back into the FileSystem.
	Match func(Op) bool

	// Class is the fault to inject (ClassNone is promoted to ClassIO so a
	// zero-valued class still means "fail").
	Class Class
	// Prob in (0,1) injects with that probability per matching op, decided
	// by a deterministic hash of the schedule seed and the op; outside
	// (0,1) the rule always fires.
	Prob float64
	// Count caps injections per client (0 = unlimited).
	Count int64
	// PartialFrac is the fraction of the op's data bytes that complete
	// for ClassPartial (clamped to (0,1); default 0.5). The completed
	// byte count is additionally clamped below the full length, so a
	// partial op always returns an error.
	PartialFrac float64
}

// matches reports whether the rule applies to op at virtual time now.
func (r *Rule) matches(op Op, now sim.Time) bool {
	if r.Kind != "" && r.Kind != op.Kind {
		return false
	}
	if r.Name != "" && r.Name != op.Name {
		return false
	}
	if len(r.Rounds) > 0 {
		found := false
		for _, rd := range r.Rounds {
			if rd == op.Round {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	if r.MinSeq > 0 && op.Seq < r.MinSeq {
		return false
	}
	if r.MaxSeq > 0 && op.Seq > r.MaxSeq {
		return false
	}
	if r.MinSegs > 0 && op.Segs < r.MinSegs {
		return false
	}
	if op.Off < r.MinOff {
		return false
	}
	if r.MaxOff > 0 && op.Off >= r.MaxOff {
		return false
	}
	if r.After > 0 && now < r.After {
		return false
	}
	if r.Until > 0 && now >= r.Until {
		return false
	}
	if r.Match != nil && !r.Match(op) {
		return false
	}
	return true
}

// FlipRule injects silent at-rest corruption into the stored bytes of
// matching writes: the data lands, the write succeeds, and only later reads
// can discover the damage — the media lied. Two kinds:
//
//   - "bitflip": one stored bit inside the written span flips after the
//     write completes. The stripe-block checksums were recorded for the
//     intended content, so with integrity enabled the next read of the
//     block detects the mismatch.
//   - "torn": the tail of the written span never reaches the media and
//     reads back as zeros (torn write across a sector boundary). Checksums
//     again cover the intended content, so the loss is detectable.
//
// Without FileSystem.EnableIntegrity the corruption is truly silent:
// reads return the damaged bytes with no error. Like Rule coins, flip
// coins hash only rank-deterministic op fields, never Op.Client.
type FlipRule struct {
	// Kind is "bitflip" or "torn" ("" is promoted to "bitflip").
	Kind string
	// Name restricts to one file ("" = any).
	Name string
	// Rounds restricts to specific collective rounds (nil = any).
	Rounds []int
	// MinSeq/MaxSeq bound the per-client operation sequence number
	// (1-based; zero = unbounded).
	MinSeq, MaxSeq int64
	// MinOff/MaxOff bound the segment's starting file offset (MaxOff zero =
	// unbounded; MaxOff is exclusive).
	MinOff, MaxOff int64
	// Prob in (0,1) injects with that probability per matching write
	// segment; outside (0,1) the rule always fires.
	Prob float64
	// Count caps injections per client (0 = unlimited).
	Count int64
	// TornFrac is the fraction of the segment's tail lost for "torn"
	// (clamped to (0,1]; default 0.25).
	TornFrac float64
}

// matches reports whether the flip rule applies to the write segment
// described by op (Off/Len are the segment's, not the whole list op's).
func (r *FlipRule) matches(op Op) bool {
	if r.Name != "" && r.Name != op.Name {
		return false
	}
	if len(r.Rounds) > 0 {
		found := false
		for _, rd := range r.Rounds {
			if rd == op.Round {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	if r.MinSeq > 0 && op.Seq < r.MinSeq {
		return false
	}
	if r.MaxSeq > 0 && op.Seq > r.MaxSeq {
		return false
	}
	if op.Off < r.MinOff || (r.MaxOff > 0 && op.Off >= r.MaxOff) {
		return false
	}
	return true
}

// flipFault is one evaluated at-rest corruption decision.
type flipFault struct {
	kind string  // "bitflip" or "torn"
	hash uint64  // picks the flipped bit for "bitflip"
	frac float64 // tail fraction lost for "torn"
}

// Brownout temporarily degrades OST service: requests arriving in
// [From, Until) are slowed by the multiplicative Slowdown and pay
// ExtraLatency on top.
type Brownout struct {
	// OST selects one target (-1 = all OSTs).
	OST int
	// From/Until is the active virtual-time window (Until exclusive;
	// Until zero = forever).
	From, Until sim.Time
	// Slowdown multiplies service time (values <= 1 add nothing).
	Slowdown float64
	// ExtraLatency is added to each affected request's service time.
	ExtraLatency sim.Time
}

func (b *Brownout) active(ost int, now sim.Time) bool {
	if b.OST >= 0 && b.OST != ost {
		return false
	}
	if now < b.From {
		return false
	}
	if b.Until > 0 && now >= b.Until {
		return false
	}
	return true
}

// RevokeStorm models a lock-revocation storm (e.g. a competing job churning
// the distributed lock manager): while active, every lock grant pays
// PerGrant extra revocation round-trips.
type RevokeStorm struct {
	// From/Until is the active virtual-time window (Until exclusive;
	// Until zero = forever).
	From, Until sim.Time
	// PerGrant is the number of extra revokes charged per lock grant.
	PerGrant int
}

// FaultSchedule is a seeded, deterministic, virtual-time-aware fault plan:
// a set of error-injection rules plus OST brownouts and lock-revoke storms.
// It is safe for concurrent use by many clients, and — given the same seed,
// rules, and per-rank operation streams — makes the same decisions on every
// run regardless of goroutine scheduling.
type FaultSchedule struct {
	mu        sync.Mutex
	seed      int64
	rules     []Rule
	fired     []map[int]int64 // rule index -> client id -> injections
	flips     []FlipRule
	flipFired []map[int]int64 // flip index -> client id -> injections
	brownouts []Brownout
	storms    []RevokeStorm
	hook      FaultHook
	injected  int64
}

// NewFaultSchedule returns an empty schedule. The seed drives the
// probability coins of rules with Prob in (0,1).
func NewFaultSchedule(seed int64) *FaultSchedule {
	return &FaultSchedule{seed: seed}
}

// Add appends a rule; earlier rules win when several match. Returns the
// schedule for chaining.
func (s *FaultSchedule) Add(r Rule) *FaultSchedule {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rules = append(s.rules, r)
	s.fired = append(s.fired, make(map[int]int64))
	return s
}

// AddFlip appends an at-rest corruption rule; the first matching flip rule
// wins per write segment. Returns the schedule for chaining.
func (s *FaultSchedule) AddFlip(r FlipRule) *FaultSchedule {
	if r.Kind == "" {
		r.Kind = "bitflip"
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.flips = append(s.flips, r)
	s.flipFired = append(s.flipFired, make(map[int]int64))
	return s
}

// AddBrownout appends an OST brownout window.
func (s *FaultSchedule) AddBrownout(b Brownout) *FaultSchedule {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.brownouts = append(s.brownouts, b)
	return s
}

// AddStorm appends a lock-revoke storm window.
func (s *FaultSchedule) AddStorm(st RevokeStorm) *FaultSchedule {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.storms = append(s.storms, st)
	return s
}

// WithHook installs a FaultHook, consulted before the rules; a
// non-nil hook error aborts the op with that error, classified by its
// wrapped sentinel (unknown errors count as hard). The hook runs without
// any file-system lock held, so it may call back into the FileSystem.
func (s *FaultSchedule) WithHook(h FaultHook) *FaultSchedule {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.hook = h
	return s
}

// Injected returns the total number of faults injected so far (hook aborts
// included).
func (s *FaultSchedule) Injected() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.injected
}

// fault is one evaluated injection decision.
type fault struct {
	class Class
	frac  float64 // completed fraction for ClassPartial
	err   error   // hook-provided error (nil for rule faults)
}

// wrapped returns the error the op should wrap.
func (f fault) wrapped() error {
	if f.err != nil {
		return f.err
	}
	if f.class == ClassTransient {
		return ErrTransient
	}
	return ErrIO
}

// evaluate decides what, if anything, to inject into op issued at now. It
// must be called without fs.mu held: fault hooks may call back into the
// file system.
func (s *FaultSchedule) evaluate(op Op, now sim.Time) fault {
	s.mu.Lock()
	hook := s.hook
	s.mu.Unlock()
	if hook != nil {
		if err := hook(op); err != nil {
			s.mu.Lock()
			s.injected++
			s.mu.Unlock()
			return fault{class: classifyErr(err), err: err}
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	for idx := range s.rules {
		r := &s.rules[idx]
		if !r.matches(op, now) {
			continue
		}
		if r.Prob > 0 && r.Prob < 1 && coin(s.seed, idx, op) >= r.Prob {
			continue
		}
		if r.Count > 0 {
			if s.fired[idx][op.Client] >= r.Count {
				continue
			}
		}
		s.fired[idx][op.Client]++
		s.injected++
		cl := r.Class
		if cl == ClassNone {
			cl = ClassIO
		}
		frac := r.PartialFrac
		if frac <= 0 || frac >= 1 {
			frac = 0.5
		}
		return fault{class: cl, frac: frac}
	}
	return fault{}
}

// evalFlip decides whether the write segment described by op (Off/Len are
// the segment's own) suffers at-rest corruption. The first matching rule
// wins. It is called with fs.mu held, which is safe: flip rules have no
// hooks and s.mu nests under fs.mu on every path.
func (s *FaultSchedule) evalFlip(op Op) (flipFault, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for idx := range s.flips {
		r := &s.flips[idx]
		if !r.matches(op) {
			continue
		}
		h := flipCoin(s.seed, idx, op)
		if r.Prob > 0 && r.Prob < 1 && float64(h>>11)/float64(1<<53) >= r.Prob {
			continue
		}
		if r.Count > 0 && s.flipFired[idx][op.Client] >= r.Count {
			continue
		}
		s.flipFired[idx][op.Client]++
		s.injected++
		frac := r.TornFrac
		if frac <= 0 || frac > 1 {
			frac = 0.25
		}
		return flipFault{kind: r.Kind, hash: mix(h + 0x9e3779b97f4a7c15), frac: frac}, true
	}
	return flipFault{}, false
}

// flipCoin maps (seed, flip rule, op) to a raw 64-bit hash. It is salted
// differently from coin, so flip decisions are independent of error-rule
// decisions about the same op. Op.Client is deliberately excluded.
func flipCoin(seed int64, rule int, op Op) uint64 {
	x := mix(uint64(seed) + 0xd1b54a32d192ed03)
	x = mix(x ^ uint64(rule+1)*0xbf58476d1ce4e5b9)
	x = mix(x ^ uint64(op.Seq))
	x = mix(x ^ uint64(op.Off)*0x94d049bb133111eb)
	x = mix(x ^ uint64(op.Len))
	return x
}

// slowdown returns the combined brownout penalty for a request served by
// ost at virtual time now: a service-time multiplier (>= 1) and additive
// latency.
func (s *FaultSchedule) slowdown(ost int, now sim.Time) (mult float64, extra sim.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	mult = 1
	for i := range s.brownouts {
		b := &s.brownouts[i]
		if !b.active(ost, now) {
			continue
		}
		if b.Slowdown > 1 {
			mult *= b.Slowdown
		}
		if b.ExtraLatency > 0 {
			extra += b.ExtraLatency
		}
	}
	return mult, extra
}

// stormRevokes returns how many extra revokes each lock grant pays at now.
func (s *FaultSchedule) stormRevokes(now sim.Time) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	per := 0
	for i := range s.storms {
		st := &s.storms[i]
		if now < st.From {
			continue
		}
		if st.Until > 0 && now >= st.Until {
			continue
		}
		per += st.PerGrant
	}
	return per
}

// coin maps (seed, rule, op) to a uniform value in [0,1) with a splitmix64
// finalizer chain. Op.Client is deliberately excluded — see Rule.
func coin(seed int64, rule int, op Op) float64 {
	x := mix(uint64(seed) + 0x9e3779b97f4a7c15)
	x = mix(x ^ uint64(rule+1)*0xbf58476d1ce4e5b9)
	x = mix(x ^ uint64(op.Seq))
	x = mix(x ^ uint64(op.Off)*0x94d049bb133111eb)
	x = mix(x ^ uint64(op.Len))
	if op.Kind == "read" {
		x = mix(x ^ 0x517cc1b727220a95)
	}
	return float64(x>>11) / float64(1<<53)
}

func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
