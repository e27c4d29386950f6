package pfs

import (
	"errors"
	"fmt"
	"slices"
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
	// ClassBitflip flips one stored bit of a landed write segment. The
	// stripe-block checksums were recorded for the intended content, so
	// with integrity enabled the next read of the block detects it.
	ClassBitflip
	// ClassTorn loses the tail of a landed write segment: it never reached
	// the media and reads back as zeros (a torn write across a sector
	// boundary). Checksums again cover the intended content.
	//
	// Without FileSystem.EnableIntegrity both at-rest classes are truly
	// silent: reads return the damaged bytes with no error.
	ClassTorn
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
	case ClassBitflip:
		return "bitflip"
	case ClassTorn:
		return "torn"
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
// A request class (transient, partial, io) fails the matching request. An
// at-rest class (bitflip, torn) lets every write segment land and then
// damages its stored bytes: the write succeeds, and only later reads can
// discover that the media lied. At-rest rules see each landed write segment
// as its own op (Off/Len are the segment's, Kind is "write").
//
// The flipped bit is a hash of the schedule seed and the op, never of
// Op.Client: client ids are assigned in Open order, which wall-clock
// goroutine scheduling can permute between runs. It hashes the
// rank-deterministic fields (Seq, Off, Len) instead, so a seeded schedule
// damages the same bit on every run.
type Rule struct {
	// Kind restricts to "read" or "write" ops ("" = both).
	Kind string
	// Rounds restricts to specific collective rounds (nil = any,
	// including ops outside a collective, which carry round -1).
	Rounds []int
	// MinOff bounds the op's starting file offset from below.
	MinOff int64
	// Match is an extra predicate (nil = always). It must be pure: it may
	// not call back into the FileSystem.
	Match func(Op) bool

	// Class is the fault to inject (ClassNone is promoted to ClassIO so a
	// zero-valued class still means "fail").
	Class Class
	// Count caps injections per client (0 = unlimited).
	Count int64
	// Frac is the fraction of the op's data bytes that complete for
	// ClassPartial (clamped to (0,1); default 0.5; the completed byte count
	// is additionally clamped below the full length, so a partial op always
	// returns an error), or of the segment's tail lost for ClassTorn
	// (clamped to (0,1]; default 0.25).
	Frac float64
}

// matches reports whether the rule applies to op.
func (r *Rule) matches(op Op) bool {
	if r.Kind != "" && r.Kind != op.Kind {
		return false
	}
	if len(r.Rounds) > 0 && !slices.Contains(r.Rounds, op.Round) {
		return false
	}
	if op.Off < r.MinOff {
		return false
	}
	if r.Match != nil && !r.Match(op) {
		return false
	}
	return true
}

// flipFault is one evaluated at-rest corruption decision.
type flipFault struct {
	torn bool    // tail lost rather than one bit flipped
	hash uint64  // picks the flipped bit for a bitflip
	frac float64 // tail fraction lost when torn
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
	requests  ruleList
	atRest    ruleList
	brownouts []Brownout
	storms    []RevokeStorm
	hook      FaultHook
	injected  int64
}

// ruleList is one plane's rules in the order they were added; a rule's
// index is its position in its own list.
type ruleList struct {
	rules []Rule
	fired []map[int]int64 // rule index -> client id -> injections
}

// NewFaultSchedule returns an empty schedule. The seed drives the hash that
// picks each flipped bit.
func NewFaultSchedule(seed int64) *FaultSchedule {
	return &FaultSchedule{seed: seed}
}

// Add appends a rule to its plane: an at-rest class to the at-rest rules,
// any other class to the request rules. Earlier rules of a plane win when
// several match. Returns the schedule for chaining.
func (s *FaultSchedule) Add(r Rule) *FaultSchedule {
	s.mu.Lock()
	defer s.mu.Unlock()
	l := &s.requests
	if r.Class == ClassBitflip || r.Class == ClassTorn {
		l = &s.atRest
	}
	l.rules = append(l.rules, r)
	l.fired = append(l.fired, make(map[int]int64))
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

// fire finds the first rule of l that matches op and has injections left
// for op.Client, and charges the injection to it. It returns the rule's
// index, or -1 when none fires. Called with s.mu held.
func (s *FaultSchedule) fire(l *ruleList, op Op) int {
	for idx := range l.rules {
		r := &l.rules[idx]
		if !r.matches(op) {
			continue
		}
		if r.Count > 0 && l.fired[idx][op.Client] >= r.Count {
			continue
		}
		l.fired[idx][op.Client]++
		s.injected++
		return idx
	}
	return -1
}

// evaluate decides what, if anything, to inject into op. It must be called
// without fs.mu held: fault hooks may call back into the file system.
func (s *FaultSchedule) evaluate(op Op) fault {
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
	idx := s.fire(&s.requests, op)
	if idx < 0 {
		return fault{}
	}
	r := &s.requests.rules[idx]
	cl := r.Class
	if cl == ClassNone {
		cl = ClassIO
	}
	frac := r.Frac
	if frac <= 0 || frac >= 1 {
		frac = 0.5
	}
	return fault{class: cl, frac: frac}
}

// evalFlip decides whether the write segment described by op (Off/Len are
// the segment's own) suffers at-rest corruption. The first matching rule
// wins. It is called with fs.mu held, which is safe: at-rest rules have no
// hooks and s.mu nests under fs.mu on every path.
func (s *FaultSchedule) evalFlip(op Op) (flipFault, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	idx := s.fire(&s.atRest, op)
	if idx < 0 {
		return flipFault{}, false
	}
	r := &s.atRest.rules[idx]
	frac := r.Frac
	if frac <= 0 || frac > 1 {
		frac = 0.25
	}
	h := flipCoin(s.seed, idx, op)
	return flipFault{torn: r.Class == ClassTorn, hash: integrity.Mix(h + 0x9e3779b97f4a7c15), frac: frac}, true
}

// flipCoin maps (seed, at-rest rule, op) to a raw 64-bit hash with a
// splitmix64 finalizer chain. Op.Client is deliberately excluded.
func flipCoin(seed int64, rule int, op Op) uint64 {
	x := integrity.Mix(uint64(seed) + 0xd1b54a32d192ed03)
	x = integrity.Mix(x ^ uint64(rule+1)*0xbf58476d1ce4e5b9)
	x = integrity.Mix(x ^ uint64(op.Seq))
	x = integrity.Mix(x ^ uint64(op.Off)*0x94d049bb133111eb)
	x = integrity.Mix(x ^ uint64(op.Len))
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
