// Package trace is the virtual-time tracing subsystem: a per-rank event
// recorder for begin/end spans and instant events, stamped with simulated
// time (sim.Time). The paper attributed the new implementation's overheads
// (datatype processing, double buffering) with MPE logging and Jumpshot
// timelines; this package plays the same role for the simulation — every
// two-phase round's flatten / exchange / comm / io / copy phases become
// spans on one track per rank, exported as Chrome trace-event JSON
// (chrome.go) and walked by the critical-path profiler (internal/critpath).
// It keeps no totals: phase sums live in the metrics registry, per-round
// bytes in its flight recorder.
//
// A nil *Tracer (and a nil *Sink) is valid and records nothing, mirroring
// stats.Recorder, so instrumentation can be left in place unconditionally.
// Each rank owns its Tracer and must call it only from that rank's
// goroutine; the Sink itself is immutable after creation, so concurrent
// ranks never share mutable state.
package trace

import (
	"fmt"

	"flexio/internal/sim"
)

// DefaultCapacity is the per-rank event capacity used when a caller passes
// a non-positive capacity. The buffer grows lazily, so the capacity is only
// a ceiling, not an allocation.
const DefaultCapacity = 1 << 20

// Kind classifies an event.
type Kind uint8

const (
	// KindBegin opens a span.
	KindBegin Kind = iota
	// KindEnd closes the innermost open span.
	KindEnd
	// KindInstant marks a point in time.
	KindInstant
)

// Well-known span and tag names shared by the instrumented layers and the
// critical-path walk. Phase spans are named after metrics.Phase and opened
// by mpi.Proc.Begin, whose End books the same interval to the phase's sum.
const (
	// RoundSpan wraps one two-phase round on a rank.
	RoundSpan = "round"
	// RoundTag carries the round index on a span or instant.
	RoundTag = "round"
	// AggTag carries the aggregator id on a span.
	AggTag = "agg"
	// BytesTag carries a byte count on a span or instant.
	BytesTag = "bytes"
)

// Causal message-flow vocabulary (PR 6): every point-to-point delivery and
// collective rendezvous is stamped with paired instants carrying an edge
// (or rendezvous sequence) identifier, so exporters can draw cross-rank
// arrows and the critical-path profiler can rebuild the causal DAG.
const (
	// MsgSendName marks the sender side of a point-to-point edge; tags:
	// EdgeTag (edge id), BytesTag (payload length).
	MsgSendName = "msg_send"
	// MsgRecvName marks the receiver side of the same edge; tags: EdgeTag,
	// BlockedTag (1 when the sender's stamp, not the receive post,
	// governed the completion time — i.e. the receiver waited).
	MsgRecvName = "msg_recv"
	// CollEnterName marks a rank's arrival at a collective rendezvous;
	// tags: SeqTag (the world-global rendezvous generation).
	CollEnterName = "coll_enter"
	// CollExitName marks the rank's release from the rendezvous; tags:
	// SeqTag, ByTag (the rank whose late arrival released everyone).
	CollExitName = "coll_exit"
	// EdgeTag carries the deterministic point-to-point edge id
	// ((seq*size)+src)*size+dst, unique per (src,dst) message.
	EdgeTag = "edge"
	// BlockedTag is 1 when the receiver sat waiting on the sender.
	BlockedTag = "blocked"
	// SeqTag carries the collective rendezvous generation.
	SeqTag = "seq"
	// ByTag carries the rank that held a rendezvous open longest.
	ByTag = "by"
)

// Failure and recovery vocabulary (PR 5 events surfaced on the timeline):
// exporters pair CrashName/FailoverName instants into recovery flow arrows.
const (
	// CrashName marks an injected rank crash on the dying rank's own
	// track; tags: RankTag.
	CrashName = "rank_crash"
	// FailoverName marks a resumed collective noting one dead rank (one
	// instant per dead rank, on rank 0); tags: DeadTag, RealmsTag.
	FailoverName = "failover"
	// RoundSkipName marks a journalled round skipped during a resume
	// (already durable); tags: RoundTag.
	RoundSkipName = "round_skip"
	// RoundReplayName marks a journalled round re-executed during a
	// resume; tags: RoundTag.
	RoundReplayName = "round_replay"
	// RankTag carries a rank id on a crash instant.
	RankTag = "rank"
	// DeadTag carries one dead rank id on a failover instant.
	DeadTag = "dead"
	// RealmsTag carries the post-failover realm count.
	RealmsTag = "realms"
)

// Tag is one key/value annotation on an event. Values are either int64 or
// string; fixed fields keep events allocation-light and exports
// deterministic (tags render in call-site order, never map order).
type Tag struct {
	Key   string
	Str   string
	Int   int64
	IsStr bool
}

// I makes an integer tag.
func I(key string, v int64) Tag { return Tag{Key: key, Int: v} }

// S makes a string tag.
func S(key, v string) Tag { return Tag{Key: key, Str: v, IsStr: true} }

// Event is one recorded trace event.
type Event struct {
	Kind Kind
	Name string
	TS   sim.Time
	Tags []Tag
}

// Tracer records one rank's events into a bounded ring buffer. When the
// buffer is full the oldest events are overwritten and Dropped counts them;
// exporters sanitize the resulting orphan ends.
type Tracer struct {
	rank    int
	cap     int
	buf     []Event
	start   int // index of the oldest event once the ring has wrapped
	dropped int64
	open    []string // names of currently open spans, innermost last
}

// NewTracer returns a tracer for one rank with the given event capacity
// (non-positive means DefaultCapacity). Most callers get tracers from a
// Sink instead.
func NewTracer(rank, capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Tracer{rank: rank, cap: capacity}
}

// Rank returns the rank this tracer records for.
func (t *Tracer) Rank() int {
	if t == nil {
		return -1
	}
	return t.rank
}

func (t *Tracer) push(e Event) {
	if len(t.buf) < t.cap {
		t.buf = append(t.buf, e)
		return
	}
	t.buf[t.start] = e
	t.start = (t.start + 1) % t.cap
	t.dropped++
}

// Begin opens a span named name at virtual time at. Spans nest: End closes
// the innermost open span.
//
// The variadic tags slice is built by the caller even when t is nil, so
// hot-path instrumentation should use the fixed-arity Begin1/Begin2
// variants: they cost nothing when tracing is disabled.
func (t *Tracer) Begin(at sim.Time, name string, tags ...Tag) {
	if t == nil {
		return
	}
	t.push(Event{Kind: KindBegin, Name: name, TS: at, Tags: tags})
	t.open = append(t.open, name)
}

// Begin1 is Begin with exactly one tag; the tag is materialized only when
// tracing is enabled, so disabled-tracer calls are allocation-free.
func (t *Tracer) Begin1(at sim.Time, name string, tag Tag) {
	if t == nil {
		return
	}
	t.push(Event{Kind: KindBegin, Name: name, TS: at, Tags: []Tag{tag}})
	t.open = append(t.open, name)
}

// Begin2 is Begin with exactly two tags, allocation-free when disabled.
func (t *Tracer) Begin2(at sim.Time, name string, t1, t2 Tag) {
	if t == nil {
		return
	}
	t.push(Event{Kind: KindBegin, Name: name, TS: at, Tags: []Tag{t1, t2}})
	t.open = append(t.open, name)
}

// End closes the innermost open span at virtual time at. Calling End with
// no open span is a harness bug and panics loudly.
func (t *Tracer) End(at sim.Time) {
	if t == nil {
		return
	}
	if len(t.open) == 0 {
		panic(fmt.Sprintf("trace: rank %d: End with no open span", t.rank))
	}
	name := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	t.push(Event{Kind: KindEnd, Name: name, TS: at})
}

// Instant records a point event at virtual time at.
//
// Like Begin, prefer Instant1/Instant2 on hot paths.
func (t *Tracer) Instant(at sim.Time, name string, tags ...Tag) {
	if t == nil {
		return
	}
	t.push(Event{Kind: KindInstant, Name: name, TS: at, Tags: tags})
}

// Instant1 is Instant with exactly one tag, allocation-free when disabled.
func (t *Tracer) Instant1(at sim.Time, name string, tag Tag) {
	if t == nil {
		return
	}
	t.push(Event{Kind: KindInstant, Name: name, TS: at, Tags: []Tag{tag}})
}

// Instant2 is Instant with exactly two tags, allocation-free when disabled.
func (t *Tracer) Instant2(at sim.Time, name string, t1, t2 Tag) {
	if t == nil {
		return
	}
	t.push(Event{Kind: KindInstant, Name: name, TS: at, Tags: []Tag{t1, t2}})
}

// Depth returns the number of currently open spans.
func (t *Tracer) Depth() int {
	if t == nil {
		return 0
	}
	return len(t.open)
}

// Dropped returns the number of events lost to ring-buffer overflow.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	return t.dropped
}

// Len returns the number of buffered events.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return len(t.buf)
}

// Events returns the buffered events in record order (oldest first).
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	out := make([]Event, 0, len(t.buf))
	out = append(out, t.buf[t.start:]...)
	out = append(out, t.buf[:t.start]...)
	return out
}

// Reset discards all buffered events and open-span state, making the
// tracer ready for an independent experiment (pairs with
// mpi.World.ResetClocks, which rewinds virtual time to zero).
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.buf = t.buf[:0]
	t.start = 0
	t.dropped = 0
	t.open = t.open[:0]
}

// Check verifies well-formedness: timestamps are monotone non-decreasing
// and spans are balanced (no End without a Begin, nothing left open). The
// balance checks are skipped when events were dropped, since overwriting a
// Begin legitimately orphans its End.
func (t *Tracer) Check() error {
	if t == nil {
		return nil
	}
	var last sim.Time
	depth := 0
	for i, e := range t.Events() {
		if e.TS < last {
			return fmt.Errorf("trace: rank %d: event %d (%s %q) at %v is before %v",
				t.rank, i, kindName(e.Kind), e.Name, e.TS, last)
		}
		last = e.TS
		switch e.Kind {
		case KindBegin:
			depth++
		case KindEnd:
			depth--
			if depth < 0 {
				if t.dropped > 0 {
					depth = 0
					continue
				}
				return fmt.Errorf("trace: rank %d: event %d: End %q with no open span", t.rank, i, e.Name)
			}
		}
	}
	if t.dropped == 0 && (depth != 0 || len(t.open) != 0) {
		return fmt.Errorf("trace: rank %d: %d span(s) left open", t.rank, depth)
	}
	return nil
}

func kindName(k Kind) string {
	switch k {
	case KindBegin:
		return "begin"
	case KindEnd:
		return "end"
	case KindInstant:
		return "instant"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Sink holds one tracer per rank of a simulated world. It is created once,
// before the ranks run, and read (exported) after they finish; the rank
// goroutines only ever touch their own tracers.
type Sink struct {
	tracers []*Tracer
	// sampled marks which ranks carry tracers (nil = all of them); set by
	// NewSampledSink, read through Sampled and SampledCount (sampling.go).
	sampled []bool
}

// NewSink creates a sink with one tracer per rank, each with the given
// event capacity (non-positive means DefaultCapacity).
func NewSink(ranks, capacity int) *Sink {
	if ranks <= 0 {
		panic(fmt.Sprintf("trace: sink needs a positive rank count, got %d", ranks))
	}
	s := &Sink{tracers: make([]*Tracer, ranks)}
	for i := range s.tracers {
		s.tracers[i] = NewTracer(i, capacity)
	}
	return s
}

// Ranks returns the number of tracks.
func (s *Sink) Ranks() int {
	if s == nil {
		return 0
	}
	return len(s.tracers)
}

// Tracer returns rank's tracer (nil for a nil sink).
func (s *Sink) Tracer(rank int) *Tracer {
	if s == nil {
		return nil
	}
	return s.tracers[rank]
}

// Dropped sums dropped events across ranks.
func (s *Sink) Dropped() int64 {
	if s == nil {
		return 0
	}
	var n int64
	for _, t := range s.tracers {
		n += t.Dropped()
	}
	return n
}

// Events returns the total buffered event count across ranks.
func (s *Sink) Events() int {
	if s == nil {
		return 0
	}
	n := 0
	for _, t := range s.tracers {
		n += t.Len()
	}
	return n
}

// Reset clears every rank's tracer.
func (s *Sink) Reset() {
	if s == nil {
		return
	}
	for _, t := range s.tracers {
		t.Reset()
	}
}

// Check verifies well-formedness of every rank's track.
func (s *Sink) Check() error {
	if s == nil {
		return nil
	}
	for _, t := range s.tracers {
		if err := t.Check(); err != nil {
			return err
		}
	}
	return nil
}
