package trace

// Adaptive trace sampling (DESIGN §12): at large P a tracer ring per
// rank is O(P) memory and O(P) export cost, but the causal structure the
// critical-path profiler needs is concentrated on a few special ranks —
// node leaders (every member's pre-aggregation traffic funnels through
// them), aggregators (every shuffle round lands on them), and failover
// participants (the ranks whose crash/stall the run is about). A
// SamplePolicy therefore always samples those ranks and reservoir-samples K
// of the remaining members, and the Sink remembers which ranks it sampled so
// downstream coverage accounting (critpath blind spots) stays honest about
// what it could not see.

// SamplePolicy decides which ranks of a world get tracers.
type SamplePolicy struct {
	// Always lists ranks sampled unconditionally: node leaders,
	// aggregators, failover participants. Duplicates and out-of-range
	// entries are ignored.
	Always []int
	// K is the number of additional member ranks (ranks not in Always) to
	// reservoir-sample. Negative or zero samples no members.
	K int
	// Seed drives the deterministic reservoir, so the same policy over the
	// same world picks the same ranks on every run.
	Seed int64
}

// SampleRanks evaluates the policy over a world of the given size:
// sampled[r] reports whether rank r gets a tracer. The member reservoir is
// a deterministic function of (Seed, size, Always), independent of
// goroutine scheduling.
func (p SamplePolicy) SampleRanks(size int) []bool {
	sampled := make([]bool, size)
	for _, r := range p.Always {
		if r >= 0 && r < size {
			sampled[r] = true
		}
	}
	if p.K <= 0 {
		return sampled
	}
	// Classic reservoir over the member ranks in ascending order, with a
	// splitmix-style coin per candidate.
	reservoir := make([]int, 0, p.K)
	seen := 0
	for r := 0; r < size; r++ {
		if sampled[r] {
			continue
		}
		if len(reservoir) < p.K {
			reservoir = append(reservoir, r)
		} else if j := int(sampleCoin(p.Seed, int64(r)) % uint64(seen+1)); j < p.K {
			reservoir[j] = r
		}
		seen++
	}
	for _, r := range reservoir {
		sampled[r] = true
	}
	return sampled
}

// sampleCoin hashes (seed, rank) with the splitmix64 finalizer chain used
// by the fault-injection coins, so reservoir membership is stable across
// runs and goroutine schedules.
func sampleCoin(seed, rank int64) uint64 {
	x := uint64(seed) + 0x9e3779b97f4a7c15
	x ^= uint64(rank+1) * 0xbf58476d1ce4e5b9
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// NewSampledSink creates a sink over ranks tracks where only the sampled
// ranks get tracers; the rest stay nil (a nil *Tracer records nothing, so
// unsampled ranks pay one nil check per instrumentation point and zero
// memory). A nil sampled slice means every rank is sampled, exactly like
// NewSink.
func NewSampledSink(ranks, capacity int, sampled []bool) *Sink {
	if sampled == nil {
		return NewSink(ranks, capacity)
	}
	if ranks <= 0 {
		panic("trace: sink needs a positive rank count")
	}
	s := &Sink{tracers: make([]*Tracer, ranks), sampled: append([]bool(nil), sampled...)}
	for i := range s.tracers {
		if sampled[i] {
			s.tracers[i] = NewTracer(i, capacity)
		}
	}
	return s
}

// Sampled reports whether rank carries a tracer in this sink. A fully
// traced sink (NewSink) reports true for every in-range rank; a nil sink
// reports false.
func (s *Sink) Sampled(rank int) bool {
	if s == nil || rank < 0 || rank >= len(s.tracers) {
		return false
	}
	if s.sampled == nil {
		return true
	}
	return s.sampled[rank]
}

// SampledCount returns how many ranks carry tracers.
func (s *Sink) SampledCount() int {
	if s == nil {
		return 0
	}
	if s.sampled == nil {
		return len(s.tracers)
	}
	n := 0
	for _, ok := range s.sampled {
		if ok {
			n++
		}
	}
	return n
}
