package metrics

import (
	"bytes"
	"fmt"
	"maps"
	"math"
	"strings"
	"testing"

	"flexio/internal/bufpool"
)

// TestNilSafety drives every entry point through nil receivers: the
// disabled-metrics path must be inert, mirroring the nil-safe
// recorder and tracer.
func TestNilSafety(t *testing.T) {
	var r *Registry
	r.Add(CIOBytes, 10)
	r.Inc(CIOCalls)
	r.SetGauge(GNAggs, 4)
	r.Observe(HRoundSendBytes, 1024)
	r.Charge(PComm, 1)
	r.SetRealmContext(4, 1<<20, 0, []int64{0, 1})
	r.NoteAbort(3, "transient")
	pr := r.BeginRound()
	r.EndRound(pr, 0, true, 1, 2)
	if r.Counter(CIOBytes) != 0 || r.Gauge(GNAggs) != 0 || r.Hist(HRoundSendBytes) != nil || r.Flight() != nil || r.Rank() != -1 {
		t.Fatal("nil Registry must report zeros")
	}

	var s *Set
	if s.Ranks() != 0 || s.Registry(0) != nil || s.Flight() != nil {
		t.Fatal("nil Set must report zeros")
	}
	if m := s.Merged(); m == nil || m.Counter(CIOCalls) != 0 {
		t.Fatal("nil Set Merged must be an empty registry")
	}
	d := s.Dump(true)
	if d.Ranks != 0 || len(d.Rounds) != 0 {
		t.Fatal("nil Set Dump must be empty")
	}
	var buf bytes.Buffer
	if err := s.WriteProm(&buf); err != nil {
		t.Fatalf("nil Set WriteProm: %v", err)
	}

	var fr *FlightRank
	fr.Record(RoundRecord{})
	if fr.Len() != 0 || fr.Dropped() != 0 {
		t.Fatal("nil FlightRank must report zeros")
	}
}

// TestRegistryBasics checks accumulate/merge semantics.
func TestRegistryBasics(t *testing.T) {
	s := NewSet(2)
	r0, r1 := s.Registry(0), s.Registry(1)
	r0.Add(CIOBytes, 100)
	r1.Add(CIOBytes, 50)
	r0.SetGauge(GNAggs, 2)
	r1.SetGauge(GNAggs, 4)
	r0.Observe(HRoundSendBytes, 1024)
	r1.Observe(HRoundSendBytes, 2048)
	r0.ObservePhase("io", 0.5)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("an unknown phase name must panic, not be dropped")
			}
		}()
		r0.ObservePhase("not-a-phase", 0.5)
	}()

	m := s.Merged()
	if got := m.Counter(CIOBytes); got != 150 {
		t.Fatalf("merged CIOBytes = %d, want 150", got)
	}
	if got := m.Gauge(GNAggs); got != 4 {
		t.Fatalf("merged GNAggs = %v, want 4 (max)", got)
	}
	if got := m.Hist(HRoundSendBytes).Count(); got != 2 {
		t.Fatalf("merged HRoundSendBytes count = %d, want 2", got)
	}
	if got := m.Hist(PIO.Hist()).Sum(); got != 0.5 {
		t.Fatalf("merged PIO.Hist() sum = %v, want 0.5", got)
	}
	if m.Rank() != -1 {
		t.Fatalf("merged rank = %d, want -1", m.Rank())
	}

	r0.Reset()
	if got := s.Merged().Counter(CIOBytes); got != 50 {
		t.Fatalf("after resetting rank 0, merged CIOBytes = %d, want 50", got)
	}
	if r0.Hist(HRoundSendBytes).Count() != 0 || r0.Flight() == nil {
		t.Fatal("Reset must clear the histograms and keep the flight handle")
	}
}

// TestFlightRing checks the bounded ring discipline.
func TestFlightRing(t *testing.T) {
	s := newSetCap(1, 4)
	fr := s.Registry(0).Flight()
	for i := 0; i < 6; i++ {
		fr.Record(RoundRecord{Round: i, SendBytes: int64(i)})
	}
	if fr.Len() != 4 {
		t.Fatalf("ring length = %d, want 4", fr.Len())
	}
	if fr.Dropped() != 2 {
		t.Fatalf("dropped = %d, want 2", fr.Dropped())
	}
	// Oldest surviving record is round 2.
	if got := fr.at(0).Round; got != 2 {
		t.Fatalf("oldest round = %d, want 2", got)
	}
	if got := fr.at(3).Round; got != 5 {
		t.Fatalf("newest round = %d, want 5", got)
	}
	d := s.Dump(false)
	if len(d.Rounds) != 4 || d.Dropped != 2 {
		t.Fatalf("dump rounds = %d dropped = %d, want 4/2", len(d.Rounds), d.Dropped)
	}
}

// TestZeroAllocHotPath asserts the steady-state recording operations
// allocate nothing — the property that lets the collective datapath keep
// metrics enabled everywhere.
func TestZeroAllocHotPath(t *testing.T) {
	s := newSetCap(2, 8)
	r := s.Registry(0)
	disps := []int64{0, 4 << 20}
	r.SetRealmContext(2, 2<<20, 0, disps) // first call may copy; do it outside the measurement

	allocs := testing.AllocsPerRun(200, func() {
		r.Add(CIOBytes, 4096)
		r.Inc(CIOCalls)
		r.SetGauge(GNAggs, 2)
		r.Observe(HRoundRecvBytes, 4096)
		r.Charge(PComm, 0.001)
		r.SetRealmContext(2, 2<<20, 0, disps) // unchanged context: compare-and-skip
		pr := r.BeginRound()
		r.EndRound(pr, 3, true, 100, 200)
	})
	if allocs != 0 {
		t.Fatalf("hot-path allocs/op = %v, want 0", allocs)
	}

	// Disabled metrics must be free too.
	var nilReg *Registry
	allocs = testing.AllocsPerRun(200, func() {
		nilReg.Add(CIOBytes, 4096)
		nilReg.Charge(PComm, 0.001)
		pr := nilReg.BeginRound()
		nilReg.EndRound(pr, 3, true, 100, 200)
	})
	if allocs != 0 {
		t.Fatalf("nil-registry allocs/op = %v, want 0", allocs)
	}
}

// TestRoundDeltas checks that EndRound captures since-BeginRound deltas.
func TestRoundDeltas(t *testing.T) {
	s := NewSet(1)
	r := s.Registry(0)

	r.Add(CSieveSpanBytes, 1000) // pre-round noise the probe must exclude
	pr := r.BeginRound()
	r.Add(CSieveSpanBytes, 4096)
	r.Add(CSieveUsefulBytes, 512)
	r.Inc(CFaults)
	r.EndRound(pr, 7, true, 300, 400)

	fr := r.Flight()
	if fr.Len() != 1 {
		t.Fatalf("flight length = %d, want 1", fr.Len())
	}
	rec := fr.at(0)
	if rec.Round != 7 || !rec.Agg || rec.SendBytes != 300 || rec.RecvBytes != 400 {
		t.Fatalf("round record identity wrong: %+v", rec)
	}
	if rec.SieveSpanBytes != 4096 || rec.SieveUsefulBytes != 512 || rec.Faults != 1 {
		t.Fatalf("round record deltas wrong: %+v", rec)
	}
	if got := r.Counter(CRounds); got != 1 {
		t.Fatalf("CRounds = %d, want 1", got)
	}
	if got := r.Counter(CShuffleSendBytes); got != 300 {
		t.Fatalf("CShuffleSendBytes = %d, want 300", got)
	}
	// Non-aggregator rounds must not count recv bytes.
	pr = r.BeginRound()
	r.EndRound(pr, 8, false, 10, 999)
	if got := r.Counter(CShuffleRecvBytes); got != 400 {
		t.Fatalf("CShuffleRecvBytes = %d, want 400", got)
	}
	if rec := fr.at(1); rec.RecvBytes != 0 {
		t.Fatalf("non-agg RecvBytes = %d, want 0", rec.RecvBytes)
	}
}

// TestDumpDeterministicJSON renders the same state twice and compares
// bytes, and checks abort context and imbalance math.
func TestDumpDeterministicJSON(t *testing.T) {
	build := func() *Set {
		s := NewSet(3)
		for rank := 0; rank < 3; rank++ {
			r := s.Registry(rank)
			pr := r.BeginRound()
			r.EndRound(pr, 0, rank < 2, int64(100*(rank+1)), int64(1000*(rank+1)))
		}
		s.Registry(0).SetRealmContext(2, 1<<16, 0, []int64{0, 1 << 16})
		s.Registry(1).NoteAbort(0, "transient")
		return s
	}
	var b1, b2 bytes.Buffer
	if err := build().Dump(false).WriteJSON(&b1); err != nil {
		t.Fatal(err)
	}
	if err := build().Dump(false).WriteJSON(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("canonical dumps of identical state differ")
	}
	d := build().Dump(false)
	if d.Abort == nil || d.Abort.Round != 0 || d.Abort.Class != "transient" {
		t.Fatalf("abort context = %+v", d.Abort)
	}
	if len(d.Rounds) != 1 {
		t.Fatalf("rounds = %d, want 1", len(d.Rounds))
	}
	// Aggregators are ranks 0 and 1 with recv 1000 and 2000: imbalance
	// = max/mean = 2000/1500.
	want := 2000.0 / 1500.0
	if got := d.Rounds[0].Imbalance; got < want-1e-9 || got > want+1e-9 {
		t.Fatalf("imbalance = %v, want %v", got, want)
	}
	if strings.Contains(b1.String(), "comm_sec") {
		t.Fatal("canonical dump must not carry scheduling-dependent timings")
	}
	// Full dumps add counters.
	full := build().Dump(true)
	if len(full.Counters) == 0 {
		t.Fatal("full dump must carry merged counters")
	}
	// A full dump holds this set's counters only: pool traffic from
	// elsewhere in the process between two dumps changes neither.
	s := build()
	first := s.Dump(true).Counters
	bufpool.Put(bufpool.Get(4096))
	if second := s.Dump(true).Counters; !maps.Equal(first, second) {
		t.Fatalf("two full dumps of one set differ across pool traffic:\n%v\n%v", first, second)
	}
	for name := range first {
		if strings.HasPrefix(name, "bufpool_") {
			t.Fatalf("full dump carries process-wide counter %s", name)
		}
	}
}

// TestImbalance pins the load-skew factor the dump's rounds carry.
func TestImbalance(t *testing.T) {
	if got := Imbalance(nil); got != 0 {
		t.Fatalf("Imbalance(nil) = %v", got)
	}
	if got := Imbalance([]int64{100, 100, 100}); got != 1 {
		t.Fatalf("Imbalance(balanced) = %v", got)
	}
	if got := Imbalance([]int64{300, 100, 0, -5}); got != 1.5 {
		t.Fatalf("Imbalance(skewed) = %v, want 1.5", got)
	}
}

// TestPromRoundTrip writes an exposition and parses it back.
func TestPromRoundTrip(t *testing.T) {
	s := NewSet(2)
	for rank := 0; rank < 2; rank++ {
		r := s.Registry(rank)
		r.Add(CIOBytes, int64(1000*(rank+1)))
		r.Inc(CIOCalls)
		r.SetGauge(GNAggs, 2)
		r.Charge(PComm, 0.25)
		r.Charge(PIO, 1.5)
		pr := r.BeginRound()
		r.EndRound(pr, 0, rank == 0, 512, 1024)
	}
	var buf bytes.Buffer
	if err := s.WriteProm(&buf); err != nil {
		t.Fatalf("WriteProm: %v", err)
	}
	text := buf.String()
	parsed, err := ParseProm(strings.NewReader(text))
	if err != nil {
		t.Fatalf("ParseProm rejected our own exposition: %v\n%s", err, text)
	}
	if got := parsed[`flexio_io_bytes_total{rank="1"}`]; got != 2000 {
		t.Fatalf("io_bytes rank 1 = %v, want 2000", got)
	}
	if got := parsed[`flexio_naggs{rank="0"}`]; got != 2 {
		t.Fatalf("naggs rank 0 = %v, want 2", got)
	}
	// Histogram invariants: _count equals the merged sample count, +Inf
	// bucket equals _count, and _sum survives the round trip.
	if got := parsed[`flexio_phase_seconds_count{phase="comm"}`]; got != 2 {
		t.Fatalf("phase comm count = %v, want 2", got)
	}
	if got := parsed[`flexio_phase_seconds_bucket{phase="comm",le="+Inf"}`]; got != 2 {
		t.Fatalf("phase comm +Inf bucket = %v, want 2", got)
	}
	if got := parsed[`flexio_phase_seconds_sum{phase="comm"}`]; got != 0.5 {
		t.Fatalf("phase comm sum = %v, want 0.5", got)
	}
	if got := parsed[`flexio_round_recv_bytes_count`]; got != 1 {
		t.Fatalf("round_recv_bytes count = %v, want 1", got)
	}
	// Exposition of the same state must be deterministic.
	var buf2 bytes.Buffer
	if err := s.WriteProm(&buf2); err != nil {
		t.Fatal(err)
	}
	if text != buf2.String() {
		t.Fatal("exposition of identical state differs between writes")
	}

	// The parser must reject malformed input.
	for _, bad := range []string{
		"flexio_orphan 1\n",                                 // sample without TYPE
		"# TYPE flexio_x counter\nflexio_x notnum\n",        // bad value
		"# TYPE flexio_x counter\nflexio_x 1\nflexio_x 1\n", // duplicate
		"# TYPE flexio_x wat\n",                             // unknown type
	} {
		if _, err := ParseProm(strings.NewReader(bad)); err == nil {
			t.Fatalf("ParseProm accepted malformed input %q", bad)
		}
	}
}

// TestHistogramBuckets exercises the bucket visitor contract the
// exposition depends on.
func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	h.Observe(1e-6)
	h.Observe(1e-6)
	h.Observe(2.0)
	var total int64
	prev := -1.0
	h.Buckets(func(upper float64, count int64) {
		if upper <= prev {
			t.Fatalf("bucket edges not ascending: %v after %v", upper, prev)
		}
		if count <= 0 {
			t.Fatalf("empty bucket visited (count %d)", count)
		}
		prev = upper
		total += count
	})
	if total != 3 {
		t.Fatalf("visited %d samples, want 3", total)
	}
	var nilH *Histogram
	nilH.Buckets(func(float64, int64) { t.Fatal("nil histogram visited a bucket") })
}

// TestFailoverEventOrderIndependent: an aggregator may journal a resumed
// round (NoteReplay) before rank 0 publishes the dead set (NoteFailover).
// Either order must leave the same event in the dump; the replay used to
// create it empty and the failover note then kept "dead_ranks": null.
func TestFailoverEventOrderIndependent(t *testing.T) {
	dump := func(replayFirst bool) string {
		s := NewSet(2)
		failover := func() { s.Registry(0).NoteFailover([]int{0}, 4) }
		if !replayFirst {
			failover()
		}
		s.Registry(1).NoteReplay(1, 0)
		s.Registry(1).NoteReplay(0, 2)
		failover() // every resuming call of rank 0 reports it again
		var b bytes.Buffer
		if err := s.Dump(false).WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	first, second := dump(false), dump(true)
	if first != second {
		t.Fatalf("dump depends on who reached the recorder first:\n%s\n%s", first, second)
	}
	d := NewSet(1)
	d.Registry(0).NoteReplay(1, 0)
	d.Registry(0).NoteFailover([]int{0}, 4)
	if fo := d.Dump(false).Failover; fo == nil || len(fo.DeadRanks) != 1 || fo.Realms != 4 || fo.RoundsReplayed != 1 {
		t.Fatalf("failover event %+v, want dead [0], 4 realms, 1 round replayed", fo)
	}
}

// FuzzParseProm: whatever text arrives as an exposition (report reads
// files), parsing either fails or returns series that stand in the text, at
// most one per line, and our own rendering of them parses back to the same
// values.
func FuzzParseProm(f *testing.F) {
	s := NewSet(2)
	for rank := 0; rank < 2; rank++ {
		r := s.Registry(rank)
		r.Add(CIOBytes, int64(1000*(rank+1)))
		r.SetGauge(GNAggs, 2)
		r.Charge(PComm, 0.25)
		pr := r.BeginRound()
		r.EndRound(pr, 0, rank == 0, 512, 1024)
	}
	var own bytes.Buffer
	if err := s.WriteProm(&own); err != nil {
		f.Fatal(err)
	}
	f.Add(own.String())
	f.Add("")
	f.Add("flexio_orphan 1\n")                                 // sample without TYPE
	f.Add("# TYPE flexio_x counter\nflexio_x notnum\n")        // bad value
	f.Add("# TYPE flexio_x counter\nflexio_x 1\nflexio_x 1\n") // duplicate
	f.Add("# TYPE flexio_x wat\n")                             // unknown type
	f.Add("# TYPE flexio_h histogram\nflexio_h_bucket{le=\"+Inf\"} 3\nflexio_h_sum NaN\nflexio_h_count 3\n")
	f.Add("# TYPE flexio_x gauge\nflexio_x{a=\"b c\" 1\n") // unterminated labels
	f.Fuzz(func(t *testing.T, text string) {
		got, err := ParseProm(strings.NewReader(text))
		if err != nil {
			return
		}
		if lines := strings.Count(text, "\n") + 1; len(got) > lines {
			t.Fatalf("%d series from %d lines", len(got), lines)
		}
		var again strings.Builder
		for _, series := range PromSeriesNames(got) {
			if series == "" || !strings.Contains(text, series) {
				t.Fatalf("series %q is not in the text", series)
			}
			name, _, _ := strings.Cut(series, "{")
			fmt.Fprintf(&again, "# TYPE %s untyped\n%s %s\n", name, series, formatProm(got[series]))
		}
		back, err := ParseProm(strings.NewReader(again.String()))
		if err != nil {
			t.Fatalf("our rendering of the parsed series does not parse: %v\n%s", err, again.String())
		}
		for series, v := range got {
			if w, ok := back[series]; !ok || (w != v && !(math.IsNaN(w) && math.IsNaN(v))) {
				t.Fatalf("series %q: %v became %v", series, v, w)
			}
		}
	})
}

// newSetCap is NewSet with a flight ring of flightCap rounds per rank.
func newSetCap(ranks, flightCap int) *Set { return newSetKeeping(ranks, flightCap, nil) }

// newSetKeeping is newSetCap with rings only where keep admits.
func newSetKeeping(ranks, flightCap int, keep func(rank int) bool) *Set {
	regs := make([]*Registry, ranks)
	for i := range regs {
		regs[i] = NewRegistry(i)
	}
	return Attach(regs, flightCap, keep)
}
