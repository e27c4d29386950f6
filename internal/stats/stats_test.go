package stats

import (
	"strings"
	"testing"

	"flexio/internal/metrics"
)

// TestNamesMatchSchema: the phase name constants are metrics.Phase's names,
// and the two counter constants are table names of the schema.
func TestNamesMatchSchema(t *testing.T) {
	for ph, name := range map[metrics.Phase]string{metrics.PFlatten: PFlatten, metrics.PPreagg: PPreagg,
		metrics.PExchange: PExchange, metrics.PComm: PComm, metrics.PIO: PIO, metrics.PServe: PServe,
		metrics.PCopy: PCopy, metrics.PBackoff: PBackoff} {
		if ph.String() != name {
			t.Errorf("phase %d is %q, stats spells it %q", ph, ph, name)
		}
	}
	for c, name := range map[metrics.Counter]string{metrics.CPairsProcessed: CPairsProcessed, metrics.CReqBytes: CReqBytes} {
		if metrics.TableName(c) != name {
			t.Errorf("counter %d is %q in the tables, stats spells it %q", c, metrics.TableName(c), name)
		}
	}
}

func TestRecorderBasics(t *testing.T) {
	reg := metrics.NewRegistry(0)
	reg.Charge(metrics.PIO, 1.5)
	reg.Charge(metrics.PIO, 0.5)
	reg.Add(metrics.CIOCalls, 3)
	reg.Add(metrics.CRounds, 9) // no table name: not printed
	r := Of(reg)
	if r.Time(PIO) != 2.0 {
		t.Fatalf("time = %v", r.Time(PIO))
	}
	if r.Counter("io_calls") != 3 {
		t.Fatalf("counter = %d", r.Counter("io_calls"))
	}
	if r.Time("absent") != 0 || r.Counter("absent") != 0 || r.Counter("rounds") != 0 {
		t.Fatal("absent names not zero")
	}
	if got, want := r.String(), "time[io]=2.000000s n[io_calls]=3"; got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
	reg.Reset()
	if r.Time(PIO) != 0 || r.Counter("io_calls") != 0 || r.String() != "" {
		t.Fatal("a reset registry still reads through the view")
	}
}

// TestZeroAddsPrint: a row appears once its counter or phase was added to,
// even by zero, and not before.
func TestZeroAddsPrint(t *testing.T) {
	reg := metrics.NewRegistry(0)
	r := Of(reg)
	if r.Table() != "stats(empty)" {
		t.Fatalf("empty Table = %q", r.Table())
	}
	reg.Add(metrics.CCommBytes, 0)
	reg.Charge(metrics.PCopy, 0)
	if got, want := r.String(), "time[copy]=0.000000s n[bytes_comm]=0"; got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
	if m := Merge(Of(metrics.NewRegistry(1)), r); m.String() != r.String() {
		t.Fatalf("merged String = %q, want %q", m.String(), r.String())
	}
}

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	if r.Time(PIO) != 0 || r.Counter("io_calls") != 0 || len(r.Phases()) != 0 || len(r.Counters()) != 0 {
		t.Fatal("nil recorder returned nonzero")
	}
	if r.String() != "stats(nil)" || r.Table() != "stats(nil)" {
		t.Fatalf("nil String = %q, Table = %q", r.String(), r.Table())
	}
}

func TestMerge(t *testing.T) {
	a, b := metrics.NewRegistry(0), metrics.NewRegistry(1)
	a.Add(metrics.CIOBytes, 10)
	b.Add(metrics.CIOBytes, 32)
	a.Charge(metrics.PComm, 1)
	b.Charge(metrics.PComm, 2)
	m := Merge(Of(a), nil, Of(b))
	if m.Counter("bytes_io") != 42 {
		t.Fatalf("merged counter = %d", m.Counter("bytes_io"))
	}
	if m.Time(PComm) != 3 {
		t.Fatalf("merged time = %v", m.Time(PComm))
	}
}

func TestMergeAllNil(t *testing.T) {
	if m := Merge(nil, nil); m == nil || m.Table() != "stats(empty)" {
		t.Fatalf("Merge of nils should return an empty recorder, got %v", m)
	}
	if m := Merge(); m == nil || m.Table() != "stats(empty)" {
		t.Fatal("Merge of nothing should return an empty recorder")
	}
}

func TestStringIsStable(t *testing.T) {
	reg := metrics.NewRegistry(0)
	reg.Add(metrics.CRetries, 2)
	reg.Add(metrics.CIOCalls, 1)
	reg.Charge(metrics.PServe, 1)
	r := Of(reg)
	s1, s2 := r.String(), r.String()
	if s1 != s2 {
		t.Fatal("String not deterministic")
	}
	if want := "time[ost_service]=1.000000s n[io_calls]=1 n[io_retries]=2"; s1 != want {
		t.Fatalf("String = %q, want %q", s1, want)
	}
}

func TestTable(t *testing.T) {
	reg := metrics.NewRegistry(0)
	reg.Charge(metrics.PIO, 1.25)
	reg.Charge(metrics.PComm, 0.5)
	reg.Add(metrics.CIOCalls, 7)
	reg.Add(metrics.CIOBytes, 4096)
	r := Of(reg)
	got := r.Table()
	if got != r.Table() {
		t.Fatal("Table not deterministic")
	}
	lines := strings.Split(got, "\n")
	// Sections in order, rows sorted within each.
	if !strings.HasPrefix(lines[0], "phase times") {
		t.Fatalf("Table = %q", got)
	}
	commAt := strings.Index(got, PComm)
	ioAt := strings.Index(got, " "+PIO+" ")
	if commAt < 0 || ioAt < 0 || commAt > ioAt {
		t.Fatalf("phase rows unsorted:\n%s", got)
	}
	if !strings.Contains(got, "counters:") ||
		!strings.Contains(got, "bytes_io") || !strings.Contains(got, "4096") {
		t.Fatalf("counter rows missing:\n%s", got)
	}
	// Alignment: names pad to a common width and values right-align to a
	// fixed field, so every data row has the same length.
	rowLen := 0
	for _, ln := range lines {
		if !strings.HasPrefix(ln, "  ") {
			continue
		}
		if rowLen == 0 {
			rowLen = len(ln)
		} else if len(ln) != rowLen {
			t.Fatalf("misaligned row %q (%d chars vs %d):\n%s", ln, len(ln), rowLen, got)
		}
	}
}
