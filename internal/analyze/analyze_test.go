package analyze

import (
	"strings"
	"testing"

	"flexio/internal/metrics"
)

func get(fs []Finding, code string) *Finding {
	for i := range fs {
		if fs[i].Code == code {
			return &fs[i]
		}
	}
	return nil
}

// TestAnalyzeDemo is the acceptance check for the analyzer: on the
// deliberately misaligned, skewed demo workload it must report the
// aggregator-imbalance and realm-misalignment findings with the metric
// values that triggered them.
func TestAnalyzeDemo(t *testing.T) {
	met, err := Demo()
	if err != nil {
		t.Fatalf("demo workload failed: %v", err)
	}
	d := met.Dump(true)
	fs := Analyze(d)
	if len(fs) == 0 {
		t.Fatal("no findings on the pathological demo workload")
	}

	skew := get(fs, "agg-skew")
	if skew == nil {
		t.Fatalf("no agg-skew finding; got %+v", fs)
	}
	// Rank 3's dense megabyte lands on one aggregator while the sparse
	// ranks spread ~288 KiB each: well past the 3x critical bar.
	if skew.Severity != SevCritical {
		t.Errorf("agg-skew severity = %s, want critical: %s", skew.Severity, skew.Summary)
	}
	if !strings.Contains(skew.Summary, "aggregator 3") {
		t.Errorf("agg-skew summary does not name the overloaded aggregator: %s", skew.Summary)
	}
	if !strings.Contains(skew.Summary, "median") || !strings.Contains(skew.Summary, "×") {
		t.Errorf("agg-skew summary lacks triggering values: %s", skew.Summary)
	}

	mis := get(fs, "realm-misaligned")
	if mis == nil {
		t.Fatalf("no realm-misaligned finding; got %+v", fs)
	}
	if mis.Severity != SevCritical {
		t.Errorf("realm-misaligned severity = %s, want critical (all realms misaligned): %s",
			mis.Severity, mis.Summary)
	}
	if !strings.Contains(mis.Summary, "4 of 4") {
		t.Errorf("realm-misaligned summary lacks the misaligned count: %s", mis.Summary)
	}

	fo := get(fs, "failover")
	if fo == nil {
		t.Fatalf("no failover finding; got %+v", fs)
	}
	if fo.Severity != SevWarning {
		t.Errorf("failover severity = %s, want warning: %s", fo.Severity, fo.Summary)
	}
	if !strings.Contains(fo.Summary, "aggregator failover occurred") ||
		!strings.Contains(fo.Summary, "[1]") {
		t.Errorf("failover summary does not name the dead rank: %s", fo.Summary)
	}

	st := get(fs, "straggler")
	if st == nil {
		t.Fatalf("no straggler finding; got %+v", fs)
	}
	if !strings.Contains(st.Summary, "deadline guard tripped") {
		t.Errorf("straggler summary lacks the trip count: %s", st.Summary)
	}

	waste := get(fs, "sieve-waste")
	if waste == nil {
		t.Fatalf("no sieve-waste finding; got %+v", fs)
	}
	if !strings.Contains(waste.Summary, "span bytes") {
		t.Errorf("sieve-waste summary lacks the span/useful values: %s", waste.Summary)
	}

	// Findings must come ranked, most severe first.
	for i := 1; i < len(fs); i++ {
		if fs[i].Score > fs[i-1].Score {
			t.Errorf("findings not ranked: %q (%.1f) after %q (%.1f)",
				fs[i].Code, fs[i].Score, fs[i-1].Code, fs[i-1].Score)
		}
	}

	rep := FormatReport(fs)
	if !strings.Contains(rep, "CRITICAL") || !strings.Contains(rep, "hint:") {
		t.Errorf("report missing severity/hints:\n%s", rep)
	}
}

// TestAnalyzeHealthy: an empty dump yields no findings and an OK report.
func TestAnalyzeHealthy(t *testing.T) {
	s := metrics.NewSet(2)
	d := s.Dump(true)
	// The buffer pools are process-global, so a full dump reflects
	// whatever other tests in this binary did to them; scrub those
	// counters so this test only sees the fresh set.
	for k := range d.Counters {
		if strings.HasPrefix(k, "bufpool_") {
			delete(d.Counters, k)
		}
	}
	if fs := Analyze(d); len(fs) != 0 {
		t.Fatalf("findings on empty dump: %+v", fs)
	}
	if rep := FormatReport(nil); !strings.Contains(rep, "OK") {
		t.Errorf("healthy report = %q", rep)
	}
	if Analyze(nil) != nil {
		t.Error("Analyze(nil) != nil")
	}
}

// TestAnalyzeAbortAndRetries exercises the failure-path findings on a
// synthetic dump.
func TestAnalyzeAbortAndRetries(t *testing.T) {
	d := &metrics.Dump{
		Schema:     metrics.DumpSchema,
		Ranks:      2,
		NAggs:      2,
		StripeSize: 1 << 20,
		Abort:      &metrics.AbortInfo{Round: 3, Class: "io"},
		Counters: map[string]int64{
			"io_calls":   100,
			"io_retries": 40,
			"io_giveups": 2,
		},
	}
	fs := Analyze(d)
	ab := get(fs, "abort")
	if ab == nil || ab.Severity != SevCritical {
		t.Fatalf("abort finding missing or wrong severity: %+v", fs)
	}
	if !strings.Contains(ab.Summary, "round 3") || !strings.Contains(ab.Summary, `"io"`) {
		t.Errorf("abort summary lacks round/class: %s", ab.Summary)
	}
	if g := get(fs, "retry-giveup"); g == nil || g.Severity != SevCritical {
		t.Fatalf("retry-giveup finding missing or wrong severity: %+v", fs)
	}
	// Giveups supersede the plain retry-pressure finding.
	if get(fs, "retry-pressure") != nil {
		t.Error("retry-pressure reported alongside retry-giveup")
	}
}

// TestAnalyzeInterNodeHeavy exercises the topology finding: multi-rank
// nodes whose shuffle traffic mostly crosses node boundaries must be
// flagged with the pre-aggregation hint, and the finding must stay silent
// when the topology is one rank per node or the traffic is mostly local.
func TestAnalyzeInterNodeHeavy(t *testing.T) {
	d := &metrics.Dump{
		Schema: metrics.DumpSchema,
		Ranks:  8,
		NAggs:  8,
		Nodes:  2,
		Counters: map[string]int64{
			"shuffle_internode_bytes": 3 << 20,
			"shuffle_intranode_bytes": 1 << 20,
		},
	}
	f := get(Analyze(d), "internode-heavy")
	if f == nil || f.Severity != SevWarning {
		t.Fatalf("internode-heavy finding missing or wrong severity: %+v", Analyze(d))
	}
	if !strings.Contains(f.Summary, "75%") || !strings.Contains(f.Summary, "8 ranks sharing 2 nodes") {
		t.Errorf("internode-heavy summary lacks triggering values: %s", f.Summary)
	}
	if !strings.Contains(f.Hint, "Preagg") || !strings.Contains(f.Hint, "NodeLocal") {
		t.Errorf("internode-heavy hint lacks the remedy: %s", f.Hint)
	}

	// One rank per node: inter-node traffic is unavoidable, stay silent.
	d.Nodes = 8
	if get(Analyze(d), "internode-heavy") != nil {
		t.Error("internode-heavy reported with one rank per node")
	}

	// Mostly-local traffic: the two-level exchange is already working.
	d.Nodes = 2
	d.Counters["shuffle_internode_bytes"] = 1 << 10
	d.Counters["shuffle_intranode_bytes"] = 4 << 20
	if get(Analyze(d), "internode-heavy") != nil {
		t.Error("internode-heavy reported on mostly intra-node traffic")
	}
}

// TestAnalyzeIntegrity exercises the corruption findings: detected
// mismatches must be reported (critical once anything was unrepairable),
// and a quarantine backlog must surface with the rewrite hint.
func TestAnalyzeIntegrity(t *testing.T) {
	d := &metrics.Dump{
		Schema: metrics.DumpSchema,
		Ranks:  4,
		NAggs:  4,
		Counters: map[string]int64{
			"integrity_wire_mismatches":   6,
			"integrity_wire_repaired":     6,
			"integrity_atrest_mismatches": 3,
			"integrity_quarantined":       3,
			"integrity_repairs":           1,
		},
	}
	fs := Analyze(d)
	cd := get(fs, "corruption-detected")
	if cd == nil || cd.Severity != SevWarning {
		t.Fatalf("corruption-detected missing or wrong severity: %+v", fs)
	}
	if !strings.Contains(cd.Summary, "6 in-flight") || !strings.Contains(cd.Summary, "3 at-rest") {
		t.Errorf("corruption-detected summary lacks triggering values: %s", cd.Summary)
	}
	sb := get(fs, "scrub-backlog")
	if sb == nil || sb.Severity != SevWarning {
		t.Fatalf("scrub-backlog missing or wrong severity: %+v", fs)
	}
	if !strings.Contains(sb.Summary, "2 stripe block(s)") {
		t.Errorf("scrub-backlog summary lacks the backlog count: %s", sb.Summary)
	}
	if !strings.Contains(sb.Hint, "rewrite") {
		t.Errorf("scrub-backlog hint lacks the remedy: %s", sb.Hint)
	}

	// Unrepairable corruption escalates to critical.
	d.Counters["integrity_unrepaired"] = 2
	if cd := get(Analyze(d), "corruption-detected"); cd == nil || cd.Severity != SevCritical {
		t.Fatalf("corruption-detected not critical with unrepaired failures: %+v", cd)
	}

	// Clean runs stay silent.
	clean := &metrics.Dump{Schema: metrics.DumpSchema, Ranks: 4, Counters: map[string]int64{}}
	if fs := Analyze(clean); get(fs, "corruption-detected") != nil || get(fs, "scrub-backlog") != nil {
		t.Errorf("integrity findings on a clean run: %+v", fs)
	}
}
