package benchsuite

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"
)

// Result is one measured benchmark point, as committed to the trajectory
// file.
type Result struct {
	Name         string  `json:"name"`
	NsPerOp      float64 `json:"ns_per_op"`
	BytesPerOp   int64   `json:"bytes_per_op"`
	AllocsPerOp  int64   `json:"allocs_per_op"`
	VirtSecPerOp float64 `json:"virt_sec_per_op"`
	// Health snapshot from the live metrics registry (see Session.Health);
	// zero values are omitted so older trajectory entries stay readable.
	Imbalance          float64 `json:"imbalance,omitempty"`
	SieveAmplification float64 `json:"sieve_amplification,omitempty"`
	PageCacheHitRate   float64 `json:"page_cache_hit_rate,omitempty"`
	// Communication-matrix and critical-path columns (see Session.InterNodeFrac
	// and Session.CritPath); critpath coverage is only present for traced
	// configs, and zero values are omitted like the health columns above.
	InterNodeFrac    float64 `json:"internode_frac,omitempty"`
	CritPathCoverage float64 `json:"critpath_coverage,omitempty"`
	// InterNodeBytesPerOp is the shuffle bytes per collective call that
	// crossed node boundaries — the column the two-level-exchange gate
	// (BENCH_PR8.json) regresses against.
	InterNodeBytesPerOp float64 `json:"internode_bytes_per_op,omitempty"`
	// Scale-ready telemetry columns (BENCH_PR9.json): how many ranks the
	// sampling policy traced, the per-node rollup exposition size in
	// bytes, and the fraction of critical-path steps that fell into a
	// sampling blind spot.
	SampledRanks  float64 `json:"sampled_ranks,omitempty"`
	RollupBytes   float64 `json:"rollup_bytes,omitempty"`
	BlindSpotFrac float64 `json:"blind_spot_frac,omitempty"`
}

// File is the on-disk trajectory: label ("before", "after", ...) to the
// full matrix measured under that label. Labels accumulate, so the file
// carries the perf history PR over PR.
type File struct {
	Note    string              `json:"note,omitempty"`
	Results map[string][]Result `json:"results"`
}

// measure runs one config under testing.Benchmark and extracts the tracked
// metrics.
func measure(cfg Config) (Result, error) {
	var failed bool
	r := testing.Benchmark(func(b *testing.B) {
		defer func() {
			if recover() != nil {
				failed = true
				b.SkipNow()
			}
		}()
		Run(b, cfg)
	})
	if failed || r.N == 0 {
		return Result{}, fmt.Errorf("benchsuite: %s failed to run", cfg.Name)
	}
	return Result{
		Name:                cfg.Name,
		NsPerOp:             float64(r.NsPerOp()),
		BytesPerOp:          r.AllocedBytesPerOp(),
		AllocsPerOp:         r.AllocsPerOp(),
		VirtSecPerOp:        r.Extra["virt-s/op"],
		Imbalance:           r.Extra["imbalance"],
		SieveAmplification:  r.Extra["sieve-amp"],
		PageCacheHitRate:    r.Extra["cache-hit"],
		InterNodeFrac:       r.Extra["internode-frac"],
		CritPathCoverage:    r.Extra["critpath-cover"],
		InterNodeBytesPerOp: r.Extra["internode-B/op"],
		SampledRanks:        r.Extra["sampled-ranks"],
		RollupBytes:         r.Extra["rollup-B"],
		BlindSpotFrac:       r.Extra["blind-spot"],
	}, nil
}

// MeasureAll measures every config in the default matrix.
func MeasureAll(logf func(format string, args ...any)) ([]Result, error) {
	var out []Result
	for _, cfg := range Default() {
		res, err := measure(cfg)
		if err != nil {
			return nil, err
		}
		if logf != nil {
			logf("%-30s %12.0f ns/op %10d B/op %8d allocs/op %.6f virt-s/op",
				res.Name, res.NsPerOp, res.BytesPerOp, res.AllocsPerOp, res.VirtSecPerOp)
		}
		out = append(out, res)
	}
	return out, nil
}

// MeasureAllPreagg measures the two-level-exchange matrix (PreaggConfigs)
// with pre-aggregation plus NodeLocal realms on or off.
func MeasureAllPreagg(on bool, logf func(format string, args ...any)) ([]Result, error) {
	var out []Result
	for _, cfg := range PreaggConfigs(on) {
		res, err := measure(cfg)
		if err != nil {
			return nil, err
		}
		if logf != nil {
			logf("%-34s preagg=%-5v %.6f virt-s/op %12.0f internode-B/op %6.3f internode-frac",
				res.Name, on, res.VirtSecPerOp, res.InterNodeBytesPerOp, res.InterNodeFrac)
		}
		out = append(out, res)
	}
	return out, nil
}

// MeasureAllTelemetry measures the scale-ready-telemetry matrix
// (TelemetryConfigs): sampled tracing plus per-node rollups on every row.
func MeasureAllTelemetry(logf func(format string, args ...any)) ([]Result, error) {
	var out []Result
	for _, cfg := range TelemetryConfigs() {
		res, err := measure(cfg)
		if err != nil {
			return nil, err
		}
		if logf != nil {
			logf("%-28s %.6f virt-s/op %4.0f sampled-ranks %8.0f rollup-B %7.4f blind-spot %6.3f critpath-cover",
				res.Name, res.VirtSecPerOp, res.SampledRanks, res.RollupBytes, res.BlindSpotFrac, res.CritPathCoverage)
		}
		out = append(out, res)
	}
	return out, nil
}

// MeasureAllIntegrity measures the checksummed-datapath matrix
// (IntegrityConfigs): the Default rows re-run with wire and at-rest
// integrity armed. Allocation figures come from the testing benchmark;
// the virt-s/op column is replaced by the scheduling-noise-free
// MeasureVirtFloor figure so the 5% virtual-time gate holds a stable
// number against the committed clean baseline.
func MeasureAllIntegrity(logf func(format string, args ...any)) ([]Result, error) {
	var out []Result
	for _, cfg := range IntegrityConfigs() {
		res, err := measure(cfg)
		if err != nil {
			return nil, err
		}
		floor, err := MeasureVirtFloor(cfg, 3, 4)
		if err != nil {
			return nil, err
		}
		res.VirtSecPerOp = floor
		if logf != nil {
			logf("%-40s %12.0f ns/op %10d B/op %8d allocs/op %.6f virt-s/op",
				res.Name, res.NsPerOp, res.BytesPerOp, res.AllocsPerOp, res.VirtSecPerOp)
		}
		out = append(out, res)
	}
	return out, nil
}

// CompareIntegrity holds fresh checksum-on results to the clean baseline
// rows (the BENCH_PR3 "after" matrix): each "integrity/<name>" row must
// stay within its clean counterpart's allocs/op budget (plus graceAllocs —
// the checksum passes reuse the engines' buffers, so integrity must not
// buy allocations) and may cost at most virtTolFrac more virtual time.
// Rows without a clean counterpart, and clean steady-state rows never
// measured, are reported so the gate notices a silently dropped config.
func CompareIntegrity(clean []Result, fresh []Result, virtTolFrac float64, graceAllocs int64) []string {
	base := map[string]Result{}
	for _, r := range clean {
		base[r.Name] = r
	}
	var problems []string
	seen := map[string]bool{}
	for _, r := range fresh {
		name := strings.TrimPrefix(r.Name, "integrity/")
		seen[name] = true
		b, ok := base[name]
		if !ok {
			problems = append(problems, fmt.Sprintf("%s: no clean baseline entry %q", r.Name, name))
			continue
		}
		if limit := b.AllocsPerOp + graceAllocs; r.AllocsPerOp > limit {
			problems = append(problems, fmt.Sprintf(
				"%s: checksum-on allocs/op exceed the clean budget: %d > limit %d (clean %d)",
				r.Name, r.AllocsPerOp, limit, b.AllocsPerOp))
		}
		if limit := b.VirtSecPerOp * (1 + virtTolFrac); b.VirtSecPerOp > 0 && r.VirtSecPerOp > limit {
			problems = append(problems, fmt.Sprintf(
				"%s: checksum-on virtual time regressed: %.6f virt-s/op > limit %.6f (clean %.6f, tolerance %.0f%%)",
				r.Name, r.VirtSecPerOp, limit, b.VirtSecPerOp, virtTolFrac*100))
		}
	}
	var missing []string
	for name := range base {
		if !seen[name] {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	for _, name := range missing {
		problems = append(problems, fmt.Sprintf("%s: clean baseline entry has no checksum-on measurement", name))
	}
	return problems
}

// CompareTelemetry checks fresh telemetry results against the committed
// baseline label: the sampled-rank count must match exactly (the policy is
// deterministic — any drift means the sampling changed), and the rollup
// exposition may grow at most tolFrac (with an absolute grace of
// graceBytes). Names present only on one side are reported so the gate
// notices a silently dropped row.
func CompareTelemetry(baseline []Result, fresh []Result, tolFrac float64, graceBytes float64) []string {
	base := map[string]Result{}
	for _, r := range baseline {
		base[r.Name] = r
	}
	var problems []string
	seen := map[string]bool{}
	for _, r := range fresh {
		seen[r.Name] = true
		b, ok := base[r.Name]
		if !ok {
			problems = append(problems, fmt.Sprintf("%s: no committed baseline entry", r.Name))
			continue
		}
		if r.SampledRanks != b.SampledRanks {
			problems = append(problems, fmt.Sprintf(
				"%s: sampled rank count drifted: %.0f != baseline %.0f",
				r.Name, r.SampledRanks, b.SampledRanks))
		}
		limit := b.RollupBytes * (1 + tolFrac)
		if limit < b.RollupBytes+graceBytes {
			limit = b.RollupBytes + graceBytes
		}
		if r.RollupBytes > limit {
			problems = append(problems, fmt.Sprintf(
				"%s: rollup exposition regressed: %.0f B > limit %.0f (baseline %.0f, tolerance %.0f%%)",
				r.Name, r.RollupBytes, limit, b.RollupBytes, tolFrac*100))
		}
	}
	var missing []string
	for name := range base {
		if !seen[name] {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	for _, name := range missing {
		problems = append(problems, fmt.Sprintf("%s: committed baseline entry was not measured", name))
	}
	return problems
}

// ComparePreagg checks fresh two-level-exchange results against the
// committed baseline label and returns one error line per regression:
// internode bytes per op more than tolFrac worse (with an absolute grace
// of graceBytes so near-zero baselines do not flap on a stray message).
// Names present only on one side are reported, so the gate notices a
// silently dropped row.
func ComparePreagg(baseline []Result, fresh []Result, tolFrac float64, graceBytes float64) []string {
	base := map[string]Result{}
	for _, r := range baseline {
		base[r.Name] = r
	}
	var problems []string
	seen := map[string]bool{}
	for _, r := range fresh {
		seen[r.Name] = true
		b, ok := base[r.Name]
		if !ok {
			problems = append(problems, fmt.Sprintf("%s: no committed baseline entry", r.Name))
			continue
		}
		limit := b.InterNodeBytesPerOp * (1 + tolFrac)
		if limit < b.InterNodeBytesPerOp+graceBytes {
			limit = b.InterNodeBytesPerOp + graceBytes
		}
		if r.InterNodeBytesPerOp > limit {
			problems = append(problems, fmt.Sprintf(
				"%s: internode bytes/op regressed: %.0f > limit %.0f (baseline %.0f, tolerance %.0f%%)",
				r.Name, r.InterNodeBytesPerOp, limit, b.InterNodeBytesPerOp, tolFrac*100))
		}
	}
	var missing []string
	for name := range base {
		if !seen[name] {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	for _, name := range missing {
		problems = append(problems, fmt.Sprintf("%s: committed baseline entry was not measured", name))
	}
	return problems
}

// Load reads a trajectory file; a missing file yields an empty trajectory.
func Load(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return &File{Results: map[string][]Result{}}, nil
	}
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("benchsuite: parse %s: %w", path, err)
	}
	if f.Results == nil {
		f.Results = map[string][]Result{}
	}
	return &f, nil
}

// Save writes the trajectory with stable formatting (sorted labels come
// free with encoding/json map ordering; results keep measurement order).
func (f *File) Save(path string) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Set replaces the results stored under label.
func (f *File) Set(label string, results []Result) {
	if f.Results == nil {
		f.Results = map[string][]Result{}
	}
	f.Results[label] = results
}

// Get returns the result for name under label.
func (f *File) Get(label, name string) (Result, bool) {
	for _, r := range f.Results[label] {
		if r.Name == name {
			return r, true
		}
	}
	return Result{}, false
}

// Compare checks fresh results against the committed baseline label and
// returns one error line per regression: allocs/op more than tolFrac worse
// (with a small absolute grace of graceAllocs to keep tiny counts from
// flapping). Names present only on one side are reported too, so the gate
// notices a silently dropped config.
func Compare(baseline []Result, fresh []Result, tolFrac float64, graceAllocs int64) []string {
	base := map[string]Result{}
	for _, r := range baseline {
		base[r.Name] = r
	}
	var problems []string
	seen := map[string]bool{}
	for _, r := range fresh {
		seen[r.Name] = true
		b, ok := base[r.Name]
		if !ok {
			problems = append(problems, fmt.Sprintf("%s: no committed baseline entry", r.Name))
			continue
		}
		limit := b.AllocsPerOp + int64(float64(b.AllocsPerOp)*tolFrac)
		if limit < b.AllocsPerOp+graceAllocs {
			limit = b.AllocsPerOp + graceAllocs
		}
		if r.AllocsPerOp > limit {
			problems = append(problems, fmt.Sprintf(
				"%s: allocs/op regressed: %d > limit %d (baseline %d, tolerance %.0f%%)",
				r.Name, r.AllocsPerOp, limit, b.AllocsPerOp, tolFrac*100))
		}
	}
	var missing []string
	for name := range base {
		if !seen[name] {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	for _, name := range missing {
		problems = append(problems, fmt.Sprintf("%s: committed baseline entry was not measured", name))
	}
	return problems
}
