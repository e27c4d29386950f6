package main

import (
	"encoding/json"
	"math"
	"reflect"
	"regexp"
	"sort"
	"testing"

	"flexio/internal/datatype"
)

func quickOptions() options {
	return options{seed: 1, seconds: 1, quick: true, endToEnd: true, perLayer: true}
}

// TestQuickRunEmitsTheDeclaredNames runs every workload once in -quick mode
// and checks the emitted names against BENCHMARK.json: every declared name
// once per workload, nothing extra, every op correct, spans linked.
func TestQuickRunEmitsTheDeclaredNames(t *testing.T) {
	spec, err := loadSpec("")
	if err != nil {
		t.Fatal(err)
	}
	nameOK := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := make(map[string]bool)
	declared := func(kind string, ms []specMetric, defs []metricDef) []string {
		var names []string
		for i, m := range ms {
			if !nameOK.MatchString(m.Name) {
				t.Errorf("%s name %q is not [A-Za-z0-9_.-]+", kind, m.Name)
			}
			if seen[m.Name] {
				t.Errorf("%s name %q is used twice", kind, m.Name)
			}
			seen[m.Name] = true
			names = append(names, m.Name)
			if i < len(defs) && (defs[i].name != m.Name || defs[i].unit != m.Unit || defs[i].better != m.Better) {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the program %+v", kind, i, m, defs[i])
			}
		}
		if len(ms) != len(defs) {
			t.Errorf("BENCHMARK.json lists %d %s metrics, the program %d", len(ms), kind, len(defs))
		}
		sort.Strings(names)
		return names
	}
	e2eNames := declared("end_to_end", spec.EndToEnd, endToEndDefs)
	layerNames := declared("per_layer", spec.PerLayer, perLayerDefs())
	for _, d := range perLayerDefs() {
		if d.moves == "" {
			t.Errorf("per-layer metric %s has no moves entry", d.name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if !nameOK.MatchString(w.Name) || seen[w.Name] {
			t.Errorf("workload name %q is malformed or reused", w.Name)
		}
		seen[w.Name] = true
	}

	sp := newSpanLog(spanCapacity(workloads, quickOptions()))
	results, err := measure(workloads, quickOptions(), sp)
	if err != nil {
		t.Fatal(err)
	}
	keys := func(m map[string]metricValue) []string {
		var out []string
		for k, v := range m {
			if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				t.Errorf("%s is %v", k, v.Value)
			}
			out = append(out, k)
		}
		sort.Strings(out)
		return out
	}
	if len(results) != len(workloads) {
		t.Errorf("measured %d workloads, want %d", len(results), len(workloads))
	}
	for _, wl := range workloads {
		res := results[wl.name]
		if res == nil {
			t.Errorf("%s: no result", wl.name)
			continue
		}
		if got := keys(res.EndToEnd); !reflect.DeepEqual(got, e2eNames) {
			t.Errorf("%s: end-to-end names %v, want %v", wl.name, got, e2eNames)
		}
		if got := keys(res.PerLayer); !reflect.DeepEqual(got, layerNames) {
			t.Errorf("%s: per-layer names %v, want %v", wl.name, got, layerNames)
		}
		if res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: %d of %d ops failed", wl.name, res.Failed, res.Attempted)
		}
		if _, err := json.Marshal(res); err != nil {
			t.Errorf("%s: result does not marshal: %v", wl.name, err)
		}
		if c := res.PerLayer["critpath.coverage"].Value; c < 0.99 {
			t.Errorf("%s: critical-path coverage %v < 0.99", wl.name, c)
		}
		shares := 0.0
		for _, part := range []string{"io", "comm", "exchange", "flatten", "copy", "blocked", "other"} {
			shares += res.PerLayer["critpath.share_"+part].Value
		}
		if math.Abs(shares-1) > 0.01 {
			t.Errorf("%s: critical-path shares sum to %v", wl.name, shares)
		}
	}
	// The per-layer story the workloads were chosen to tell.
	if v := results["sieve-write"].PerLayer["core.memo_hit_ratio"].Value; v != 1 {
		t.Errorf("sieve-write memo hit ratio %v, want 1", v)
	}
	if v := results["ckpt-write"].PerLayer["core.memo_hit_ratio"].Value; v != 0 {
		t.Errorf("ckpt-write memo hit ratio %v, want 0", v)
	}
	if v := results["sieve-write"].PerLayer["pfs.sieve_amp"].Value; math.Abs(v-1.5) > 0.05 {
		t.Errorf("sieve-write sieve amplification %v, want about 1.5", v)
	}
	net := results["net-shuffle-write"].PerLayer
	for _, ph := range []string{"flatten", "exchange", "io", "copy", "preagg"} {
		if net["core.virt_"+ph+"_ms"].Value >= net["core.virt_comm_ms"].Value {
			t.Errorf("net-shuffle-write: %s is not below comm in virtual time", ph)
		}
	}

	for _, s := range sp.spans {
		if s.EndNS < s.StartNS {
			t.Fatalf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		if s.Parent == 0 {
			continue
		}
		if s.Parent >= s.ID {
			t.Fatalf("span %d (%s) has parent %d, which is not older", s.ID, s.Name, s.Parent)
		}
		p := sp.spans[s.Parent-1]
		if p.Workload != s.Workload || p.Repeat != s.Repeat {
			t.Fatalf("span %d (%s) does not share its parent's workload and repeat", s.ID, s.Name)
		}
	}
	sum := sp.summary()
	for _, name := range []string{"repeat", "setup.world", "setup.open", "setup.seed", "setup.warm", "op", "verify", "rollover", "layers"} {
		if sum[name].Count == 0 {
			t.Errorf("no %q span was recorded", name)
		}
	}
}

// TestVerifierCountsCorruptedOps proves the verifier can fail: one flipped
// byte in a written file or in a read buffer fails exactly the ops it
// invalidates.
func TestVerifierCountsCorruptedOps(t *testing.T) {
	const ops = 6
	flipFileByte := func(s *session) {
		// The first region of the rank holding slot 0 starts at offset 0.
		img := s.fs.Snapshot(fileName, 1)
		h := s.fs.NewClient(nil).Open(fileName)
		if _, err := h.WriteAt(0, []byte{img[0] ^ 0xff}, s.world.MaxClock()); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		workload string
		tamper   tamperFn
		failed   int
	}{
		{"sieve-write", nil, 0},
		// The image is compared after the first op: that op alone fails,
		// and op 1 overwrites the damage.
		{"sieve-write", func(op int, s *session) {
			if op == 0 {
				flipFileByte(s)
			}
		}, 1},
		// Damage after the last op fails every op since the last good
		// compare, which was after op 0.
		{"sieve-write", func(op int, s *session) {
			if op == ops-1 {
				flipFileByte(s)
			}
		}, ops - 1},
		{"sieve-read", nil, 0},
		{"sieve-read", func(op int, s *session) {
			if op == 2 || op == 4 {
				s.readBufs[3][17] ^= 1
			}
		}, 2},
	}
	for _, c := range cases {
		wl := findWorkload(c.workload)
		res, err := runRepeat(wl, wl.shape(1), ops, false, newSpanLog(64), 1, c.tamper)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.opNS) != ops || res.failed != c.failed {
			t.Errorf("%s: %d of %d ops failed, want %d of %d", c.workload, res.failed, len(res.opNS), c.failed, ops)
		}
	}
}

// views flattens every rank's step-th view into absolute segments, ordered
// by displacement so that a permutation of the ranks compares equal.
func views(sh shape, step int) [][]datatype.Seg {
	var out [][]datatype.Seg
	for r := 0; r < sh.ranks(); r++ {
		disp, ft := sh.view(r, step)
		mt, count := sh.memory(r)
		segs, _ := datatype.Segments(ft, disp, datatype.TotalSize(mt, count)/ft.Size())
		out = append(out, segs)
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0].Off < out[j][0].Off })
	return out
}

// TestGeneratorIsDeterministic: one seed, one set of inputs; another seed,
// other payload bytes in the same shapes.
func TestGeneratorIsDeterministic(t *testing.T) {
	for _, wl := range workloads {
		a, b, other := wl.shape(7), wl.shape(7), wl.shape(8)
		steps := 2
		for step := 0; step < steps; step++ {
			if !reflect.DeepEqual(views(a, step), views(b, step)) {
				t.Errorf("%s: step %d views differ between two runs of one seed", wl.name, step)
			}
			if !reflect.DeepEqual(views(a, step), views(other, step)) {
				t.Errorf("%s: step %d views differ in shape between seeds", wl.name, step)
			}
			same := true
			for r := 0; r < a.ranks(); r++ {
				if !reflect.DeepEqual(a.payload(r, step), b.payload(r, step)) {
					t.Errorf("%s: rank %d step %d payload differs between two runs of one seed", wl.name, r, step)
				}
				if len(a.payload(r, step)) != len(other.payload(r, step)) {
					t.Errorf("%s: rank %d payload length differs between seeds", wl.name, r)
				}
				same = same && reflect.DeepEqual(a.payload(r, step), other.payload(r, step))
				ma, ca := a.memory(r)
				mo, co := other.memory(r)
				if ca != co || !reflect.DeepEqual(ma.Flatten(), mo.Flatten()) || ma.Extent() != mo.Extent() {
					t.Errorf("%s: rank %d memory type differs between seeds", wl.name, r)
				}
			}
			if same {
				t.Errorf("%s: step %d payloads are the same under two seeds", wl.name, step)
			}
		}
		if !reflect.DeepEqual(a.image(steps), b.image(steps)) {
			t.Errorf("%s: reference image differs between two runs of one seed", wl.name)
		}
		if ia, io := a.image(steps), other.image(steps); len(ia) != len(io) || reflect.DeepEqual(ia, io) {
			t.Errorf("%s: reference images of two seeds must differ in bytes only", wl.name)
		}
		if a.userBytes() != other.userBytes() {
			t.Errorf("%s: bytes per op differ between seeds", wl.name)
		}
	}
	data, err := json.Marshal(result{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	var back map[string]any
	if err := json.Unmarshal(data, &back); err != nil || back["seed"] != float64(7) {
		t.Errorf("the result file does not record the seed: %s", data)
	}
}

func TestQuartileSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	v := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got := quartileSpread(v); math.Abs(got-1) > 1e-12 {
		t.Errorf("quartile spread %v, want 1", got)
	}
}

func TestJudge(t *testing.T) {
	lower := specMetric{Name: "host_us_per_op", Better: "lower", Bound: 0.10}
	higher := specMetric{Name: "virt_mb_per_s", Better: "higher", Bound: 0.03}
	mv := func(runs ...float64) metricValue { return metricValue{Value: median(runs), Runs: runs} }
	cases := []struct {
		name string
		m    specMetric
		a, b metricValue
		want string
	}{
		{"same", lower, mv(100, 101, 102, 103, 104), mv(100, 101, 102, 103, 104), "ok"},
		{"within the bound", lower, mv(100, 101, 102, 103, 104), mv(105, 106, 107, 108, 109), "ok"},
		{"slower", lower, mv(100, 101, 102, 103, 104), mv(120, 121, 122, 123, 124), "regressed"},
		{"faster", lower, mv(100, 101, 102, 103, 104), mv(50, 51, 52, 53, 54), "ok"},
		{"noisy", lower, mv(80, 90, 100, 110, 120), mv(85, 95, 105, 115, 125), "unresolved"},
		{"noisy but every run worse", lower, mv(80, 90, 100, 110, 120), mv(130, 140, 150, 160, 170), "regressed"},
		{"noisy but every run better", lower, mv(80, 90, 100, 110, 120), mv(30, 40, 50, 60, 70), "ok"},
		{"less bandwidth", higher, mv(50, 50, 50, 50, 50), mv(48, 48, 48, 48, 48), "regressed"},
		{"more bandwidth", higher, mv(50, 50, 50, 50, 50), mv(55, 55, 55, 55, 55), "ok"},
	}
	for _, c := range cases {
		if got := judge(c.m, c.a, c.b).state; got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}

	spec := &benchSpec{EndToEnd: []specMetric{lower}}
	spec.Workloads = append(spec.Workloads, struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}{Name: "w"})
	run := func(failed float64) *result {
		return &result{Workloads: map[string]*workloadResult{"w": {
			OpsFailedFrac: failed,
			EndToEnd:      map[string]metricValue{"host_us_per_op": mv(100, 101, 102)},
		}}}
	}
	if _, holds := compareResults(spec, run(0), run(0)); !holds {
		t.Error("a run does not hold against itself")
	}
	if _, holds := compareResults(spec, run(0), run(0.01)); holds {
		t.Error("a run with failed ops holds")
	}
}
