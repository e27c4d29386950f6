package datatype

import (
	"bytes"
	"cmp"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

func TestAppendSegRuns(t *testing.T) {
	segs := []Seg{{Off: 10, Len: 4}, {Off: 20, Len: 0}, {Off: 30, Len: 6}}
	items := AppendSegRuns(nil, segs, 2)
	want := []MergeItem{
		{Off: 10, Len: 4, Part: 2, SrcPos: 0},
		{Off: 30, Len: 6, Part: 2, SrcPos: 4},
	}
	if !reflect.DeepEqual(items, want) {
		t.Fatalf("AppendSegRuns = %+v, want %+v", items, want)
	}
}

func TestAppendFlatRuns(t *testing.T) {
	// Two tiles of a 3-byte region strided by 10, displaced by 100.
	ft := Must(Resized(Bytes(3), 10))
	fl := FlatOf(ft, 100, 2)
	items := AppendFlatRuns(nil, fl, 1)
	want := []MergeItem{
		{Off: 100, Len: 3, Part: 1, SrcPos: 0},
		{Off: 110, Len: 3, Part: 1, SrcPos: 3},
	}
	if !reflect.DeepEqual(items, want) {
		t.Fatalf("AppendFlatRuns = %+v, want %+v", items, want)
	}
}

// TestBuildMergePlanShapes pins the union geometry: disjoint, adjacent,
// fully contained, partially overlapping, and duplicated runs.
func TestBuildMergePlanShapes(t *testing.T) {
	cases := []struct {
		name  string
		items []MergeItem
		segs  []Seg
		total int64
	}{
		{"disjoint",
			[]MergeItem{{Off: 0, Len: 4, Part: 0}, {Off: 10, Len: 4, Part: 1}},
			[]Seg{{0, 4}, {10, 4}}, 8},
		{"adjacent-coalesce",
			[]MergeItem{{Off: 0, Len: 4, Part: 0}, {Off: 4, Len: 4, Part: 1}},
			[]Seg{{0, 8}}, 8},
		{"contained",
			[]MergeItem{{Off: 0, Len: 10, Part: 0}, {Off: 2, Len: 3, Part: 1}},
			[]Seg{{0, 10}}, 10},
		{"partial-overlap",
			[]MergeItem{{Off: 0, Len: 6, Part: 0}, {Off: 4, Len: 6, Part: 1}},
			[]Seg{{0, 10}}, 10},
		{"duplicate",
			[]MergeItem{{Off: 5, Len: 5, Part: 0}, {Off: 5, Len: 5, Part: 1}},
			[]Seg{{5, 5}}, 5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			items, merged, total := BuildMergePlan(tc.items, nil)
			if !reflect.DeepEqual(merged, tc.segs) || total != tc.total {
				t.Fatalf("merged = %v (total %d), want %v (total %d)", merged, total, tc.segs, tc.total)
			}
			// Every item's destination run must land exactly where its file
			// range sits inside the merged stream.
			for _, it := range items {
				var pos int64
				for _, s := range merged {
					if it.Off >= s.Off && it.End() <= s.End() {
						want := pos + (it.Off - s.Off)
						if it.DstPos != want {
							t.Fatalf("item %+v: DstPos %d, want %d", it, it.DstPos, want)
						}
						break
					}
					pos += s.Len
				}
			}
		})
	}
}

// TestBuildMergePlanRandom is the end-to-end property: gathering every
// participant's bytes through the plan must reproduce exactly the bytes a
// direct per-byte union would, with later (Part, SrcPos) pairs winning
// overlaps — and scattering back must return each participant its own
// window of the merged image.
func TestBuildMergePlanRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		const fileLen = 256
		nparts := 1 + rng.Intn(4)
		var items []MergeItem
		streams := make([][]byte, nparts)
		covered := make([]bool, fileLen)
		for part := 0; part < nparts; part++ {
			var segs []Seg
			off := int64(rng.Intn(20))
			for off < fileLen-20 && rng.Intn(4) > 0 {
				l := int64(1 + rng.Intn(12))
				segs = append(segs, Seg{Off: off, Len: l})
				off += l + int64(rng.Intn(15))
			}
			items = AppendSegRuns(items, segs, part)
			var n int64
			for _, s := range segs {
				n += s.Len
			}
			streams[part] = make([]byte, n)
			rng.Read(streams[part])
			for _, s := range segs {
				for b := s.Off; b < s.End(); b++ {
					covered[b] = true
				}
			}
		}
		items, merged, total := BuildMergePlan(items, nil)

		// Reference image: replay the plan's own copy order byte-by-byte at
		// file granularity (overlaps resolve to whichever run copies last).
		type ref struct {
			part int
			pos  int64
		}
		image := make([]ref, fileLen)
		for _, it := range items {
			for b := int64(0); b < it.Len; b++ {
				image[it.Off+b] = ref{it.Part, it.SrcPos + b}
			}
		}

		// Coverage: merged must be exactly the covered byte set, coalesced.
		var unionLen int64
		for _, c := range covered {
			if c {
				unionLen++
			}
		}
		if total != unionLen {
			t.Fatalf("trial %d: total %d, union %d", trial, total, unionLen)
		}
		for i, s := range merged {
			if s.Len <= 0 {
				t.Fatalf("trial %d: empty merged seg %v", trial, s)
			}
			if i > 0 && s.Off <= merged[i-1].End() {
				t.Fatalf("trial %d: merged segs not disjoint-sorted: %v", trial, merged)
			}
		}

		// Gather (write direction): items in plan order, like the engines do.
		out := make([]byte, total)
		for _, it := range items {
			copy(out[it.DstPos:it.DstPos+it.Len], streams[it.Part][it.SrcPos:it.SrcPos+it.Len])
		}
		want := make([]byte, 0, total)
		for _, s := range merged {
			for b := s.Off; b < s.End(); b++ {
				r := image[b]
				want = append(want, streams[r.part][r.pos])
			}
		}
		if !bytes.Equal(out, want) {
			t.Fatalf("trial %d: gathered stream differs from reference union", trial)
		}

		// Scatter (read direction): each participant must get back its own
		// bytes of the merged image.
		for part := 0; part < nparts; part++ {
			got := make([]byte, len(streams[part]))
			for _, it := range items {
				if it.Part == part {
					copy(got[it.SrcPos:it.SrcPos+it.Len], out[it.DstPos:it.DstPos+it.Len])
				}
			}
			// Reference scatter straight from file positions.
			wantP := make([]byte, len(streams[part]))
			for _, it := range items {
				if it.Part != part {
					continue
				}
				var pos int64
				for _, s := range merged {
					if it.Off >= s.Off && it.End() <= s.End() {
						start := pos + (it.Off - s.Off)
						copy(wantP[it.SrcPos:it.SrcPos+it.Len], out[start:start+it.Len])
						break
					}
					pos += s.Len
				}
			}
			if !bytes.Equal(got, wantP) {
				t.Fatalf("trial %d part %d: scattered bytes differ", trial, part)
			}
		}
	}
}

// mergeOracle is RunMerger.Merge the slow way: concatenate the runs in run
// order, stable-sort by offset (so ties keep (run, position) order), then
// coalesce exact adjacency only.
func mergeOracle(runs [][]Seg) ([]RunItem, []Seg, int64) {
	type tagged struct {
		seg Seg
		run int32
	}
	var all []tagged
	for i, run := range runs {
		for _, s := range run {
			all = append(all, tagged{s, int32(i)})
		}
	}
	slices.SortStableFunc(all, func(a, b tagged) int { return cmp.Compare(a.seg.Off, b.seg.Off) })
	items, segs := []RunItem{}, []Seg{}
	var total int64
	for _, e := range all {
		items = append(items, RunItem{Run: e.run, Len: e.seg.Len})
		if n := len(segs); n > 0 && segs[n-1].End() == e.seg.Off {
			segs[n-1].Len += e.seg.Len
		} else {
			segs = append(segs, e.seg)
		}
		total += e.seg.Len
	}
	return items, segs, total
}

func cloneRuns(runs [][]Seg) [][]Seg {
	out := make([][]Seg, len(runs))
	for i, run := range runs {
		out[i] = slices.Clone(run)
	}
	return out
}

// checkMerge runs one merger call against the oracle. The merger may sort
// an unsorted run in place, so each side gets its own copy of the input.
func checkMerge(t *testing.T, m *RunMerger, runs [][]Seg) {
	t.Helper()
	wantItems, wantSegs, wantTotal := mergeOracle(cloneRuns(runs))
	items, segs, total := m.Merge(cloneRuns(runs), nil, nil)
	if total != wantTotal || !slices.Equal(items, wantItems) || !slices.Equal(segs, wantSegs) {
		t.Fatalf("runs %v:\n got  %v %v %d\n want %v %v %d", runs, items, segs, total, wantItems, wantSegs, wantTotal)
	}
}

// TestMergeRunsMatchesStableSort: random k in 0..32, empty runs, duplicate
// offsets within and across runs (the offset range is far smaller than the
// segment count), exact adjacency, and in half the cases one deliberately
// unsorted run, which takes the sort fallback. One merger serves every
// case, so its retained heap is exercised too.
func TestMergeRunsMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	var m RunMerger
	for iter := 0; iter < 2000; iter++ {
		runs := make([][]Seg, rng.Intn(33))
		for i := range runs {
			off := int64(rng.Intn(8))
			for n := rng.Intn(12); n > 0; n-- { // 0 leaves the run empty
				ln := int64(1 + rng.Intn(4))
				runs[i] = append(runs[i], Seg{Off: off, Len: ln})
				off += int64(rng.Intn(3)) * ln // 0: duplicate offset, 1: adjacent, 2: gap
			}
		}
		if len(runs) > 0 && iter%2 == 0 {
			i := rng.Intn(len(runs))
			rng.Shuffle(len(runs[i]), func(a, b int) { runs[i][a], runs[i][b] = runs[i][b], runs[i][a] })
		}
		checkMerge(t, &m, runs)
	}
}

// TestMergeRunsTieBreak pins the overlap rule: at equal offsets the lower
// run comes first, and within a run the earlier position, so data written
// in sequence order leaves the highest (run, position) on top.
func TestMergeRunsTieBreak(t *testing.T) {
	runs := [][]Seg{
		{{Off: 8, Len: 4}},
		{{Off: 0, Len: 4}, {Off: 8, Len: 2}, {Off: 8, Len: 3}},
		{},
		{{Off: 8, Len: 1}},
	}
	var m RunMerger
	items, segs, total := m.Merge(runs, nil, nil)
	want := []RunItem{{1, 4}, {0, 4}, {1, 2}, {1, 3}, {3, 1}}
	if !slices.Equal(items, want) {
		t.Fatalf("order %v, want %v", items, want)
	}
	// Overlapping segments never coalesce: only exact adjacency does.
	wantSegs := []Seg{{0, 4}, {8, 4}, {8, 2}, {8, 3}, {8, 1}}
	if !slices.Equal(segs, wantSegs) || total != 14 {
		t.Fatalf("segs %v total %d, want %v 14", segs, total, wantSegs)
	}
}

// FuzzMergeRuns decodes arbitrary bytes into runs (first byte: run count
// mod 33; then triples of run, offset, length) and checks the merger against
// the oracle. Nothing makes the runs sorted, so the fallback is fuzzed too.
func FuzzMergeRuns(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 0, 5, 2, 1, 5, 2, 2, 7, 1, 0, 1, 4})
	f.Add([]byte{1, 0, 9, 1, 0, 3, 1, 0, 3, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		runs := make([][]Seg, int(data[0])%33)
		for data = data[1:]; len(data) >= 3 && len(runs) > 0; data = data[3:] {
			i := int(data[0]) % len(runs)
			runs[i] = append(runs[i], Seg{Off: int64(data[1]), Len: int64(data[2])})
		}
		checkMerge(t, new(RunMerger), runs)
	})
}
