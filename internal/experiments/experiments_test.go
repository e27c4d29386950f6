package experiments

import (
	"runtime"
	"strings"
	"testing"

	"flexio/internal/mpi"
	"flexio/internal/mpiio"
	"flexio/internal/sim"
)

// small returns scaled-down parameter sets that still exhibit the paper's
// qualitative shapes.
func smallFig4() Fig4Params {
	p := DefaultFig4().Scale(16, 256)
	p.RegionSizes = []int64{8, 64, 512, 4096}
	p.AggCounts = []int{4, 16}
	p.Verify = true
	// The scaled-down workload spans a fraction of the paper's aggregate
	// region, so scale the stripe (and its lock costs) down with it;
	// otherwise every aggregator lands in one stripe and extent-lock
	// transfers drown the datatype-processing signal this test checks
	// (the full-size grid keeps the defaults).
	cfg := sim.DefaultConfig()
	cfg.StripeSize = 32 << 10
	cfg.StripeLockCost = 200e-6
	cfg.LockRevokeCost = 100e-6
	p.Cfg = cfg
	// Best-of-3, like the paper's best-of-5: client-observed queueing
	// wobbles a few percent between runs.
	p.Reps = 3
	return p
}

// fig4Serial runs the sweep on one processor. Ranks then reach the shared
// file system in the same host order every run; on more processors that
// order, and with it a write point's virtual time, varies (16 aggregators at
// 4096 B spread over 134–220 MB/s at GOMAXPROCS 2).
func fig4Serial(p Fig4Params) ([]Table, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	tables, _, err := Fig4(p, nil)
	return tables, err
}

func TestFig4ShapesSmall(t *testing.T) {
	tables, err := fig4Serial(smallFig4())
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 {
		t.Fatalf("%d tables", len(tables))
	}
	for _, tbl := range tables {
		if len(tbl.Series) != 3 {
			t.Fatalf("%q: %d series", tbl.Title, len(tbl.Series))
		}
		byName := map[string][]Point{}
		for _, s := range tbl.Series {
			byName[s.Name] = s.Points
		}
		st, vec := byName["new+struct"], byName["new+vect"]
		// Bandwidth grows with region size for every series.
		for _, s := range tbl.Series {
			first, last := s.Points[0].Value, s.Points[len(s.Points)-1].Value
			if !(last > first) {
				t.Errorf("%q %q: bandwidth did not grow with region size (%v .. %v)",
					tbl.Title, s.Name, first, last)
			}
		}
		// The succinct struct type is at least as fast as the
		// enumerated vector type (clearly so at small regions, where
		// datatype processing dominates; at large regions the two
		// converge and only scheduling noise separates them).
		for i := range st {
			if st[i].Value < vec[i].Value*0.90 {
				t.Errorf("%q: new+struct (%v) below new+vect (%v) at %s",
					tbl.Title, st[i].Value, vec[i].Value, st[i].X)
			}
		}
		if !(st[0].Value > vec[0].Value*1.1) {
			t.Errorf("%q: struct/vector gap missing at smallest region (%v vs %v)",
				tbl.Title, st[0].Value, vec[0].Value)
		}
	}
}

func TestFig4OldBeatsNewAtFewAggregators(t *testing.T) {
	// Paper: with 8 (few) aggregators the old implementation is clearly
	// ahead, because each aggregator pushes more data through the extra
	// collective-buffer/sieve-buffer copy of the new code.
	p := smallFig4()
	p.AggCounts = []int{4}
	p.RegionSizes = []int64{512, 4096}
	tables, err := fig4Serial(p)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string][]Point{}
	for _, s := range tables[0].Series {
		byName[s.Name] = s.Points
	}
	old, vec := byName["old+vec"], byName["new+vect"]
	wins := 0
	for i := range old {
		if old[i].Value > vec[i].Value {
			wins++
		}
	}
	if wins == 0 {
		t.Errorf("old implementation never ahead of new+vect at few aggregators: old=%v new=%v", old, vec)
	}
}

func TestFig5CrossoverSmall(t *testing.T) {
	p := DefaultFig5().Scale(32<<20, 4)
	p.Ranks = 8
	p.Extents = []int64{1 << 10, 64 << 10}
	p.Verify = true
	tables, _, err := Fig5(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 {
		t.Fatalf("%d tables", len(tables))
	}
	winner := func(tbl Table) (sieveWins, naiveWins int) {
		var ds, nv []Point
		for _, s := range tbl.Series {
			if s.Name == "Datasieve" {
				ds = s.Points
			} else {
				nv = s.Points
			}
		}
		for i := range ds {
			if ds[i].Value > nv[i].Value {
				sieveWins++
			} else {
				naiveWins++
			}
		}
		return
	}
	// 1KB extent: data sieving dominates; 64KB extent: naive dominates.
	sw, nw := winner(tables[0])
	if sw <= nw {
		t.Errorf("1KB extent: sieve should dominate (sieve %d vs naive %d wins)", sw, nw)
	}
	sw, nw = winner(tables[1])
	if nw <= sw {
		t.Errorf("64KB extent: naive should dominate (sieve %d vs naive %d wins)", sw, nw)
	}
}

func TestFig5DatasieveScalesWithUsefulFraction(t *testing.T) {
	p := DefaultFig5().Scale(16<<20, 8)
	p.Ranks = 4
	p.Extents = []int64{8 << 10}
	tables, _, err := Fig5(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range tables[0].Series {
		if s.Name != "Datasieve" {
			continue
		}
		if !(s.Points[len(s.Points)-1].Value > s.Points[0].Value*2) {
			t.Errorf("datasieve bandwidth not rising with useful fraction: %v", s.Points)
		}
	}
}

func TestFig7ShapesSmall(t *testing.T) {
	p := DefaultFig7().Scale(256, 6, []int{8, 16})
	p.Verify = true
	// As with Figure 4's small-scale test, the shrunken file (≈5 MB vs
	// the paper's 200 MB) must scale the stripe down too: with 2 MB
	// stripes the aligned realms would collapse onto 2-3 aggregators, an
	// artifact the full-scale geometry doesn't have.
	cfg := sim.DefaultConfig()
	cfg.StripeSize = 64 << 10
	p.Cfg = cfg
	p.Align = 64 << 10
	tables, _, err := Fig7(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	tbl := tables[0]
	if len(tbl.Series) != 4 {
		t.Fatalf("%d series", len(tbl.Series))
	}
	byName := map[string][]Point{}
	for _, s := range tbl.Series {
		byName[s.Name] = s.Points
	}
	both := byName["pfr/fr-align"]
	neither := byName["no-pfr/no-fr-align"]
	// PFR + alignment is a definite win (the paper's one clear
	// conclusion): better than neither at every client count.
	for i := range both {
		if !(both[i].Value > neither[i].Value) {
			t.Errorf("pfr/fr-align (%v) not above no-pfr/no-fr-align (%v) at %s clients",
				both[i].Value, neither[i].Value, both[i].X)
		}
	}
}

func TestAblations(t *testing.T) {
	p := DefaultAblation()
	p.Ranks = 8
	p.RegionCount = 256

	t.Run("A1", func(t *testing.T) {
		tables, _, err := AblationExchange(p, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Old request volume grows with region count; new (succinct)
		// stays flat and far below.
		req := tables[0]
		var old, niu []Point
		for _, s := range req.Series {
			switch s.Name {
			case "old (flattened access)":
				old = s.Points
			case "new (flattened filetype)":
				niu = s.Points
			}
		}
		last := len(old) - 1
		if !(old[last].Value > 20*niu[last].Value) {
			t.Errorf("A1: old req bytes %v not >> new %v", old[last].Value, niu[last].Value)
		}
		if !(old[last].Value > old[0].Value*2) {
			t.Errorf("A1: old req bytes not growing with regions: %v", old)
		}
	})

	t.Run("A2", func(t *testing.T) {
		tables, _, err := AblationRepresentation(p, nil)
		if err != nil {
			t.Fatal(err)
		}
		byName := map[string][]Point{}
		for _, s := range tables[0].Series {
			byName[s.Name] = s.Points
		}
		// Flattened access grows linearly; flattened datatype and tree
		// stay constant for the succinct HPIO pattern.
		fd, fa := byName["flattened datatype"], byName["flattened access"]
		if fd[len(fd)-1].Value != fd[0].Value {
			t.Errorf("A2: flattened datatype size not constant: %v", fd)
		}
		if !(fa[len(fa)-1].Value > fa[0].Value*100) {
			t.Errorf("A2: flattened access not growing: %v", fa)
		}
		// Nested panel: the tree stays flat while the flattened
		// datatype grows quadratically with blocks/dim.
		var nt, nf []Point
		for _, s := range tables[1].Series {
			if s.Name == "datatype tree" {
				nt = s.Points
			} else {
				nf = s.Points
			}
		}
		if nt[len(nt)-1].Value != nt[0].Value {
			t.Errorf("A2b: nested tree size not constant: %v", nt)
		}
		if !(nf[len(nf)-1].Value > nf[0].Value*50) {
			t.Errorf("A2b: nested flattened datatype not growing: %v", nf)
		}
	})

	t.Run("A3", func(t *testing.T) {
		tables, _, err := AblationRealms(p, nil)
		if err != nil {
			t.Fatal(err)
		}
		bw := tables[0].Series[0].Points
		worst := tables[0].Series[1].Points
		if len(bw) != 2 || len(worst) != 2 {
			t.Fatalf("A3 series: %+v", tables[0].Series)
		}
		// Load balancing must not lose bandwidth, and must cut the
		// slowest aggregator's I/O volume decisively (the paper's
		// imbalance concern: the call is only as fast as the slowest
		// aggregator).
		if !(bw[1].Value >= bw[0].Value) {
			t.Errorf("A3: load-balanced bandwidth (%v) below even (%v)", bw[1].Value, bw[0].Value)
		}
		if !(worst[0].Value > worst[1].Value*1.8) {
			t.Errorf("A3: even max aggregator I/O (%v MB) not clearly above load-balanced (%v MB)",
				worst[0].Value, worst[1].Value)
		}
	})

	t.Run("A4", func(t *testing.T) {
		if _, _, err := AblationComm(p, nil); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("A5", func(t *testing.T) {
		if _, _, err := AblationHeap(p, nil); err != nil {
			t.Fatal(err)
		}
	})
}

func TestTableFormat(t *testing.T) {
	tbl := Table{
		Title: "demo", XLabel: "x", YLabel: "MB/s",
		Series: []Series{
			{Name: "a", Points: []Point{{X: "1", Value: 1.5}, {X: "2", Value: 2.5}}},
			{Name: "b", Points: []Point{{X: "1", Value: 3}}},
		},
	}
	out := tbl.Format()
	for _, want := range []string{"## demo", "a", "b", "1.50", "2.50", "3.00", "-"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format missing %q:\n%s", want, out)
		}
	}
}

// TestNodesOnEveryFigure: every figure and ablation that runs a world runs
// it on the node map its Arm installs, and hands that world back.
func TestNodesOnEveryFigure(t *testing.T) {
	arm := func(w *mpi.World, _ mpiio.Info) { w.SetNodeMap(mpi.BlockNodeMap(2)) }
	f4 := DefaultFig4().Scale(8, 64)
	f4.RegionSizes, f4.AggCounts = []int64{64}, []int{4}
	f5 := DefaultFig5().Scale(1<<20, 1)
	f5.Ranks, f5.Extents, f5.Fractions = 8, []int64{1 << 10}, []int64{16}
	f7 := DefaultFig7().Scale(64, 2, []int{8})
	ab := DefaultAblation()
	ab.Ranks, ab.RegionCount = 8, 64
	for name, fig := range map[string]func() ([]Table, *mpi.World, error){
		"4":  func() ([]Table, *mpi.World, error) { return Fig4(f4, arm) },
		"5":  func() ([]Table, *mpi.World, error) { return Fig5(f5, arm) },
		"7":  func() ([]Table, *mpi.World, error) { return Fig7(f7, arm) },
		"A1": func() ([]Table, *mpi.World, error) { return AblationExchange(ab, arm) },
		"A3": func() ([]Table, *mpi.World, error) { return AblationRealms(ab, arm) },
		"A4": func() ([]Table, *mpi.World, error) { return AblationComm(ab, arm) },
		"A5": func() ([]Table, *mpi.World, error) { return AblationHeap(ab, arm) },
	} {
		_, w, err := fig()
		switch {
		case err != nil:
			t.Errorf("fig %s: %v", name, err)
		case w == nil:
			t.Errorf("fig %s returned no world", name)
		case w.NodeCount() != w.Size()/2:
			t.Errorf("fig %s: %d nodes for %d ranks, want %d", name, w.NodeCount(), w.Size(), w.Size()/2)
		}
	}
}
