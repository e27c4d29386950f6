// Package flexio's root benchmark harness: one benchmark per panel/series
// of the paper's evaluation figures (4, 5, 7) plus the ablations, each
// reporting the simulated bandwidth as a custom "virt-MB/s" metric, and
// CPU micro-benchmarks for the datatype engine that does the real work.
//
// The figure benchmarks run reduced-scale workloads so `go test -bench=.`
// finishes quickly; `cmd/flexio-bench` runs the paper's full parameter
// grids.
package flexio

import (
	"fmt"
	"testing"

	"flexio/internal/benchsuite"
	"flexio/internal/colltest"
	"flexio/internal/core"
	"flexio/internal/datatype"
	"flexio/internal/experiments"
	"flexio/internal/hpio"
	"flexio/internal/mpiio"
	"flexio/internal/sim"
	"flexio/internal/twophase"
)

// --- Tracked collective matrix: the BENCH_PR3.json trajectory ---
//
// One sub-benchmark per tracked configuration (2 engines x 2 comm
// strategies x read/write, plus the PFR steady-state points). Allocation
// reporting is on; `flexio-bench -benchjson` runs the same matrix and
// records it to the committed trajectory.
//
// The twophase rows are steady-state rows too since the baseline became a
// memoized planner in front of core's round executor: 24 allocs/op (what
// World.Run allocates) where its own round loop measured 880-930 (934
// write, 879 read, at the commit before), at the same virtual time (the
// read row is deterministic: 0.007931 virt-s/op on both sides). A change
// that moves them moved the shared executor or the ROMIO planner's memo:
// see TestRomioGolden and TestRomioSteadyStateAllocs in internal/twophase.

func BenchmarkCollectiveMatrix(b *testing.B) {
	for _, cfg := range benchsuite.Default() {
		cfg := cfg
		b.Run(cfg.Name, func(b *testing.B) { benchsuite.Run(b, cfg) })
	}
}

// benchWrite runs one collective write per iteration and reports the
// virtual bandwidth of the last run.
func benchWrite(b *testing.B, wl hpio.Pattern, info func() mpiio.Info) {
	b.Helper()
	var bw float64
	for i := 0; i < b.N; i++ {
		res, err := colltest.RunWrite(sim.DefaultConfig(), wl, info())
		if err != nil {
			b.Fatal(err)
		}
		bw = res.BandwidthMBs(wl.TotalBytes())
	}
	b.ReportMetric(bw, "virt-MB/s")
}

// --- Figure 4: HPIO noncontig/noncontig, three implementations ---

func BenchmarkFig4(b *testing.B) {
	for _, naggs := range []int{8, 16} {
		for _, rs := range []int64{8, 512, 4096} {
			for _, series := range []string{"new+struct", "new+vect", "old+vec"} {
				series := series
				wl := hpio.Pattern{
					Ranks: 16, RegionSize: rs, RegionCount: 256,
					Spacing: 128, MemNoncontig: true, MemGap: 128,
					Enumerate: series != "new+struct",
				}
				b.Run(fmt.Sprintf("aggs=%d/region=%d/%s", naggs, rs, series), func(b *testing.B) {
					benchWrite(b, wl, func() mpiio.Info {
						var coll mpiio.Collective
						if series == "old+vec" {
							coll = twophase.New()
						} else {
							coll = core.New(core.Options{})
						}
						return mpiio.Info{Collective: coll, CbNodes: naggs}
					})
				})
			}
		}
	}
}

// --- Figure 5: conditional data sieving, sieve vs naive per extent ---

func BenchmarkFig5(b *testing.B) {
	p := experiments.DefaultFig5().Scale(32<<20, 0)
	p.Ranks = 8
	for _, ext := range []int64{1 << 10, 16 << 10, 64 << 10} {
		for _, frac := range []int64{4, 16, 28} { // 12%, 50%, 88% of extent
			for _, method := range []struct {
				name string
				m    mpiio.Method
			}{{"datasieve", mpiio.DataSieve}, {"naive", mpiio.Naive}} {
				method := method
				ext, frac := ext, frac
				b.Run(fmt.Sprintf("extent=%d/region=%d%%/%s", ext, frac*100/32, method.name), func(b *testing.B) {
					q := p
					q.Extents = []int64{ext}
					q.Fractions = []int64{frac}
					var bw float64
					for i := 0; i < b.N; i++ {
						tables, err := experiments.Fig5(q)
						if err != nil {
							b.Fatal(err)
						}
						for _, s := range tables[0].Series {
							if s.Name == map[string]string{"datasieve": "Datasieve", "naive": "Naive"}[method.name] {
								bw = s.Points[0].Value
							}
						}
					}
					b.ReportMetric(bw, "virt-MB/s")
				})
			}
		}
	}
}

// --- Figure 7: PFRs and file realm alignment ---

func BenchmarkFig7(b *testing.B) {
	p := experiments.DefaultFig7().Scale(256, 4, nil)
	for _, clients := range []int{16, 32} {
		for _, cfg := range []struct {
			name  string
			pfr   bool
			align int64
		}{
			{"pfr-align", true, 2 << 20},
			{"pfr-only", true, 0},
			{"align-only", false, 2 << 20},
			{"neither", false, 0},
		} {
			cfg, clients := cfg, clients
			b.Run(fmt.Sprintf("clients=%d/%s", clients, cfg.name), func(b *testing.B) {
				total := p.Points * p.ElemsPerPoint * p.ElemSize * int64(p.Steps)
				var bw float64
				for i := 0; i < b.N; i++ {
					res, err := experiments.RunPFRConfig(p, clients, cfg.pfr, cfg.align)
					if err != nil {
						b.Fatal(err)
					}
					bw = res.BandwidthMBs(total)
				}
				b.ReportMetric(bw, "virt-MB/s")
			})
		}
	}
}

// --- Ablations ---

func BenchmarkAblationExchange(b *testing.B) {
	wl := hpio.Pattern{Ranks: 8, RegionSize: 64, RegionCount: 2048, Spacing: 128}
	for _, impl := range []string{"old", "new"} {
		impl := impl
		b.Run(impl, func(b *testing.B) {
			benchWrite(b, wl, func() mpiio.Info {
				if impl == "old" {
					return mpiio.Info{Collective: twophase.New()}
				}
				return mpiio.Info{Collective: core.New(core.Options{})}
			})
		})
	}
}

func BenchmarkAblationComm(b *testing.B) {
	wl := hpio.Pattern{Ranks: 16, RegionSize: 512, RegionCount: 512, Spacing: 128, MemNoncontig: true, MemGap: 128}
	for _, comm := range []core.CommStrategy{core.Nonblocking, core.Alltoallw} {
		comm := comm
		b.Run(comm.String(), func(b *testing.B) {
			benchWrite(b, wl, func() mpiio.Info {
				return mpiio.Info{Collective: core.New(core.Options{Comm: comm}), CbNodes: 8}
			})
		})
	}
}

func BenchmarkAblationHeapMerge(b *testing.B) {
	wl := hpio.Pattern{Ranks: 16, RegionSize: 64, RegionCount: 1024, Spacing: 128, Enumerate: true}
	for _, heap := range []bool{false, true} {
		heap := heap
		name := "per-agg-pass"
		if heap {
			name = "heap-merge"
		}
		b.Run(name, func(b *testing.B) {
			benchWrite(b, wl, func() mpiio.Info {
				return mpiio.Info{Collective: core.New(core.Options{HeapMerge: heap})}
			})
		})
	}
}

// --- Datatype engine micro-benchmarks (real CPU time) ---

func BenchmarkFlattenVector(b *testing.B) {
	for i := 0; i < b.N; i++ {
		v, err := datatype.Vector(1024, 2, 96, datatype.Bytes(16))
		if err != nil {
			b.Fatal(err)
		}
		_ = v.Flatten()
	}
}

func BenchmarkCursorWalk(b *testing.B) {
	t := datatype.Must(datatype.Resized(datatype.Bytes(64), 192))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := datatype.NewCursor(t, 0, 4096)
		for {
			if _, _, ok := c.Next(1 << 30); !ok {
				break
			}
		}
	}
}

func BenchmarkCursorSeekSuccinct(b *testing.B) {
	t := datatype.Must(datatype.Resized(datatype.Bytes(64), 192))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := datatype.NewCursor(t, 0, -1)
		for off := int64(0); off < 192*100000; off += 192 * 1000 {
			c.SeekOffset(off)
		}
	}
}

func BenchmarkFlatCodec(b *testing.B) {
	segs := make([]datatype.Seg, 256)
	for i := range segs {
		segs[i] = datatype.Seg{Off: int64(i) * 128, Len: 64}
	}
	t, err := datatype.FromSegs(segs, 0)
	if err != nil {
		b.Fatal(err)
	}
	f := datatype.FlatOf(t, 0, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc := f.Encode()
		if _, err := datatype.DecodeFlat(enc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPack(b *testing.B) {
	mt := datatype.Must(datatype.Resized(datatype.Bytes(256), 320))
	buf := make([]byte, 320*1024)
	b.SetBytes(256 * 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := datatype.Pack(buf, mt, 0, 1024); err != nil {
			b.Fatal(err)
		}
	}
}
