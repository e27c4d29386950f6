// Package benchsuite defines the repository's tracked collective-I/O
// benchmark matrix: steady-state sessions (one world, one open file, many
// collective calls) for both engines, both comm strategies, and both
// directions, measured with testing.Benchmark so ns/op, B/op, allocs/op and
// virtual time land in a committed JSON trajectory (BENCH_PR3.json).
//
// The same configurations back `go test -bench BenchmarkCollectiveMatrix`
// and `flexio ledger bench`, so local runs and CI regress against the
// identical workload definitions.
package benchsuite

import (
	"fmt"
	"math"
	"testing"

	"flexio/internal/core"
	"flexio/internal/critpath"
	"flexio/internal/datatype"
	"flexio/internal/hpio"
	"flexio/internal/metrics"
	"flexio/internal/mpi"
	"flexio/internal/mpiio"
	"flexio/internal/pfs"
	"flexio/internal/realm"
	"flexio/internal/sim"
	"flexio/internal/trace"
)

// Config names one benchmark point of the tracked matrix.
type Config struct {
	// Name is the stable identifier entries are keyed by in the JSON
	// trajectory; renaming a config orphans its history.
	Name string
	// Engine selects the collective implementation: "core" or "twophase".
	Engine string
	// Comm is the core engine's exchange strategy (ignored for twophase).
	Comm core.CommStrategy
	// Write selects the direction.
	Write bool
	// PFR enables persistent file realms (core only): the steady-state
	// configuration the paper's time-step workloads run in.
	PFR bool
	// Pattern is the HPIO-style workload every step performs.
	Pattern hpio.Pattern
	// Naggs is cb_nodes (0 = every rank aggregates).
	Naggs int
	// CollBuf overrides cb_buffer_size (0 = default), kept small enough
	// that every step runs multiple two-phase rounds.
	CollBuf int64
	// NoMetrics disables the live metrics registry for this session.
	// Metrics are on by default — they are allocation-free on the steady
	// state — and the overhead guard test compares the two settings.
	NoMetrics bool
	// Deadline arms the collective rendezvous deadline guard (0 = off).
	// It must comfortably exceed the per-round skew between aggregators
	// doing I/O and idle clients, or healthy ranks get flagged; the
	// overhead guard test checks an armed-but-untripped guard stays
	// allocation-free.
	Deadline sim.Time
	// Trace enables the per-rank event ring for this session, so the
	// critical-path profile can be computed from the measured steps. Off
	// by default to keep the tracked ns/op numbers comparable with the
	// committed history; the edge-recording overhead guard compares the
	// two settings.
	Trace bool
	// SampleK switches tracing (Trace must be set) to the adaptive
	// sampling policy: node leaders and aggregator ranks always trace,
	// and K member ranks are reservoir-sampled on top. Zero keeps the
	// every-rank sink.
	SampleK int
	// Rollup replaces the per-rank flight recorder with the per-node
	// rollup tree: only node leaders and sampled ranks keep flight rings,
	// and the session exposes a metrics.Rollup whose exposition is
	// O(nodes).
	Rollup bool
	// NodeRanks overrides the suite's block node-mapping width for this
	// config (0 = the package default NodeRanks).
	NodeRanks int
	// Preagg enables node-local pre-aggregation (the two-level exchange)
	// in whichever engine the config runs.
	Preagg bool
	// NodeLocal swaps the core engine's realm assigner for the
	// topology-aware realm.NodeLocal policy, which places each byte range
	// on an aggregator of the node that accesses it (ignored for
	// twophase). Pre-aggregation only reduces inter-node shuffle bytes
	// when paired with this placement.
	NodeLocal bool
	// Integrity arms the checksummed datapath end to end: every message
	// payload is checksummed at the sender and re-verified at the receiver,
	// and every stored stripe block carries an at-rest checksum verified on
	// read. The BENCH_PR10 gate holds this configuration to the clean
	// matrix's allocation budget and a 5% virtual-time overhead ceiling.
	Integrity bool
	// Sim overrides the simulated cluster profile for the session's world
	// and file system (nil = sim.DefaultConfig).
	Sim *sim.Config
}

// NodeRanks is the block node-mapping width the suite runs under: every
// NodeRanks consecutive ranks share a simulated node, so the comm matrix
// splits shuffle traffic into inter- and intra-node bytes.
const NodeRanks = 2

// steadyPattern is the shared workload: interleaved regions, noncontiguous
// memory, a few two-phase rounds per call at the configured buffer size.
var steadyPattern = hpio.Pattern{
	Ranks:        8,
	RegionSize:   512,
	RegionCount:  256,
	Spacing:      256,
	MemNoncontig: true,
	MemGap:       64,
}

// Default returns the tracked benchmark matrix: 2 engines x 2 comm
// strategies x read/write, plus the PFR steady-state configurations the
// tentpole's allocation target is measured on.
func Default() []Config {
	var out []Config
	for _, pfr := range []bool{false, true} {
		for _, comm := range []core.CommStrategy{core.Nonblocking, core.Alltoallw} {
			for _, write := range []bool{true, false} {
				name := fmt.Sprintf("core/%s/%s", comm, dir(write))
				if pfr {
					name = fmt.Sprintf("core-pfr/%s/%s", comm, dir(write))
				}
				out = append(out, Config{
					Name:    name,
					Engine:  "core",
					Comm:    comm,
					Write:   write,
					PFR:     pfr,
					Pattern: steadyPattern,
					Naggs:   4,
					CollBuf: 64 << 10,
				})
			}
		}
	}
	for _, write := range []bool{true, false} {
		out = append(out, Config{
			Name:    fmt.Sprintf("twophase/%s", dir(write)),
			Engine:  "twophase",
			Write:   write,
			Pattern: steadyPattern,
			Naggs:   4,
			CollBuf: 64 << 10,
		})
	}
	return out
}

// netBoundSim is the cluster profile the preagg-net rows run under: a
// congested commodity interconnect in front of a fast storage tier, the
// regime the two-level exchange targets — inter-node bytes are the
// bottleneck, so eliminating them shows up directly in virtual time. The
// default profile's rows show the placement tradeoff instead: NodeLocal
// realms fragment aggregator file domains across the interleaved pattern,
// so sieve spans grow while inter-node bytes vanish.
func netBoundSim() *sim.Config {
	c := sim.DefaultConfig()
	c.NetBandwidth = 10e6
	// Flash-backed, log-structured storage tier: high bandwidth, cheap
	// calls, no mechanical seeks, and no stripe-lock revocation storms.
	c.ServerBandwidth = 1e9
	c.IOCallOverhead = 20e-6
	c.SeekCost = 5e-6
	c.LockGrantCost = 5e-6
	c.LockRevokeCost = 20e-6
	c.StripeLockCost = 50e-6
	return c
}

// PreaggConfigs returns the two-level-exchange benchmark rows committed to
// BENCH_PR8.json: the steady-state core-pfr matrix at four ranks per node,
// under the default (disk-bound) and network-bound cluster profiles. With
// on=false the rows run the flat exchange (Even realms, no pre-aggregation,
// the "before" label); with on=true they run node-local pre-aggregation
// plus the NodeLocal assigner (the "after" label). Names are identical in
// both modes so the trajectory compares row by row. These rows are
// deliberately not part of Default(): the BENCH_PR3 allocation gate
// compares that matrix by name and would flag unknown rows.
func PreaggConfigs(on bool) []Config {
	var out []Config
	for _, net := range []bool{false, true} {
		prefix, simCfg := "preagg", (*sim.Config)(nil)
		if net {
			prefix, simCfg = "preagg-net", netBoundSim()
		}
		for _, comm := range []core.CommStrategy{core.Nonblocking, core.Alltoallw} {
			for _, write := range []bool{true, false} {
				out = append(out, Config{
					Name:      fmt.Sprintf("%s/core-pfr/%s/%s", prefix, comm, dir(write)),
					Engine:    "core",
					Comm:      comm,
					Write:     write,
					PFR:       true,
					Pattern:   steadyPattern,
					Naggs:     8,
					CollBuf:   64 << 10,
					NodeRanks: 4,
					Preagg:    on,
					NodeLocal: on,
					Sim:       simCfg,
				})
			}
		}
	}
	return out
}

// telemetryPattern is the scale-ready-telemetry workload: wide enough (32
// ranks, 8 per node) that sampling and per-node rollups have something to
// cut, small enough to measure under testing.Benchmark.
var telemetryPattern = hpio.Pattern{
	Ranks:        32,
	RegionSize:   256,
	RegionCount:  64,
	Spacing:      128,
	MemNoncontig: true,
	MemGap:       64,
}

// TelemetryConfigs returns the scale-ready-telemetry rows committed to
// BENCH_PR9.json: both engines, read and write, at 32 ranks across 4
// simulated nodes with sampled tracing (aggregators + node leaders always,
// 4 reservoir members) and the per-node metrics rollup on. The gate
// regresses the sampled-rank count (exact) and the rollup exposition size,
// which is what a scraper pays per scrape. Like PreaggConfigs, these rows
// are not part of Default() — the BENCH_PR3 allocation gate compares that
// matrix by name.
func TelemetryConfigs() []Config {
	var out []Config
	for _, engine := range []string{"core", "twophase"} {
		for _, write := range []bool{true, false} {
			cfg := Config{
				Name:      fmt.Sprintf("telemetry/%s/%s", engine, dir(write)),
				Engine:    engine,
				Write:     write,
				Pattern:   telemetryPattern,
				Naggs:     4,
				CollBuf:   64 << 10,
				NodeRanks: 8,
				Trace:     true,
				SampleK:   4,
				Rollup:    true,
			}
			if engine == "core" {
				cfg.Comm = core.Nonblocking
				cfg.PFR = true
			}
			out = append(out, cfg)
		}
	}
	return out
}

// IntegrityConfigs returns the checksummed-datapath rows committed to
// BENCH_PR10.json: the full Default matrix re-run with wire and at-rest
// integrity armed, names prefixed "integrity/". The gate compares each row
// against its clean BENCH_PR3 counterpart: the checksum passes must stay
// inside the same allocs/op budget (hashing reuses the engines' buffers)
// and cost at most 5% virtual time. Not part of Default() — the BENCH_PR3
// allocation gate compares that matrix by name.
func IntegrityConfigs() []Config {
	var out []Config
	for _, cfg := range Default() {
		cfg.Name = "integrity/" + cfg.Name
		cfg.Integrity = true
		out = append(out, cfg)
	}
	return out
}

// MeasureVirtFloor returns the minimum steady-state virtual time of one
// collective step, taken over a few fresh sessions. Write rows mutate the
// shared server page cache from concurrently scheduled rank goroutines, so
// their per-step virtual time carries one-sided scheduling noise: an
// unlucky interleaving adds evictions and read-modify-writes, and never
// removes any. The floor over independent sessions converges to the
// contention-free figure and is stable to well under a percent, which is
// what a tight (5%) virtual-time gate needs; a testing.Benchmark average
// would fold the noise in and flake.
func MeasureVirtFloor(cfg Config, sessions, steps int) (float64, error) {
	floor := math.Inf(1)
	for i := 0; i < sessions; i++ {
		s, err := NewSession(cfg)
		if err != nil {
			return 0, err
		}
		start := s.Elapsed()
		for j := 0; j < steps; j++ {
			if err := s.Step(); err != nil {
				return 0, err
			}
		}
		if v := (s.Elapsed() - start).Seconds() / float64(steps); v < floor {
			floor = v
		}
	}
	return floor, nil
}

func dir(write bool) string {
	if write {
		return "write"
	}
	return "read"
}

func (c Config) nodeRanks() int {
	if c.NodeRanks > 0 {
		return c.NodeRanks
	}
	return NodeRanks
}

func (c Config) info() mpiio.Info {
	var coll mpiio.Collective
	if c.Engine == "twophase" {
		coll = core.ROMIO(core.Options{Preagg: c.Preagg})
	} else {
		opts := core.Options{Comm: c.Comm, Persistent: c.PFR, Preagg: c.Preagg}
		if c.NodeLocal {
			opts.Assigner = realm.NodeLocal{}
		}
		coll = core.New(opts)
	}
	return mpiio.Info{Collective: coll, CbNodes: c.Naggs, CollBufSize: c.CollBuf}
}

// Session is a warm steady-state harness: one simulated world with the
// file opened and the view installed on every rank, ready to run the same
// collective call repeatedly. It is what "steady state" means throughout
// the performance docs: everything per-open is paid, per-call costs are
// what the benchmark observes.
type Session struct {
	cfg    Config
	world  *mpi.World
	fs     *pfs.FileSystem
	files  []*mpiio.File
	bufs   [][]byte
	mt     datatype.Type
	met    *metrics.Set
	rollup *metrics.Rollup
	comm   *mpi.CommMatrix
	sink   *trace.Sink
}

// NewSession builds the world, opens the file collectively, installs the
// views, seeds the file for read configs, and performs one warm-up step so
// persistent realms and engine caches reach their steady state.
func NewSession(cfg Config) (*Session, error) {
	wl := cfg.Pattern
	simCfg := cfg.Sim
	if simCfg == nil {
		simCfg = sim.DefaultConfig()
	}
	s := &Session{
		cfg:   cfg,
		world: mpi.NewWorld(wl.Ranks, simCfg),
		fs:    pfs.NewFileSystem(simCfg),
		files: make([]*mpiio.File, wl.Ranks),
		bufs:  make([][]byte, wl.Ranks),
	}
	// The node map comes first: sampled tracing needs it to pick node
	// leaders, and the metrics rollup folds member registries by node.
	s.world.SetNodeMap(mpi.BlockNodeMap(cfg.nodeRanks()))
	if cfg.Integrity {
		s.world.EnableIntegrity(10)
		s.fs.EnableIntegrity(10, 0)
	}
	if cfg.Trace {
		if cfg.SampleK > 0 {
			// Aggregator ranks (the cb_nodes lowest, matching the
			// engines' default placement) always trace — their spans
			// carry the I/O phases the critical path runs through.
			always := make([]int, 0, cfg.Naggs)
			for a := 0; a < cfg.Naggs && a < wl.Ranks; a++ {
				always = append(always, a)
			}
			s.sink = s.world.EnableSampledTracing(0, trace.SamplePolicy{
				Always: always,
				K:      cfg.SampleK,
				Seed:   1,
			})
		} else {
			s.sink = s.world.EnableTracing(0)
		}
	}
	if !cfg.NoMetrics {
		if cfg.Rollup {
			s.met, s.rollup = s.world.EnableMetricsRollup(0)
		} else {
			s.met = s.world.EnableMetrics()
		}
	}
	s.comm = s.world.EnableCommMatrix()
	if cfg.Deadline > 0 {
		s.world.SetCollDeadline(cfg.Deadline)
	}
	info := cfg.info()
	mt, bufLen := wl.Memtype()
	s.mt = mt
	errs := make(chan error, wl.Ranks)
	s.world.Run(func(p *mpi.Proc) {
		f, err := mpiio.Open(p, s.fs, "bench.dat", info)
		if err != nil {
			errs <- err
			return
		}
		ft, disp := wl.Filetype(p.Rank())
		if err := f.SetView(disp, datatype.Bytes(1), ft); err != nil {
			errs <- err
			return
		}
		s.files[p.Rank()] = f
		s.bufs[p.Rank()] = make([]byte, bufLen)
		copy(s.bufs[p.Rank()], wl.FillBuffer(p.Rank()))
		errs <- nil
	})
	for i := 0; i < wl.Ranks; i++ {
		if err := <-errs; err != nil {
			return nil, err
		}
	}
	if !cfg.Write {
		// Seed the file once so reads return real data.
		if err := s.step(true); err != nil {
			return nil, err
		}
	}
	// Warm-up: the first step establishes persistent realms and engine
	// caches, the second brings the file/page state to its fixed point
	// (a first write still sees unwritten gaps in its sieve reads). Two
	// steps make every measured step's virtual time identical, so the
	// virt-s/op metric does not depend on the iteration count.
	for i := 0; i < 2; i++ {
		if err := s.Step(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Step runs one collective call (the configured direction) on every rank.
func (s *Session) Step() error { return s.step(s.cfg.Write) }

func (s *Session) step(write bool) error {
	wl := s.cfg.Pattern
	errs := make(chan error, wl.Ranks)
	s.world.Run(func(p *mpi.Proc) {
		f := s.files[p.Rank()]
		if write {
			errs <- f.WriteAll(s.bufs[p.Rank()], s.mt, wl.RegionCount)
		} else {
			errs <- f.ReadAll(s.bufs[p.Rank()], s.mt, wl.RegionCount)
		}
	})
	for i := 0; i < wl.Ranks; i++ {
		if err := <-errs; err != nil {
			return err
		}
	}
	return nil
}

// Elapsed returns the latest virtual clock across ranks.
func (s *Session) Elapsed() sim.Time { return s.world.MaxClock() }

// Metrics exposes the session's live registry set (nil with NoMetrics).
func (s *Session) Metrics() *metrics.Set { return s.met }

// Comm exposes the session's rank×rank communication matrix (always on).
func (s *Session) Comm() *mpi.CommMatrix { return s.comm }

// Trace exposes the session's event sink (nil unless the config traces).
func (s *Session) Trace() *trace.Sink { return s.sink }

// Rollup exposes the per-node rollup view (nil unless the config enables
// it).
func (s *Session) Rollup() *metrics.Rollup { return s.rollup }

// ResetTelemetry rewinds virtual time (World.ResetClocks, which also clears
// the trace sink, the metrics registries and the comm matrix) and the OSTs'
// timing while keeping the warm file, lock, and cache state. After the call,
// recorded telemetry covers only subsequent steps — for read configs those
// are bit-deterministic in virtual time, which is what the
// differential-report determinism property measures against.
func (s *Session) ResetTelemetry() {
	s.world.ResetClocks()
	s.fs.ResetTimingKeepLocks()
}

// InterNodeFrac is the fraction of shuffle bytes that crossed node
// boundaries under the suite's block node map (0 when nothing shuffled).
func (s *Session) InterNodeFrac() float64 {
	inter, intra := s.comm.NodeSplit(s.world.NodeMap())
	if inter+intra == 0 {
		return 0
	}
	return float64(inter) / float64(inter+intra)
}

// InterNodeBytes is the cumulative shuffle byte count that crossed node
// boundaries so far; Run deltas it across the measured loop to report
// internode-B/op, the column the BENCH_PR8 gate regresses.
func (s *Session) InterNodeBytes() int64 {
	inter, _ := s.comm.NodeSplit(s.world.NodeMap())
	return inter
}

// CritPath computes the critical-path report over everything the session
// trace recorded so far (nil unless the config traces).
func (s *Session) CritPath() *critpath.Report {
	if s.sink == nil {
		return nil
	}
	return critpath.Analyze(s.sink)
}

// Health summarizes collective health from the session's metrics:
// aggregator shuffle imbalance over the recorded rounds, sieve
// read-amplification (span/useful, 1.0 = no padding moved), and server
// page-cache hit rate. All zero when metrics are disabled.
func (s *Session) Health() (imbalance, sieveAmp, cacheHit float64) {
	if s.met == nil {
		return 0, 0, 0
	}
	d := s.met.Dump(false)
	totals := make([]int64, d.Ranks)
	for _, rs := range d.Rounds {
		for r, v := range rs.RecvBytes {
			totals[r] += v
		}
	}
	imbalance = metrics.Imbalance(totals)
	m := s.met.Merged()
	if useful := m.Counter(metrics.CSieveUsefulBytes); useful > 0 {
		sieveAmp = float64(m.Counter(metrics.CSieveSpanBytes)) / float64(useful)
	}
	if h, mi := m.Counter(metrics.CPageCacheHits), m.Counter(metrics.CPageCacheMisses); h+mi > 0 {
		cacheHit = float64(h) / float64(h+mi)
	}
	return imbalance, sieveAmp, cacheHit
}

// World exposes the session's simulated world (for stats inspection).
func (s *Session) World() *mpi.World { return s.world }

// Verify checks the file image against the workload reference (write
// configs only).
func (s *Session) Verify() error {
	if !s.cfg.Write {
		return nil
	}
	ref := s.cfg.Pattern.Reference()
	img := s.fs.Snapshot("bench.dat", int64(len(ref)))
	for i := range ref {
		if img[i] != ref[i] {
			return fmt.Errorf("benchsuite %s: file byte %d = %d, want %d", s.cfg.Name, i, img[i], ref[i])
		}
	}
	return nil
}

// Run drives one config under a testing benchmark: allocation reporting
// on, one collective call per iteration, virtual time per op as a custom
// metric.
func Run(b *testing.B, cfg Config) {
	s, err := NewSession(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	start := s.Elapsed()
	interStart := s.InterNodeBytes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Step(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := s.Verify(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric((s.Elapsed()-start).Seconds()/float64(b.N), "virt-s/op")
	b.ReportMetric(float64(s.InterNodeBytes()-interStart)/float64(b.N), "internode-B/op")
	imb, amp, hit := s.Health()
	b.ReportMetric(imb, "imbalance")
	b.ReportMetric(amp, "sieve-amp")
	b.ReportMetric(hit, "cache-hit")
	b.ReportMetric(s.InterNodeFrac(), "internode-frac")
	if rep := s.CritPath(); rep != nil {
		b.ReportMetric(rep.Coverage(), "critpath-cover")
		rep.Note(s.met)
		if cfg.SampleK > 0 {
			b.ReportMetric(rep.BlindSpotFrac(), "blind-spot")
		}
	}
	if cfg.SampleK > 0 {
		b.ReportMetric(float64(s.sink.SampledCount()), "sampled-ranks")
	}
	if s.rollup != nil {
		n, err := rollupBytes(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(n), "rollup-B")
	}
}

// rollupWindowOps is the number of ops the rollup-B column is measured
// over.
const rollupWindowOps = 32

// rollupBytes is the size of cfg's per-node rollup exposition once a fresh
// session has run rollupWindowOps ops. The exposition grows with the number
// of ops the registries have seen — counter values gain digits, and the
// log-bucketed flexio_phase_seconds histograms (exchange and io above all,
// whose durations wander with scheduling) fill more buckets — so its size
// after the b.N ops of a timing loop measures the runner's speed, not what
// a scraper pays per node. The telemetry is reset after the session's
// seeding write and warm-up, so the window holds exactly those ops; with the
// clocks rewound too, a read row's float sums do not depend on how long the
// (arrival-order dependent) seeding write took, and come out bit-identical.
func rollupBytes(cfg Config) (int, error) {
	s, err := NewSession(cfg)
	if err != nil {
		return 0, err
	}
	s.ResetTelemetry()
	for i := 0; i < rollupWindowOps; i++ {
		if err := s.Step(); err != nil {
			return 0, err
		}
	}
	if rep := s.CritPath(); rep != nil {
		rep.Note(s.met)
	}
	return s.rollup.ExpositionBytes()
}
