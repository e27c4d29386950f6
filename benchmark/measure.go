package main

import (
	"fmt"
	"runtime"
	"sort"
	"syscall"
	"time"

	"flexio/internal/bufpool"
	"flexio/internal/critpath"
	"flexio/internal/metrics"
	"flexio/internal/stats"
)

// repeats is how many fresh sessions back every end-to-end number; the
// reported value is the median over them.
const repeats = 7

// counters is a reading of every public recorder the layers expose. Two
// readings subtract into the work done between them.
type counters struct {
	// scalar holds the sums: stats phase seconds and counters over ranks,
	// merged registry counters, comm-matrix totals, buffer-pool activity.
	scalar map[string]float64
	// aggLoad is the shuffle bytes each rank handled as an aggregator.
	aggLoad []float64
	// ostBusy is each OST's busy-until time in virtual seconds.
	ostBusy []float64
}

var statPhases = []string{stats.PFlatten, stats.PExchange, stats.PComm, stats.PIO,
	stats.PCopy, stats.PPreagg, stats.PServe}

var statCounters = []string{stats.CPairsProcessed, stats.CReqBytes}

var registryCounters = []metrics.Counter{metrics.CRounds, metrics.CMemoHits, metrics.CMemoMisses,
	metrics.CIOCalls, metrics.CIOBytes, metrics.CSieveSpanBytes, metrics.CSieveUsefulBytes,
	metrics.CRMWPages, metrics.CLockGrants, metrics.CLockRevokes, metrics.CStripeConflicts,
	metrics.CCacheFlushes, metrics.CPageCacheHits, metrics.CPageCacheMisses}

func readCounters(s *session) counters {
	c := counters{scalar: make(map[string]float64)}
	for _, rec := range s.world.Recorders() {
		for _, ph := range statPhases {
			c.scalar["t."+ph] += rec.Time(ph).Seconds()
		}
		for _, name := range statCounters {
			c.scalar["n."+name] += float64(rec.Counter(name))
		}
	}
	merged := s.met.Merged()
	for _, mc := range registryCounters {
		c.scalar["m."+metrics.CounterName(mc)] = float64(merged.Counter(mc))
	}
	cm := s.world.CommMatrix()
	c.scalar["comm.bytes"] = float64(cm.TotalBytes())
	c.scalar["comm.msgs"] = float64(cm.TotalMsgs())
	inter, intra := cm.NodeSplit(s.world.NodeMap())
	c.scalar["comm.inter"], c.scalar["comm.intra"] = float64(inter), float64(intra)
	for r := 0; r < cm.Size(); r++ {
		// Aggregators receive a write's shuffle and send a read's.
		if s.wl.read {
			c.aggLoad = append(c.aggLoad, float64(cm.ShuffleRowBytes(r)))
		} else {
			c.aggLoad = append(c.aggLoad, float64(cm.ShuffleColBytes(r)))
		}
	}
	for _, t := range s.fs.OSTBusy() {
		c.ostBusy = append(c.ostBusy, t.Seconds())
	}
	pool := bufpool.Snapshot()
	c.scalar["pool.gets"], c.scalar["pool.news"] = float64(pool.Gets), float64(pool.News)
	return c
}

// addDelta accumulates (to - from) into c.
func (c *counters) addDelta(from, to counters) {
	if c.scalar == nil {
		c.scalar = make(map[string]float64)
		c.aggLoad = make([]float64, len(to.aggLoad))
		c.ostBusy = make([]float64, len(to.ostBusy))
	}
	for k, v := range to.scalar {
		c.scalar[k] += v - from.scalar[k]
	}
	// A zero from has no vectors: its entries read as zero.
	for i := range to.aggLoad {
		c.aggLoad[i] += to.aggLoad[i]
		if i < len(from.aggLoad) {
			c.aggLoad[i] -= from.aggLoad[i]
		}
	}
	for i := range to.ostBusy {
		c.ostBusy[i] += to.ostBusy[i]
		if i < len(from.ostBusy) {
			c.ostBusy[i] -= from.ostBusy[i]
		}
	}
}

// repeatResult is what one fresh session measured.
type repeatResult struct {
	setupS     float64 // nothing to first timed op
	opNS       []int64 // host time of each timed op
	virtS      float64 // virtual seconds the timed ops advanced the latest rank clock
	cpuNS      int64   // process user+sys CPU over the timed ops
	mallocs    uint64
	allocBytes uint64
	liveHeap   uint64 // live heap that is freed when the session is dropped
	failed     int
	work       counters // recorder deltas over the timed ops

	// Traced repeats only.
	events    int
	analyzeNS int64
	report    *critpath.Report
}

func cpuNow() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// timedSession builds a session and reports how long that took: nothing to
// ready for the first timed op.
func timedSession(wl *workload, sh shape, traced bool, sp *spanLog, parent int) (*session, float64, error) {
	start := time.Now()
	s, err := newSession(wl, sh, traced, sp, parent)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: set-up: %w", wl.name, err)
	}
	return s, time.Since(start).Seconds(), nil
}

// timeSetup sets a session up, drops it and returns the set-up time. A
// repeat yields one set-up sample; these fill the run's sample up until
// its median is steady.
func timeSetup(wl *workload, sh shape, sp *spanLog, repeat int) (float64, error) {
	root := sp.begin("setup", 0, wl.name, repeat)
	defer sp.end(root)
	_, setupS, err := timedSession(wl, sh, false, sp, root)
	return setupS, err
}

// tamperFn lets the corruption self-test damage the session's data after
// the op-th timed op, before the verifier looks.
type tamperFn func(op int, s *session)

// runRepeat builds a fresh session and times ops collective calls on it.
//
// Memory and recorder deltas are taken over segments: runs of timed ops with
// nothing but allocation-free read checks between them. Whatever allocates
// (comparing a file image, rolling the file over) closes the segment first
// and opens a new one afterwards, so it never lands in a per-op number.
func runRepeat(wl *workload, sh shape, ops int, traced bool, sp *spanLog, repeat int, tamper tamperFn) (*repeatResult, error) {
	res := &repeatResult{opNS: make([]int64, 0, ops)}
	root := sp.begin("repeat", 0, wl.name, repeat)
	defer sp.end(root)

	s, setupS, err := timedSession(wl, sh, traced, sp, root)
	if err != nil {
		return nil, err
	}
	res.setupS = setupS
	if traced {
		// The profile covers the timed ops only.
		s.sink.Reset()
	}

	var ms runtime.MemStats
	var segFrom counters
	var segMallocs, segBytes uint64
	openSeg := func() {
		runtime.GC() // garbage from set-up or a verify is not the ops' to collect
		segFrom = readCounters(s)
		runtime.ReadMemStats(&ms)
		segMallocs, segBytes = ms.Mallocs, ms.TotalAlloc
	}
	closeSeg := func() {
		runtime.ReadMemStats(&ms)
		res.mallocs += ms.Mallocs - segMallocs
		res.allocBytes += ms.TotalAlloc - segBytes
		res.work.addDelta(segFrom, readCounters(s))
	}
	// unverified counts the written ops since the last good image compare.
	unverified := 0
	checkImage := func() {
		id := sp.child("verify", root)
		if !s.imageCorrect() {
			res.failed += unverified
		}
		unverified = 0
		sp.end(id)
	}

	openSeg()
	for k := 0; k < ops; k++ {
		if wl.rollEvery > 0 && s.step == wl.rollEvery {
			closeSeg()
			checkImage()
			id := sp.child("rollover", root)
			err := s.rollover()
			sp.end(id)
			if err != nil {
				return nil, fmt.Errorf("%s: rollover: %w", wl.name, err)
			}
			openSeg()
		}
		cpu0, virt0 := cpuNow(), s.world.MaxClock()
		id := sp.child("op", root)
		err := s.op()
		res.opNS = append(res.opNS, int64(sp.end(id)))
		res.cpuNS += cpuNow() - cpu0
		res.virtS += (s.world.MaxClock() - virt0).Seconds()
		if tamper != nil {
			tamper(k, s)
		}
		switch {
		case err != nil:
			res.failed++
		case wl.read:
			if !s.readsCorrect() {
				res.failed++
			}
		default:
			unverified++
			if k == 0 {
				closeSeg()
				checkImage()
				openSeg()
			}
		}
	}
	closeSeg()
	if !wl.read {
		checkImage()
	}

	if traced {
		res.events = s.sink.Events()
		t0 := time.Now()
		res.report = critpath.Analyze(s.sink)
		res.analyzeNS = int64(time.Since(t0))
	}
	// The session's footprint is the heap that goes away with it, so what
	// the benchmark itself holds (payloads, spans, other workloads' inputs)
	// cancels out.
	runtime.GC()
	runtime.ReadMemStats(&ms)
	with := ms.HeapAlloc
	runtime.KeepAlive(s)
	s = nil
	runtime.GC()
	runtime.ReadMemStats(&ms)
	res.liveHeap = with - min(with, ms.HeapAlloc)
	return res, nil
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile is the nearest-rank q-quantile of v.
func quantile(v []float64, q float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	i := int(q*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func opMicros(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e3
	}
	return out
}

// endToEnd turns one repeat into the benchmark's per-op end-to-end metrics,
// in the units BENCHMARK.json names; setup_s has samples of its own.
func (r *repeatResult) endToEnd(userBytes int64) map[string]float64 {
	n := float64(len(r.opNS))
	return map[string]float64{
		"virt_mb_per_s":      float64(userBytes) * n / r.virtS / 1e6,
		"host_us_per_op":     median(opMicros(r.opNS)),
		"host_cpu_us_per_op": float64(r.cpuNS) / 1e3 / n,
		"allocs_per_op":      float64(r.mallocs) / n,
		"alloc_kb_per_op":    float64(r.allocBytes) / 1024 / n,
		"live_heap_mb":       float64(r.liveHeap) / (1 << 20),
	}
}
