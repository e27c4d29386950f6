package colltest

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"flexio/internal/core"
	"flexio/internal/mpiio"
	"flexio/internal/realm"
	"flexio/internal/sim"
)

// genWorkload draws a random HPIO-style workload small enough to run fast.
func genWorkload(rng *rand.Rand) Workload {
	return Workload{
		Ranks:        1 + rng.Intn(7),
		RegionSize:   int64(1 + rng.Intn(300)),
		RegionCount:  int64(1 + rng.Intn(60)),
		Spacing:      int64(rng.Intn(200)),
		Disp:         int64(rng.Intn(500)),
		MemNoncontig: rng.Intn(2) == 0,
		MemGap:       int64(rng.Intn(64)),
		Enumerate:    rng.Intn(3) == 0,
	}
}

// genInfo draws random hints and a random collective engine configuration:
// the ROMIO planner under its fixed executor settings, or the flexible
// planner under any exchange strategy and buffer access, ROMIO's two included.
// Both validate their memo hits.
func genInfo(rng *rand.Rand, wl Workload) mpiio.Info {
	var coll mpiio.Collective
	if rng.Intn(4) == 0 {
		coll = core.ROMIO(core.Options{Validate: true})
	} else {
		o := core.Options{Validate: true}
		o.Method = []mpiio.Method{mpiio.DataSieve, mpiio.Naive, mpiio.ListIO, mpiio.IntegratedSieve}[rng.Intn(4)]
		o.Comm = []core.CommStrategy{core.Nonblocking, core.Alltoallw, core.Blocking}[rng.Intn(3)]
		if rng.Intn(3) == 0 {
			o.HeapMerge = true
		}
		switch rng.Intn(4) {
		case 0:
			o.Assigner = realm.Cyclic{Block: int64(256 << rng.Intn(4))}
		case 1:
			o.Assigner = realm.Even{Align: 4096}
		case 2:
			o.Assigner = realm.LoadBalanced{}
		}
		if rng.Intn(3) == 0 {
			o.Persistent = true
		}
		coll = core.New(o)
	}
	info := mpiio.Info{Collective: coll}
	if rng.Intn(2) == 0 {
		info.CbNodes = 1 + rng.Intn(wl.Ranks)
	}
	if rng.Intn(2) == 0 {
		info.CollBufSize = int64(256 << rng.Intn(6)) // 256B .. 8KB: many rounds
	}
	if rng.Intn(2) == 0 {
		info.SieveBufSize = int64(512 << rng.Intn(4))
	}
	return info
}

// TestRandomizedWriteCorrectness drives random workloads through random
// engine configurations and verifies every file image byte-for-byte.
func TestRandomizedWriteCorrectness(t *testing.T) {
	rng := rand.New(rand.NewSource(20060925)) // CLUSTER 2006 conference date
	trials := 60
	if testing.Short() {
		trials = 15
	}
	for trial := 0; trial < trials; trial++ {
		wl := genWorkload(rng)
		info := genInfo(rng, wl)
		name := "old"
		if info.Collective != nil {
			name = info.Collective.Name()
		}
		w := NewWorld(sim.DefaultConfig(), wl)
		sink := w.EnableTracing(0)
		res, err := Write(w, wl, info, 2) // the second call hits the memo
		if err != nil {
			t.Fatalf("trial %d (%s, %s): %v", trial, wl, name, err)
		}
		if err := VerifyImage(wl, res.Image); err != nil {
			t.Fatalf("trial %d (%s, %s, cb=%d naggs=%d): %v",
				trial, wl, name, info.CollBufSize, info.CbNodes, err)
		}
		if err := sink.Check(); err != nil {
			t.Fatalf("trial %d (%s, %s): %v", trial, wl, name, err)
		}
	}
}

// TestTraceDeterministicExport: serializing the same recorded trace twice
// must produce byte-identical Chrome trace JSON — the exporter has no map
// iteration, wall-clock stamps, or other nondeterminism. (Two separate
// simulation runs are deliberately not compared: virtual times depend on
// the real-time order in which rank goroutines reach the shared file
// system mutex, so re-runs can legitimately differ under perturbed
// goroutine scheduling, e.g. with -race.)
func TestTraceDeterministicExport(t *testing.T) {
	wl := Workload{Ranks: 4, RegionSize: 97, RegionCount: 23, Spacing: 31, Disp: 5, MemNoncontig: true, MemGap: 7}
	info := mpiio.Info{Collective: core.New(core.Options{Validate: true}), CollBufSize: 1 << 10}
	w := NewWorld(sim.DefaultConfig(), wl)
	sink := w.EnableTracing(0)
	if _, err := Write(w, wl, info, 1); err != nil {
		t.Fatal(err)
	}
	var exports [2][]byte
	for i := range exports {
		var buf bytes.Buffer
		if err := sink.WriteChromeTrace(&buf); err != nil {
			t.Fatalf("export %d: %v", i, err)
		}
		exports[i] = buf.Bytes()
	}
	if len(exports[0]) == 0 {
		t.Fatal("empty export")
	}
	if !bytes.Equal(exports[0], exports[1]) {
		t.Fatalf("trace export is nondeterministic: %d vs %d bytes", len(exports[0]), len(exports[1]))
	}
}

// TestRandomizedOldNewEquivalence: for identical workloads, the old and
// new implementations must produce byte-identical files.
func TestRandomizedOldNewEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	trials := 25
	if testing.Short() {
		trials = 8
	}
	for trial := 0; trial < trials; trial++ {
		wl := genWorkload(rng)
		cb := int64(512 << rng.Intn(5))
		old, err := RunWrite(sim.DefaultConfig(), wl, mpiio.Info{Collective: core.ROMIO(core.Options{}), CollBufSize: cb})
		if err != nil {
			t.Fatalf("trial %d old: %v", trial, err)
		}
		niu, err := RunWrite(sim.DefaultConfig(), wl, mpiio.Info{
			Collective: core.New(core.Options{Validate: true}), CollBufSize: cb})
		if err != nil {
			t.Fatalf("trial %d new: %v", trial, err)
		}
		if !bytes.Equal(old.Image, niu.Image) {
			for i := range old.Image {
				if old.Image[i] != niu.Image[i] {
					t.Fatalf("trial %d (%s): images differ at byte %d", trial, wl, i)
				}
			}
		}
	}
}

// TestRandomizedReadBack: random workloads read back correctly through
// random configurations.
func TestRandomizedReadBack(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	trials := 20
	if testing.Short() {
		trials = 6
	}
	for trial := 0; trial < trials; trial++ {
		wl := genWorkload(rng)
		info := genInfo(rng, wl)
		if _, err := RunReadBack(sim.DefaultConfig(), wl, info); err != nil {
			name := "old"
			if info.Collective != nil {
				name = info.Collective.Name()
			}
			t.Fatalf("trial %d (%s, %s): %v", trial, wl, name, err)
		}
	}
}

// TestRandomizedCollectiveMatchesIndependent: a collective write must leave
// the same file image as each rank writing independently.
func TestRandomizedCollectiveMatchesIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 15; trial++ {
		wl := genWorkload(rng)
		coll, err := RunWrite(sim.DefaultConfig(), wl, mpiio.Info{
			Collective: core.New(core.Options{Validate: true}),
		})
		if err != nil {
			t.Fatalf("trial %d collective: %v", trial, err)
		}
		indep, err := RunWrite(sim.DefaultConfig(), wl, mpiio.Info{IndepMethod: mpiio.ListIO})
		if err != nil {
			t.Fatalf("trial %d independent: %v", trial, err)
		}
		if !bytes.Equal(coll.Image, indep.Image) {
			t.Fatalf("trial %d (%s): collective and independent images differ", trial, wl)
		}
	}
}

// TestWorkloadStringer keeps the diagnostic formatting stable.
func TestWorkloadStringer(t *testing.T) {
	wl := Workload{Ranks: 4, RegionSize: 8, RegionCount: 2, Spacing: 1}
	if got := fmt.Sprint(wl); got == "" {
		t.Fatal("empty workload description")
	}
}
