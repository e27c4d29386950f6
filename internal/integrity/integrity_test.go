package integrity

import (
	"math/rand"
	"sync"
	"testing"
)

func TestSumDeterministicAndSeedSensitive(t *testing.T) {
	h1 := NewHasher(42)
	h2 := NewHasher(42)
	h3 := NewHasher(43)
	data := []byte("the quick brown fox jumps over the lazy dog")
	if h1.Sum(data) != h2.Sum(data) {
		t.Fatal("same seed, same data must hash equal")
	}
	if h1.Sum(data) == h3.Sum(data) {
		t.Fatal("different seeds should hash differently")
	}
	if h1.Sum(nil) != h1.Sum(nil) {
		t.Fatal("empty input must be stable")
	}
}

// TestSumDetectsEverySingleBitFlip flips every bit of a 4 KiB page and of
// every length from 0 to 200, and requires each flip to change the sum.
func TestSumDetectsEverySingleBitFlip(t *testing.T) {
	h := NewHasher(7)
	lengths := []int{4096}
	for n := 0; n <= 200; n++ {
		lengths = append(lengths, n)
	}
	for _, n := range lengths {
		data := make([]byte, n)
		for i := range data {
			data[i] = byte(i * 37)
		}
		want := h.Sum(data)
		for bit := 0; bit < n*8; bit++ {
			data[bit/8] ^= 1 << (bit % 8)
			if h.Sum(data) == want {
				t.Fatalf("length %d: bit flip at %d not detected", n, bit)
			}
			data[bit/8] ^= 1 << (bit % 8)
		}
		if h.Sum(data) != want {
			t.Fatalf("length %d: restored data must hash to the original sum", n)
		}
		// Length is part of the sum: a zero byte more is a different input.
		if h.Sum(append(data, 0)) == want {
			t.Fatalf("length %d: appending a zero byte kept the sum", n)
		}
	}
}

// TestSumDetectsEveryShortBurst: a CRC-32C catches every burst of 32 bits
// or fewer with certainty. At every 7th bit offset of a 4 KiB page, a burst
// of 2 to 32 bits (first and last bit flipped, the ones between at random)
// must change Sum, and SumIov when a view boundary cuts through the burst.
func TestSumDetectsEveryShortBurst(t *testing.T) {
	h := NewHasher(13)
	rng := rand.New(rand.NewSource(17))
	data := make([]byte, 4096)
	rng.Read(data)
	want := h.Sum(data)
	nbits := len(data) * 8
	flip := func(at, n int, mask uint64) {
		for i := 0; i < n; i++ {
			if mask>>i&1 != 0 {
				data[(at+i)/8] ^= 1 << ((at + i) % 8)
			}
		}
	}
	for at := 0; at+2 <= nbits; at += 7 {
		n := min(2+at/7%31, nbits-at)
		mask := 1 | 1<<(n-1) | rng.Uint64()&(1<<(n-1)-1)
		flip(at, n, mask)
		if h.Sum(data) == want {
			t.Fatalf("%d-bit burst %#x at bit %d not detected", n, mask, at)
		}
		// The cut falls before the burst's last byte: inside the burst
		// whenever it spans two bytes or more.
		cut := (at + n - 1) / 8
		if h.SumIov([][]byte{data[:cut], data[cut:]}) == want {
			t.Fatalf("%d-bit burst %#x at bit %d cut at byte %d not detected", n, mask, at, cut)
		}
		flip(at, n, mask)
	}
	if h.Sum(data) != want {
		t.Fatal("restored data must hash to the original sum")
	}
}

// TestSumPositionAndSeedSensitive: the same byte hashes differently at
// every 8-byte offset (so swapped or shifted zero runs are caught), and a
// page of zeros — what a torn write leaves — hashes differently per seed.
func TestSumPositionAndSeedSensitive(t *testing.T) {
	h := NewHasher(7)
	seen := map[uint64]int{}
	for pos := 0; pos+8 <= 512; pos += 8 {
		data := make([]byte, 512)
		data[pos] = 0xA5
		sum := h.Sum(data)
		if prev, dup := seen[sum]; dup {
			t.Fatalf("marker at %d and at %d hash equal", prev, pos)
		}
		seen[sum] = pos
	}
	zeros := make([]byte, 4096)
	bySeed := map[uint64]bool{}
	for seed := int64(0); seed < 64; seed++ {
		hs := NewHasher(seed)
		bySeed[hs.Sum(zeros)] = true
	}
	if len(bySeed) != 64 {
		t.Fatalf("64 seeds gave %d distinct sums of a zero page", len(bySeed))
	}
}

// TestSumConcurrent: one hasher serves many goroutines (every rank's
// receiver verifies with the world's hasher); run under -race.
func TestSumConcurrent(t *testing.T) {
	h := NewHasher(5)
	data := make([]byte, 4099)
	for i := range data {
		data[i] = byte(i*131 + i>>8)
	}
	want := h.Sum(data)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if h.Sum(data) != want {
					t.Error("concurrent Sum disagrees with the serial sum")
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestSumAllocationFree(t *testing.T) {
	h := NewHasher(1)
	data := make([]byte, 4096)
	if n := testing.AllocsPerRun(100, func() { _ = h.Sum(data) }); n != 0 {
		t.Fatalf("Sum allocated %.1f per call, want 0", n)
	}
}

func TestStoreVerifyQuarantineRepair(t *testing.T) {
	h := NewHasher(9)
	st := NewStore(h, 8)
	blk := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	st.Record("f", 0, blk, 0, int64(len(blk)))
	if !st.Verify("f", 0, blk) {
		t.Fatal("pristine block must verify")
	}
	blk[3] ^= 0x10
	if st.Verify("f", 0, blk) {
		t.Fatal("corrupted block must fail verification")
	}
	if !st.Quarantined("f", 0) {
		t.Fatal("failed verification must quarantine the block")
	}
	if !st.Repair("f", 0, blk) {
		t.Fatal("retained image should repair the block")
	}
	if blk[3] != 4 {
		t.Fatalf("repair did not restore bytes: got %d", blk[3])
	}
	if st.Quarantined("f", 0) {
		t.Fatal("repair must clear the quarantine")
	}
	s := st.Snapshot()
	if s.Mismatches != 1 || s.Quarantined != 1 || s.Repairs != 1 || s.Backlog != 0 {
		t.Fatalf("unexpected stats: %+v", s)
	}
}

func TestStoreOverwriteClearsQuarantine(t *testing.T) {
	h := NewHasher(11)
	st := NewStore(h, 2)
	blk := []byte{9, 9, 9, 9}
	st.Record("g", 5, blk, 0, int64(len(blk)))
	blk[0] ^= 1
	if st.Verify("g", 5, blk) {
		t.Fatal("flip must be detected")
	}
	// Age the pristine image out of the tiny ring.
	st.Record("x", 0, []byte{1}, 0, int64(len([]byte{1})))
	st.Record("x", 1, []byte{2}, 0, int64(len([]byte{2})))
	if st.Repair("g", 5, blk) {
		t.Fatal("repair must fail once the image left the ring")
	}
	// Journal-replay path: the block is rewritten through the datapath.
	st.Record("g", 5, blk, 0, int64(len(blk)))
	if st.Quarantined("g", 5) {
		t.Fatal("overwrite must clear the quarantine")
	}
	if !st.Verify("g", 5, blk) {
		t.Fatal("rewritten block must verify under its fresh sum")
	}
}
