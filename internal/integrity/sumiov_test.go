package integrity

import (
	"math/rand"
	"testing"
)

// splitAt cuts data into views at the given cut points (taken modulo
// len(data)+1, in any order, duplicates allowed — a duplicate makes an
// empty view).
func splitAt(data []byte, cuts []int) [][]byte {
	marks := make([]bool, len(data)+1)
	empties := 0
	for _, c := range cuts {
		c %= len(data) + 1
		if marks[c] {
			empties++
		}
		marks[c] = true
	}
	var iov [][]byte
	last := 0
	for c := 1; c < len(data); c++ {
		if marks[c] {
			iov = append(iov, data[last:c])
			last = c
		}
	}
	iov = append(iov, data[last:])
	for ; empties > 0; empties-- {
		// Empty views go wherever the count says: front, middle, back.
		at := empties % (len(iov) + 1)
		iov = append(iov[:at], append([][]byte{nil}, iov[at:]...)...)
	}
	return iov
}

// TestSumIovEqualsSumOfConcat splits inputs of every length up to 130 and
// of about a page at random points — including one-byte views and empty
// views — and requires Sum's result every time.
func TestSumIovEqualsSumOfConcat(t *testing.T) {
	h := NewHasher(11)
	rng := rand.New(rand.NewSource(5))
	lengths := []int{4096, 4097, 1000}
	for n := 0; n <= 130; n++ {
		lengths = append(lengths, n)
	}
	for _, n := range lengths {
		data := make([]byte, n)
		rng.Read(data)
		want := h.Sum(data)
		if got := h.SumIov(nil); n == 0 && got != want {
			t.Fatalf("SumIov(nil) = %#x, Sum(empty) = %#x", got, want)
		}
		if got := h.SumIov([][]byte{data}); got != want {
			t.Fatalf("length %d: one view: %#x, want %#x", n, got, want)
		}
		// Every byte its own view.
		var bytewise [][]byte
		for i := range data {
			bytewise = append(bytewise, data[i:i+1])
		}
		if got := h.SumIov(bytewise); got != want {
			t.Fatalf("length %d: one-byte views: %#x, want %#x", n, got, want)
		}
		for trial := 0; trial < 40; trial++ {
			cuts := make([]int, rng.Intn(9))
			for i := range cuts {
				cuts[i] = rng.Intn(n + 1)
			}
			iov := splitAt(data, cuts)
			if got := h.SumIov(iov); got != want {
				t.Fatalf("length %d cuts %v: %#x, want %#x", n, cuts, got, want)
			}
		}
	}
}

// TestSumIovDetectsEverySingleBitFlip flips every bit of every view of a
// payload cut into views of uneven lengths, some of them empty.
func TestSumIovDetectsEverySingleBitFlip(t *testing.T) {
	h := NewHasher(3)
	data := make([]byte, 203)
	for i := range data {
		data[i] = byte(i*41 + 7)
	}
	iov := splitAt(data, []int{1, 9, 31, 33, 64, 100, 100, 197})
	want := h.SumIov(iov)
	for vi, v := range iov {
		for bit := 0; bit < len(v)*8; bit++ {
			v[bit/8] ^= 1 << (bit % 8)
			if h.SumIov(iov) == want {
				t.Fatalf("view %d: bit flip at %d not detected", vi, bit)
			}
			v[bit/8] ^= 1 << (bit % 8)
		}
	}
	if h.SumIov(iov) != want {
		t.Fatal("restored views must hash to the original sum")
	}
}

func TestSumIovAllocationFree(t *testing.T) {
	h := NewHasher(1)
	data := make([]byte, 4096)
	iov := splitAt(data, []int{5, 100, 1033, 4000})
	if n := testing.AllocsPerRun(100, func() { _ = h.SumIov(iov) }); n != 0 {
		t.Fatalf("SumIov allocates %v per call, want 0", n)
	}
}

// FuzzSumIov reads the first byte as a cut count, that many bytes as cut
// points and the rest as the payload: whatever the split, SumIov must
// equal Sum of the whole.
func FuzzSumIov(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{2, 3, 3, 'a', 'b', 'c', 'd', 'e'})
	f.Add(append([]byte{4, 1, 31, 32, 33}, make([]byte, 70)...))
	h := NewHasher(99)
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 {
			return
		}
		ncuts := min(int(in[0]), len(in)-1)
		cuts := make([]int, ncuts)
		for i := range cuts {
			cuts[i] = int(in[1+i])
		}
		data := in[1+ncuts:]
		if got, want := h.SumIov(splitAt(data, cuts)), h.Sum(data); got != want {
			t.Fatalf("cuts %v over %d bytes: SumIov %#x, Sum %#x", cuts, len(data), got, want)
		}
	})
}
