// Package bufpool provides size-classed byte-slice pools for the
// collective datapath. Every hot-path buffer — packed data streams,
// read streams, forwarded payloads, sieve staging —
// cycles through these pools so a steady-state collective call allocates
// nothing.
//
// Ownership discipline (strict, verified under -race by the colltest pool
// tests and, with the `bufpooldebug` build tag, by poison-on-put):
//
//   - Get hands out a buffer with len n; its contents are undefined
//     (GetZero guarantees zeroes). The caller owns it exclusively.
//   - The simulated transport passes slices by reference. A message that
//     hands a buffer over (Send of a whole pooled buffer, by agreement of
//     both ends) transfers ownership at most once: it belongs to the
//     RECEIVER the moment it is sent, and the sender must not touch it
//     again — not even to Put it. A message that only lends views of a
//     buffer (the shuffle: SendIov, AlltoallvIov, a Send of a subslice)
//     leaves ownership with the sender, who must keep the buffer intact
//     until a rendezvous proves every receiver has consumed its views,
//     and must drop it — never Put it — if it dies before that.
//   - Put returns the buffer to its class; the caller must hold no live
//     aliases (subslices included), its own or lent. Put(nil) and Put of
//     tiny buffers are safe no-ops; never Put a buffer Get did not hand
//     out (a caller's own memory would be handed to the next Get).
//
// Pools are global and shared by every rank goroutine: the same buffer a
// client packed its write stream into comes back as another rank's read
// stream in a later call. All operations are safe for concurrent use.
package bufpool

import (
	"sync"
	"sync/atomic"
)

const (
	// minClassBits is the smallest pooled size (256 B); smaller requests
	// are served from the smallest class.
	minClassBits = 8
	// maxClassBits is the largest pooled size (64 MB); larger requests
	// fall through to the allocator and Put drops them.
	maxClassBits = 26
	numClasses   = maxClassBits - minClassBits + 1
	// classBudget bounds the free bytes one class retains; beyond that Put
	// releases to the garbage collector. A byte budget lets the small
	// classes keep the hundreds of same-sized exchange payloads a round has
	// in flight (ranks x aggregators) while the largest class keeps a
	// single buffer, so idle pools cannot pin unbounded memory.
	classBudget = 1 << maxClassBits
)

// class is one free list. A mutex-guarded stack (rather than sync.Pool)
// keeps Get/Put allocation-free: storing a []byte in sync.Pool boxes the
// slice header on every Put.
type class struct {
	mu   sync.Mutex
	free [][]byte
	max  int
}

var classes [numClasses]*class

// Counters (atomic, global): observability for tests and the benchmark
// docs. news counts Gets served by the allocator (pool misses).
var gets, puts, news, drops atomic.Int64

func init() {
	for i := range classes {
		classes[i] = &class{max: classBudget >> (i + minClassBits)}
	}
}

// classIndex returns the index of the smallest class holding n bytes, or
// -1 when n exceeds the largest class.
func classIndex(n int64) int {
	if n <= 1<<minClassBits {
		return 0
	}
	if n > 1<<maxClassBits {
		return -1
	}
	bits := minClassBits
	for int64(1)<<bits < n {
		bits++
	}
	return bits - minClassBits
}

// Get returns a buffer of length n with undefined contents. n <= 0 yields
// a non-nil empty slice.
func Get(n int64) []byte {
	gets.Add(1)
	if n < 0 {
		n = 0
	}
	ci := classIndex(n)
	if ci < 0 {
		news.Add(1)
		return make([]byte, n)
	}
	c := classes[ci]
	c.mu.Lock()
	if len(c.free) > 0 {
		b := c.free[len(c.free)-1]
		c.free[len(c.free)-1] = nil
		c.free = c.free[:len(c.free)-1]
		c.mu.Unlock()
		checkPoison(b)
		return b[:n]
	}
	c.mu.Unlock()
	news.Add(1)
	return make([]byte, n, 1<<(ci+minClassBits))
}

// GetZero returns a zeroed buffer of length n.
func GetZero(n int64) []byte {
	b := Get(n)
	for i := range b {
		b[i] = 0
	}
	return b
}

// Put returns b's backing array to its size class. The caller must not use
// b (or any alias of it) afterwards.
func Put(b []byte) {
	if b == nil {
		return
	}
	cp := int64(cap(b))
	if cp < 1<<minClassBits || cp > 1<<maxClassBits {
		drops.Add(1)
		return
	}
	// Largest class fully contained in the backing array, so a future
	// Get's length never exceeds the capacity.
	bits := minClassBits
	for int64(1)<<(bits+1) <= cp && bits+1 <= maxClassBits {
		bits++
	}
	ci := bits - minClassBits
	b = b[:1<<bits]
	poison(b)
	c := classes[ci]
	c.mu.Lock()
	if len(c.free) < c.max {
		c.free = append(c.free, b)
		puts.Add(1)
		c.mu.Unlock()
		return
	}
	c.mu.Unlock()
	drops.Add(1)
}

// Counters is a snapshot of the pool's global activity.
type Counters struct {
	Gets  int64 // Get/GetZero calls
	Puts  int64 // buffers accepted back into a class
	News  int64 // Gets served by the allocator (misses)
	Drops int64 // Puts released to the GC (class full or foreign size)
}

// Snapshot returns the current counters.
func Snapshot() Counters {
	return Counters{Gets: gets.Load(), Puts: puts.Load(), News: news.Load(), Drops: drops.Load()}
}

// Drain empties every class (tests use it to isolate counter assertions).
func Drain() {
	for _, c := range classes {
		c.mu.Lock()
		c.free = nil
		c.mu.Unlock()
	}
}
