// Package integrity is the end-to-end data-integrity layer of the stack:
// seeded, allocation-free checksums for in-flight payloads and at-rest
// stripe blocks, a per-file block-checksum store with a quarantine set, and
// a bounded ring of retained block images for repair.
//
// Everything is deterministic for a fixed seed, like the fault schedules
// it defends against: the same run detects the same corruptions at the
// same points on every execution, which is what lets the chaos matrices
// gate on byte-identical outcomes.
package integrity

import (
	"encoding/binary"
	"errors"
	"math/bits"
	"sync"
)

// ErrDataIntegrity marks data whose checksum did not match and could not
// be repaired — neither by bounded re-request (wire) nor from a retained
// block image or journal replay (at rest). It is the sentinel the
// collective error agreement escalates to a uniform abort; pfs re-exports
// it so storage-layer callers need not import this package.
var ErrDataIntegrity = errors.New("integrity: checksum mismatch, data unrepairable")

// MaxReRequests bounds how many times a receiver re-requests a payload
// whose wire checksum failed before giving up and escalating to
// ErrDataIntegrity. A corruption rule whose repeat count exceeds it is
// unrepairable by construction.
const MaxReRequests = 3

// tabWords is the size of the seeded table of per-position word keys (a
// power of two: positions wrap with a mask).
const tabWords = 256

// tabPool recycles scratch tables across hashers so short-lived worlds
// (tests, chaos scenarios) do not churn 2KiB allocations.
var tabPool = sync.Pool{New: func() any { return new([tabWords]uint64) }}

// Hasher computes seeded 64-bit checksums. The seed expands into a
// pooled scratch table at construction; Sum itself allocates nothing and
// is safe for concurrent use (the table is read-only after NewHasher).
type Hasher struct {
	seed uint64
	tab  *[tabWords]uint64
}

// NewHasher builds a hasher for the seed, borrowing its scratch table
// from the pool. Call Release when the owning world or file system is
// torn down to recycle the table; a dropped hasher merely falls to the GC.
func NewHasher(seed int64) *Hasher {
	h := &Hasher{seed: Mix(uint64(seed) + 0x9e3779b97f4a7c15)}
	h.tab = tabPool.Get().(*[tabWords]uint64)
	x := h.seed
	for i := range h.tab {
		x = Mix(x + 0x9e3779b97f4a7c15)
		h.tab[i] = x
	}
	return h
}

// Release returns the scratch table to the pool. The hasher must not be
// used afterwards.
func (h *Hasher) Release() {
	if h.tab != nil {
		tabPool.Put(h.tab)
		h.tab = nil
	}
}

// Lane constants: odd, so multiplying by one is a bijection on 64 bits.
const (
	laneMul = 0x9e3779b97f4a7c15
	lenMul  = 0xff51afd7ed558ccd
)

// mixWord folds one keyed 8-byte word into a lane: a bijection of the lane
// for a fixed word and injective in the word for a fixed lane, so a change
// confined to one word can never be absorbed by the steps that follow it.
func mixWord(x, k uint64) uint64 {
	return (bits.RotateLeft64(x, 27) ^ k) * laneMul
}

// Sum checksums data under the hasher's seed; allocation-free.
//
// The input is cut into 32-byte blocks of four 8-byte words, and word j of
// every block feeds lane j. The lanes never read each other until the end,
// so the four multiply chains and their table loads overlap in the
// pipeline instead of queueing behind one another. Each word is keyed by a
// table entry chosen by its position, which makes the sum depend on the
// seed everywhere (a run of zeros hashes differently at every offset). What
// is left after the last full block goes word by word into lanes 0, 1, 2
// and the final 1..7 bytes, zero-extended, into the next lane; the length
// is part of every lane's start value, so padding is unambiguous. Because
// every step is a bijection of its lane and the fold is injective in each
// lane, any single flipped bit — any change inside one word — changes the
// sum with certainty, not just with high probability.
func (h *Hasher) Sum(data []byte) uint64 {
	st := h.start(len(data))
	return h.finish(&st, h.blocks(&st, data))
}

// SumIov is Sum of the concatenation of iov, computed without building it:
// the sum a payload travelling as views of the sender's memory carries in
// its envelope. A block that straddles two views is assembled in a 32-byte
// carry on the stack, so empty views, one-byte views and splits anywhere
// inside a block all give Sum's result; allocation-free.
func (h *Hasher) SumIov(iov [][]byte) uint64 {
	n := 0
	for _, v := range iov {
		n += len(v)
	}
	st := h.start(n)
	var carry [32]byte
	nc := 0 // bytes of an unfinished block held in carry
	for _, v := range iov {
		if nc > 0 {
			k := copy(carry[nc:], v)
			nc, v = nc+k, v[k:]
			if nc < len(carry) {
				continue
			}
			h.blocks(&st, carry[:])
		}
		nc = copy(carry[:], h.blocks(&st, v))
	}
	return h.finish(&st, carry[:nc])
}

// sumState is a sum in progress: the four lanes and the table position of
// the next block's first word (a multiple of 4).
type sumState struct {
	x   [4]uint64
	pos int
}

// start seeds the lanes for an input of n bytes.
func (h *Hasher) start(n int) sumState {
	s := h.seed ^ uint64(n)*lenMul
	return sumState{x: [4]uint64{s ^ h.tab[252], s ^ h.tab[253], s ^ h.tab[254], s ^ h.tab[255]}}
}

// blocks mixes every full 32-byte block of data into the lanes and returns
// what is left (fewer than 32 bytes). The lanes live in locals for the
// whole loop so they stay in registers.
func (h *Hasher) blocks(st *sumState, data []byte) []byte {
	if len(data) < 32 {
		return data
	}
	tab := h.tab
	x0, x1, x2, x3 := st.x[0], st.x[1], st.x[2], st.x[3]
	pos := st.pos
	for len(data) >= 32 {
		b := data[:32]
		k := tab[pos&(tabWords-4):][:4]
		x0 = mixWord(x0, binary.LittleEndian.Uint64(b[0:8])^k[0])
		x1 = mixWord(x1, binary.LittleEndian.Uint64(b[8:16])^k[1])
		x2 = mixWord(x2, binary.LittleEndian.Uint64(b[16:24])^k[2])
		x3 = mixWord(x3, binary.LittleEndian.Uint64(b[24:32])^k[3])
		data = data[32:]
		pos += 4
	}
	st.x, st.pos = [4]uint64{x0, x1, x2, x3}, pos
	return data
}

// finish mixes the last partial block (fewer than 32 bytes) and folds the
// lanes into the sum.
func (h *Hasher) finish(st *sumState, tail []byte) uint64 {
	tab, pos := h.tab, st.pos
	lanes := &st.x
	lane := 0
	for ; len(tail) >= 8; tail = tail[8:] {
		lanes[lane] = mixWord(lanes[lane], binary.LittleEndian.Uint64(tail)^tab[(pos+lane)&(tabWords-1)])
		lane++
	}
	if len(tail) > 0 {
		var w uint64
		for i, b := range tail {
			w |= uint64(b) << (8 * uint(i))
		}
		lanes[lane] = mixWord(lanes[lane], w^tab[(pos+lane)&(tabWords-1)])
	}
	x := lanes[0]
	for _, l := range lanes[1:] {
		x = mixWord(x, l)
	}
	return Mix(x)
}

// Mix is the splitmix64 finalizer; the pfs and mpi fault coins chain it too.
func Mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
