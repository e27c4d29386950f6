package core

import (
	"bytes"
	"encoding/binary"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"flexio/internal/datatype"
	"flexio/internal/mpi"
	"flexio/internal/realm"
)

// Flatten/intersection memoization.
//
// In steady state an application issues the same collective shape over and
// over: identical filetype, displacement, transfer size, and (with PFRs)
// identical realms. The piece lists produced by the client- and
// aggregator-side intersections are pure functions of that shape, so the
// engine caches them and, on a hit, skips rebuilding cursors, decoding
// request messages, and re-walking the intersections (or, under ROMIO's
// request form, re-splitting the flattened access). The aggregator side
// goes one step further and caches what it would do with its piece lists:
// the per-round merge plan (see roundPlan), so a hit round neither merges
// nor looks anything up.
//
// The cost model must not notice: every communication step still happens
// (requests are sent and received, only their decoding is skipped), and
// the virtual-time charges the skipped computation would have issued are
// replayed from a recorded list, in the original call order, so clocks,
// phase times, and pair counters are bit-identical to the miss path. Only
// host CPU time is saved.
//
// A memo is per-rank state, in the rank's scratch: nothing a rank plans is
// of use to another, so there is no lock, and what a rank can hold does not
// depend on how many ranks there are (one map capped at 128 entries per world
// kept nobody's beyond 128 ranks: every call evicted the steady state).
//
// Invalidation is by key equality, not by eviction hooks:
//
//   - the client key pins the filetype (by datatype identity — types are
//     immutable), view displacement, transfer size, collective buffer
//     size, aggregator count, and a content signature of the realm set;
//   - the aggregator key replaces the filetype with a hash of the raw
//     request messages received this call, so any client changing its
//     access pattern misses automatically;
//   - realm reassignment (Even -> Aligned -> PFR, or a PFR anchored on a
//     different region) changes the realm signature and misses; so does a
//     change of ROMIO's even domains, which are realms like any other.
//
// A lookup ends in one of three ways (memoOutcome). An exact hit finds the
// key. Under the flat request form without pre-aggregation, an exact miss
// next looks for the entry of the same access shape — the same requests but
// for their displacements, under the same cb, aggregator count and realm set
// — and rebases it when every access moved by one delta and no cut the plan
// was built at lies within delta of a feature of an access (rebase.go): the
// shifted plan and its charges are then exactly what a fresh build would
// give. Otherwise the call misses and plans afresh. The aggregator key keeps
// the shape, which holds every request's displacement relative to the first
// one's, apart from that first displacement (requestKey), so a key that
// differs in the latter alone names requests that all moved by one delta. The
// client keeps type identity as its fast path and compares its encoded
// request, displacement aside, with the kept ones only after an exact miss.
type clientKey struct {
	ft      datatype.Type // identity: types are immutable and comparable
	disp    int64
	dataLen int64
	cb      int64
	naggs   int
	sig     uint64 // realmSignature of the realm set
	// pre discriminates node-local pre-aggregation shapes: 0 when the rank
	// exchanges its own access (pre-aggregation off, or a leader with no
	// members — identical piece lists either way), 1 for a member whose
	// effective access is empty, and a hash of the members' request
	// encodings for a leader, whose merged pieces depend on every
	// co-resident's access, not just the fields above.
	pre uint64
}

type clientEntry struct {
	enc     []byte     // the request sent to every aggregator, or all of them in one block
	encs    [][]byte   // the request sent to each aggregator, cut from enc (list form only)
	pieces  pieceLists // what this rank exchanges with each aggregator
	charges []int64    // ChargePairs replay for the client side
}

// request is what this rank sends aggregator a.
func (ce *clientEntry) request(a int) []byte {
	if len(ce.encs) == 0 {
		return ce.enc
	}
	return ce.encs[a]
}

// equal reports whether two builds planned the same requests, pieces and
// charges.
func (ce *clientEntry) equal(o *clientEntry) bool {
	pl, ol := &ce.pieces, &o.pieces
	return bytes.Equal(ce.enc, o.enc) && slices.EqualFunc(ce.encs, o.encs, bytes.Equal) &&
		slices.Equal(ce.charges, o.charges) && pl.naggs == ol.naggs && slices.Equal(pl.runs, ol.runs) &&
		slices.Equal(pl.rounds, ol.rounds) && slices.Equal(pl.ends, ol.ends)
}

type aggKey struct {
	req   uint64 // hash of all received request messages, see requestKey
	at    int64  // the displacement the others are relative to in req
	cb    int64
	naggs int
	sig   uint64
}

type aggEntry struct {
	aggPlans         // one merge plan per two-phase round
	charges  []int64 // ChargePairs replay for the aggregator side
}

// requestKey hashes the request messages an aggregator received into its
// memo key. With split set (the flat form, whose requests lead with their
// 8-byte displacement, see dispOf), at is the first displacement and req
// covers every other byte and each displacement relative to at; a message
// too short to hold one is hashed whole. Without split, req covers the
// messages whole and at is 0.
func requestKey(msgs [][]byte, split bool) (req uint64, at int64) {
	req, first := hashSeed, true
	for _, m := range msgs {
		if split && len(m) >= 8 {
			d := dispOf(m)
			if first {
				at, first = d, false
			}
			req, m = hashInt64(req, d-at), m[8:]
		}
		req = hashBytes(req, m)
	}
	return req, at
}

// dispOf is the displacement a flat request leads with
// (datatype.Flat.AppendEncode).
func dispOf(enc []byte) int64 { return int64(binary.LittleEndian.Uint64(enc)) }

// memoSlots is how many shapes a rank remembers per side. A constant, not an
// option: a steady state holds one or two, and a loop that never repeats a
// shape pins this many plans per rank (ckpt-write's aggregators: 64 KiB each).
const memoSlots = 8

// memo is one rank's cache under the rules above: a fixed ring of entries,
// least recently used out first. Entries are rebuilt in place: Evict hands
// out the slot to go, whose blocks the caller truncates and refills, so a
// rank that plans a never-seen layout on every call allocates nothing once
// its ring is warm; Keep gives the rebuilt entry its key. An entry that must
// not be trusted later (a peer failed, a request was unusable) is never kept
// and is the next to go. What Get or Evict returned stays intact until the
// rank has evicted memoSlots more entries, far longer than the one call the
// executor reads it for. The zero value is ready to use.
type memo[K comparable, V any] struct {
	keys   [memoSlots]K
	vals   [memoSlots]V
	used   [memoSlots]uint64 // tick of the last Get or Keep; 0: no key
	tick   uint64
	victim int // the slot Evict handed out last
}

// Get returns the entry kept under k, or nil.
func (c *memo[K, V]) Get(k K) *V {
	for s := range c.keys {
		if c.used[s] != 0 && c.keys[s] == k {
			c.tick++
			c.used[s] = c.tick
			return &c.vals[s]
		}
	}
	return nil
}

// Evict drops the least recently used key (a slot without one goes first)
// and returns its entry for the caller to rebuild.
func (c *memo[K, V]) Evict() *V {
	c.victim = 0
	for s, t := range c.used {
		if t < c.used[c.victim] {
			c.victim = s
		}
	}
	var none K
	c.keys[c.victim], c.used[c.victim] = none, 0
	return &c.vals[c.victim]
}

// Find returns the most recently used kept entry that match accepts with its
// key, or nils. It changes nothing: a caller that rebuilds the entry in place
// Claims it.
func (c *memo[K, V]) Find(match func(k *K, e *V) bool) (*K, *V) {
	found := -1
	for s := range c.keys {
		if c.used[s] != 0 && (found < 0 || c.used[s] > c.used[found]) && match(&c.keys[s], &c.vals[s]) {
			found = s
		}
	}
	if found < 0 {
		return nil, nil
	}
	return &c.keys[found], &c.vals[found]
}

// Claim drops the key of e, an entry Find returned, for the caller to
// rebuild in place, as Evict does for the slot it picks.
func (c *memo[K, V]) Claim(e *V) {
	for s := range c.vals {
		if &c.vals[s] == e {
			var none K
			c.victim, c.keys[s], c.used[s] = s, none, 0
		}
	}
}

// Keep files the entry Evict or Claim handed out last under k.
func (c *memo[K, V]) Keep(k K) {
	c.tick++
	c.keys[c.victim], c.used[c.victim] = k, c.tick
}

// Each visits every kept entry.
func (c *memo[K, V]) Each(visit func(k K, e *V)) {
	for s := range c.keys {
		if c.used[s] != 0 {
			visit(c.keys[s], &c.vals[s])
		}
	}
}

// rankTable holds one lazily built T per rank: an engine's per-rank state
// (scratch, memo), segregated by rank because one engine serves every rank
// goroutine of a world. Lock-free: the table is sized to the world by
// whichever rank gets there first, and a slot is touched by its rank alone.
// The zero value is ready to use.
type rankTable[T any] struct {
	t atomic.Pointer[[]*T]
}

// For returns rank's T in a world of size ranks.
func (rt *rankTable[T]) For(rank, size int) *T {
	t := rt.t.Load()
	for t == nil || len(*t) < size {
		// A larger world than the engine served before. Every rank of it finds
		// the table short, so none writes a slot of the old one during the copy.
		grown := make([]*T, size)
		if t != nil {
			copy(grown, *t)
		}
		rt.t.CompareAndSwap(t, &grown)
		t = rt.t.Load()
	}
	if (*t)[rank] == nil {
		(*t)[rank] = new(T)
	}
	return (*t)[rank]
}

// assignCache is the realm assignment an engine computed last, with its key
// and the pairs its access merge went through. Every rank of a call asks with
// the same key: the first computes, the others receive the same immutable
// realms and signature. What Assign reads beyond the key (policy, dead set,
// alignment) is fixed per engine; the world stands for its node map; an
// assigner that reads the gathered accesses has their hash in the key, so a
// rank that changed its access is never served the old assignment.
type assignCache struct {
	mu    sync.Mutex
	key   assignKey
	val   *realm.Assignment
	pairs int64
}

type assignKey struct {
	world      *mpi.World
	naggs      int
	start, end int64
	accesses   uint64 // hashSeed over nothing when the assigner reads none
}

// The memo hash (hashSeed, hashBytes): 64 bits, sixteen input bytes per
// multiply, nothing allocated. It is the wyhash construction: two words, each masked with a
// secret or the running state, are multiplied to 128 bits and the halves
// folded together, so every input bit reaches every state bit in one step.
const (
	hashK0 = 0x2D358DCCAA6C78A5
	hashK1 = 0x8BB84B93962EACC9
	hashK2 = 0x4B33A62ED433D4A3
	hashK3 = 0x4D5A2DA51DE1AA47
)

// hashSeed is the state a hash starts from.
const hashSeed uint64 = 0x9E3779B97F4A7C15

// hashPair folds the 16 bytes at the head of b into state s under secret k.
func hashPair(b []byte, k, s uint64) uint64 {
	hi, lo := bits.Mul64(binary.LittleEndian.Uint64(b)^k, binary.LittleEndian.Uint64(b[8:])^s)
	return hi ^ lo
}

// hashInt64 folds v into h.
func hashInt64(h uint64, v int64) uint64 {
	hi, lo := bits.Mul64(uint64(v)^hashK0, h^hashK1)
	return hi ^ lo
}

// hashBytes folds b's length and then its bytes into h. Blocks of 128 bytes
// go through eight independent lanes, so the multiplies (and the cache
// misses on request bytes another rank wrote) overlap instead of queueing;
// the remaining 16-byte pairs and the zero-padded tail follow on the
// combined state.
func hashBytes(h uint64, b []byte) uint64 {
	h = hashInt64(h, int64(len(b)))
	if len(b) >= 128 {
		s0, s1, s2, s3, s4, s5, s6, s7 := h, h, h, h, ^h, ^h, ^h, ^h
		n := len(b) &^ 127
		for i := 0; i < n; i += 128 {
			blk := b[i : i+128 : i+128]
			s0 = hashPair(blk[0:16], hashK0, s0)
			s1 = hashPair(blk[16:32], hashK1, s1)
			s2 = hashPair(blk[32:48], hashK2, s2)
			s3 = hashPair(blk[48:64], hashK3, s3)
			s4 = hashPair(blk[64:80], hashK0, s4)
			s5 = hashPair(blk[80:96], hashK1, s5)
			s6 = hashPair(blk[96:112], hashK2, s6)
			s7 = hashPair(blk[112:128], hashK3, s7)
		}
		b = b[n:]
		h = s0 ^ s1 ^ s2 ^ s3 ^ s4 ^ s5 ^ s6 ^ s7
	}
	for ; len(b) >= 16; b = b[16:] {
		h = hashPair(b, hashK0, h)
	}
	if len(b) > 0 {
		var tail [16]byte
		copy(tail[:], b)
		h = hashPair(tail[:], hashK1, h)
	}
	return h
}

// realmSignature hashes the realm set by content: displacement, count, and
// the pattern's extent and flattened segments. Assigners build fresh
// pattern objects every call, so identity would never hit; content is
// stable whenever the assignment is. Realm patterns are small (one segment
// for contiguous partitions), so this is O(realms) per call.
func realmSignature(realms []realm.Realm) uint64 {
	h := hashSeed
	h = hashInt64(h, int64(len(realms)))
	for _, r := range realms {
		h = hashInt64(h, r.Disp)
		h = hashInt64(h, r.Count)
		if r.Pattern == nil {
			h = hashInt64(h, -1)
			continue
		}
		h = hashInt64(h, r.Pattern.Extent())
		for _, s := range r.Pattern.Flatten() {
			h = hashInt64(h, s.Off)
			h = hashInt64(h, s.Len)
		}
	}
	return h
}
