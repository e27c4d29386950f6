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
	"errors"
	"hash/crc32"
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

// castagnoli is the CRC-32C table; hash/crc32 runs Update over it with the
// CPU's CRC32 instruction where there is one.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Hasher computes seeded CRC-32C checksums. It holds only its start value,
// so Sum allocates nothing and is safe for concurrent use.
type Hasher struct{ seed uint32 }

// NewHasher builds a hasher whose sums start from a value derived from the
// seed, so the same data sums differently under different seeds.
func NewHasher(seed int64) *Hasher {
	return &Hasher{seed: uint32(Mix(uint64(seed) + 0x9e3779b97f4a7c15))}
}

// Sum checksums data under the hasher's seed; allocation-free. The sum is a
// CRC-32C in the low 32 bits (the high 32 are zero): every single-bit flip
// and every burst of 32 bits or fewer changes it with certainty, and any
// other change goes unnoticed with probability about 2^-32.
func (h *Hasher) Sum(data []byte) uint64 {
	return uint64(crc32.Update(h.seed, castagnoli, data))
}

// SumIov is Sum of the concatenation of iov, computed without building it:
// the sum a payload travelling as views of the sender's memory carries in
// its envelope. A CRC carries its whole state from one view to the next,
// so any split gives Sum's result; allocation-free.
func (h *Hasher) SumIov(iov [][]byte) uint64 {
	crc := h.seed
	for _, v := range iov {
		crc = crc32.Update(crc, castagnoli, v)
	}
	return uint64(crc)
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
