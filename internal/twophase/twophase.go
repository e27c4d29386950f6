// Package twophase names the baseline: a faithful model of the original
// ROMIO-style two-phase collective I/O implementation the paper compares
// against (Thakur, Gropp, Lusk — "Data sieving and collective I/O in
// ROMIO").
//
// Its defining characteristics, all modelled:
//
//   - The entire access is flattened into offset/length pairs (M pairs) and
//     the pairs themselves are exchanged: O(M) memory and communication,
//     but only O(M) computation.
//   - File domains (realms) are an even partition of the aggregate access
//     region — contiguous byte ranges only.
//   - Data sieving is integrated directly into the collective buffer.
//   - All communication of a round is posted at once.
//
// None of them needs a planner of its own: they are a request form, realms,
// an exchange strategy and a buffer access method of flexio/internal/core's
// one planner and round executor, which core.ROMIO fixes. Journalling,
// degradation, pre-aggregation and validation are core.Options fields.
package twophase

import "flexio/internal/core"

// New returns the baseline implementation with no options set.
func New() *core.Impl { return core.ROMIO(core.Options{}) }
