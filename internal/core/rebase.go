package core

import (
	"math"

	"flexio/internal/datatype"
	"flexio/internal/realm"
)

// Rebasing a memoized plan (see memo.go for when it is tried).
//
// A step of a checkpoint loop is the last step's access moved by one slot:
// the same requests at other displacements. An intersection walks the access
// against a realm and changes course only where a feature of the access (a
// data byte, a segment edge, an instance start) meets a cut of the realm (a
// run's start or end, an instance start, a cb round cut of its stream). If,
// at the displacements the plan was built for, no feature of any non-empty
// access lies between a cut B and B-delta, then moving the accesses by delta
// carries no feature across a cut and puts none on one: every piece keeps its
// realm, its round, its stream position and its split points, and both
// cursors take the same steps. The rebased plan is then the old one with its
// file offsets moved by delta, and its pair charges, so virtual time, are a
// fresh build's. Only realms whose pattern is one segment per instance (what
// Even and Cyclic build) are walked for their cuts; any other realm refuses.
// Such realms come from assigners that read the accesses, and those realms
// move with the accesses anyway.

// memoOutcome is how one side's memo lookup ended.
type memoOutcome uint8

const (
	memoMiss   memoOutcome = iota // planned afresh
	memoHit                       // the entry kept for this very access
	memoRebase                    // the entry of the same access shape, shifted
)

// rebases reports whether the engine rebases plans: the flat request form
// without pre-aggregation, whose requests carry their displacement apart.
func (i *Impl) rebases() bool { return i.form == flatRequests && !i.o.Preagg }

// empty reports whether an access moves no byte, wherever it lies.
func empty(fl datatype.Flat) bool { return len(fl.Segs) == 0 || fl.Count == 0 || fl.Limit == 0 }

// rebasable reports whether plans built for the accesses accs moved back by
// delta hold for accs, shifted by delta, against realm rm cut at every cb
// bytes of its stream: whether no cut B has a feature of a non-empty access
// in [B, B+delta] (in [B+delta, B] for a negative delta). It stops at the
// first such cut.
func rebasable(accs []datatype.Flat, rm realm.Realm, cb, delta int64) bool {
	if delta == 0 || rm.Empty() {
		return true
	}
	segs := rm.Pattern.Flatten()
	reach := max(delta, -delta)
	if len(segs) != 1 || reach > math.MaxInt64/4 {
		return false
	}
	// Only cuts within delta of the accesses' features can touch one.
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	for _, a := range accs {
		if empty(a) {
			continue
		}
		ext := a.Extent
		if ext <= 0 {
			ext = a.Segs[len(a.Segs)-1].End()
		}
		if a.Disp < 0 || a.Count > (math.MaxInt64/4-a.Disp)/ext {
			return false // no access of a file reaches this far
		}
		lo, hi = min(lo, a.Disp), max(hi, a.Disp+a.Count*ext)
	}
	if lo > hi {
		return true
	}
	clear := func(b int64) bool {
		from, to := min(b, b+delta), max(b, b+delta)
		for _, a := range accs {
			if !empty(a) && a.Touches(from, to) {
				return false
			}
		}
		return true
	}
	// Instance i of the realm starts at s, runs [s+o, s+o+n) and holds
	// stream bytes [i*n, (i+1)*n).
	o, n, ext := segs[0].Off, segs[0].Len, rm.Pattern.Extent()
	last := (hi + reach - rm.Disp) / ext
	if rm.Count >= 0 {
		last = min(last, rm.Count)
	}
	for i := max(0, (lo-reach-rm.Disp)/ext-1); i <= last; i++ {
		s := rm.Disp + i*ext
		if !clear(s) {
			return false
		}
		if i == rm.Count {
			break // the realm's end: no run follows
		}
		run := s + o
		if !clear(run) || !clear(run+n) {
			return false
		}
		// The round cuts inside the run, as stream positions, within reach.
		from := i*n + min(max(lo-reach-run, 1), n)
		to := i*n + min(max(hi+reach-run, 0), n)
		for q := (from + cb - 1) / cb * cb; q <= to && q < (i+1)*n; q += cb {
			if !clear(run + q - i*n) {
				return false
			}
		}
	}
	return true
}

// rebase moves ae, built for requests of the same shape that all lay delta
// bytes before the requests msgs (decoded into ms): it succeeds when no cut of
// this aggregator's realm rm stands in the way (rebasable) and the moved plan
// stays inside the aggregate access region [lo, hi), the check a fresh build
// makes. A rebased entry is claimed from m, whose caller keeps it again or
// not.
func (ae *aggEntry) rebase(m *memo[aggKey, aggEntry], ms *planScratch, msgs [][]byte, rm realm.Realm, lo, hi, cb, delta int64) bool {
	first, end := int64(math.MaxInt64), int64(math.MinInt64)
	for _, s := range ae.segs {
		first, end = min(first, s.Off), max(end, s.End())
	}
	if len(ae.segs) > 0 && (first+delta < lo || end+delta > hi) {
		return false
	}
	flats, _, bad := flatRequests.decode(ms, msgs, 0, 0)
	if bad != nil || !rebasable(flats, rm, cb, delta) {
		return false
	}
	m.Claim(ae)
	for k := range ae.segs {
		ae.segs[k].Off += delta
	}
	return true
}

// rebasableClient is rebasable for this rank's own access against every
// realm.
func rebasableClient(acc datatype.Flat, realms []realm.Realm, cb, delta int64) bool {
	accs := [1]datatype.Flat{acc}
	for _, rm := range realms {
		if !rebasable(accs[:], rm, cb, delta) {
			return false
		}
	}
	return true
}
