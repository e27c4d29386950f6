package pfs

import (
	"errors"
	"fmt"

	"flexio/internal/datatype"
	"flexio/internal/metrics"
	"flexio/internal/sim"
	"flexio/internal/trace"
)

// SieveWrite models a data-sieving write window: the cost is that of a
// contiguous read of the covering span (skipped when the segments leave no
// holes) followed by one contiguous write of the span, while only the
// useful segments' bytes are actually modified — so concurrent writers of
// interleaved byte ranges (e.g. cyclic file realms) are never clobbered by
// the gap data the sieve buffer carries.
func (h *Handle) SieveWrite(span datatype.Seg, segs []datatype.Seg, data []byte, now sim.Time) (sim.Time, error) {
	return h.SieveWriteData(span, segs, Bytes(data), now)
}

// SieveWriteData is the one sieve write, SieveWrite's window with data's
// bytes read in place. After the window check, and the prefetch of a span
// with holes, the write-back is one access: the span is its unit, the
// segments are where data lands.
func (h *Handle) SieveWriteData(span datatype.Seg, segs []datatype.Seg, data Data, now sim.Time) (sim.Time, error) {
	useful, err := h.c.window("SieveWrite", span, segs, data.Len())
	if err != nil || span.Len == 0 {
		return now, err
	}
	if useful < span.Len {
		// Holes: fetch the span first (read-modify-write at sieve
		// granularity). The read populates the client cache, so the
		// write-back pays no per-page RMW. It only exists for its timing —
		// the file image is exact, so the gap bytes a real sieve buffer
		// would carry are already where they belong — hence a timing-only
		// access.
		h.c.tr.Instant2(now, "sieve_rmw",
			trace.I("span", span.Len), trace.I("useful", useful))
		h.c.span[0] = span
		now, err = h.c.access("read", h.f, h.c.span[:1], nil, None(0), true, now)
		if err = h.prefetched(span, now, err); err != nil {
			return now, err
		}
	}
	h.c.span[0] = span // access cut it in place if the prefetch was partial
	return h.c.access("write", h.f, h.c.span[:1], segs, data, true, now)
}

// prefetched is what a sieve write makes of its prefetch's error.
func (h *Handle) prefetched(span datatype.Seg, t sim.Time, err error) error {
	switch {
	case errors.Is(err, ErrDataIntegrity):
		// A quarantined page in the span stays quarantined for every real
		// reader. Failing the window here would block the clean full
		// rewrite that is the repair path, so press on — fully rewritten
		// pages clear their quarantine, gap pages keep it.
		h.c.tr.Instant1(t, "sieve_rmw_quarantined", trace.I("span", span.Len))
		return nil
	case errors.Is(err, ErrPartial):
		// A short RMW prefetch is not a short write: no user data landed.
		// Surface it as a transient whole-window failure the caller can
		// retry.
		return fmt.Errorf("pfs: sieve rmw read %q: %w", h.f.name, ErrTransient)
	}
	return err
}

// SieveRead models a data-sieving read window: one contiguous read of the
// span in timing, locking, page verification and cache fill, while only the
// useful bytes move — each once, from the file's pages into buf. It is one
// access: the span is its unit, the segments are where its bytes are
// gathered from. No sieve buffer exists on the host: the file image is
// exact, so the gap bytes a real one would carry have nowhere to go. A span
// a partial fault cuts short delivers the useful bytes below the cut and
// reports them as Written. A nil buf makes the read timing-only: every check
// and charge, no bytes delivered (see Views).
func (h *Handle) SieveRead(span datatype.Seg, segs []datatype.Seg, buf []byte, now sim.Time) (sim.Time, error) {
	n := int64(len(buf))
	if buf == nil {
		n = -1
	}
	useful, err := h.c.window("SieveRead", span, segs, n)
	if err != nil || span.Len == 0 {
		return now, err
	}
	dst := Bytes(buf)
	if buf == nil {
		dst = None(useful)
	}
	h.c.span[0] = span
	return h.c.access("read", h.f, h.c.span[:1], segs, dst, true, now)
}

// window checks a sieve window: its segments lie inside span and hold the n
// bytes the caller moves (any number for n < 0, a timing-only read). It
// counts a non-empty span's bytes and its useful ones, and returns the
// useful ones.
func (c *Client) window(call string, span datatype.Seg, segs []datatype.Seg, n int64) (int64, error) {
	var useful int64
	for _, s := range segs {
		if s.Off < span.Off || s.End() > span.End() {
			return 0, fmt.Errorf("pfs: %s: segment [%d,%d) outside span [%d,%d)",
				call, s.Off, s.End(), span.Off, span.End())
		}
		useful += s.Len
	}
	if n >= 0 && useful != n {
		return 0, fmt.Errorf("pfs: %s: %d segment bytes but %d data bytes", call, useful, n)
	}
	if span.Len > 0 {
		c.reg.Add(metrics.CSieveSpanBytes, span.Len)
		c.reg.Add(metrics.CSieveUsefulBytes, useful)
	}
	return useful, nil
}
