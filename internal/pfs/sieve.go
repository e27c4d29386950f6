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
// bytes read in place.
func (h *Handle) SieveWriteData(span datatype.Seg, segs []datatype.Seg, data Data, now sim.Time) (sim.Time, error) {
	var useful int64
	for _, s := range segs {
		if s.Off < span.Off || s.End() > span.End() {
			return now, fmt.Errorf("pfs: SieveWrite: segment [%d,%d) outside span [%d,%d)",
				s.Off, s.End(), span.Off, span.End())
		}
		useful += s.Len
	}
	if useful != data.Len() {
		return now, fmt.Errorf("pfs: SieveWrite: %d segment bytes but %d data bytes", useful, data.Len())
	}
	if span.Len == 0 {
		return now, nil
	}
	h.c.reg.Add(metrics.CSieveSpanBytes, span.Len)
	h.c.reg.Add(metrics.CSieveUsefulBytes, useful)
	t := now
	if useful < span.Len {
		// Holes: fetch the span first (read-modify-write at sieve
		// granularity). The read populates the client cache, so the
		// write below pays no per-page RMW.
		h.c.tr.Instant2(now, "sieve_rmw",
			trace.I("span", span.Len), trace.I("useful", useful))
		// The prefetch only exists for its timing — the file image is
		// exact, so the gap bytes a real sieve buffer would carry are
		// already where they belong — hence a timing-only access.
		h.c.rmwSpan[0] = span
		var err error
		t, err = h.c.access("read", h.f, h.c.rmwSpan[:1], Data{}, nil, nil, true, t)
		if err != nil {
			switch {
			case errors.Is(err, ErrDataIntegrity):
				// The prefetch only feeds the timing model, and a
				// quarantined page in the span stays quarantined for
				// every real reader. Failing the window
				// here would block the clean full rewrite that is the
				// repair path, so press on — fully rewritten pages clear
				// their quarantine below, gap pages keep it.
				h.c.tr.Instant1(t, "sieve_rmw_quarantined",
					trace.I("span", span.Len))
			case errors.Is(err, ErrPartial):
				// A short RMW prefetch is not a short write: no user
				// data landed. Surface it as a transient whole-window
				// failure the caller can retry.
				return t, fmt.Errorf("pfs: sieve rmw read %q: %w", h.f.name, ErrTransient)
			default:
				return t, err
			}
		}
	}
	// Apply the useful bytes, but charge the write as one contiguous span.
	return h.c.accessSieveSpan(h.f, span, segs, data, t)
}

// accessSieveSpan performs the write-back half of a sieve window: data is
// scattered to segs, timing is that of one contiguous span write.
func (c *Client) accessSieveSpan(f *fileData, span datatype.Seg, segs []datatype.Seg, data Data, now sim.Time) (sim.Time, error) {
	fs := c.fs

	// Op.Len and partial progress are in useful (data) bytes, not span
	// bytes.
	partial, err := c.admit(Op{Kind: "write", Name: f.name, Off: span.Off,
		Len: data.Len(), Sieve: true}, now)
	if err != nil {
		return now + fs.cfg.IOCallOverhead, err
	}
	if partial != nil {
		segs, _ = datatype.SplitSegs(segs, partial.Written)
		data = data.Slice(0, partial.Written)
		span = datatype.Seg{Off: span.Off, Len: segs[len(segs)-1].End() - span.Off}
	}

	fs.mu.Lock()
	defer fs.mu.Unlock()
	c.beginRequest(f)

	c.traceCall(now, "sieve_write", span.Off, span.Len, len(segs))
	t := now + fs.cfg.IOCallOverhead
	c.reg.Inc(metrics.CIOCalls)
	c.reg.Add(metrics.CIOBytes, span.Len)
	c.rmwSpan[0] = span
	t += c.lockSpan(f, c.rmwSpan[:1], true, now)
	conflictSvc := c.stripeConflicts(f, span, t)

	// Scatter the data. Each landed segment passes through the same
	// integrity gates as the plain write path: partially covered pages are
	// re-verified before the merge, checksums are recorded over the landed
	// content, and the fault schedule gets its chance to corrupt the media
	// — the sieve buffer is not a side door around the checksummed
	// datapath.
	c.integrityPreMergeSpan(f, span, segs, t)
	f.writeBytes(segs, data, fs.cfg.PageSize)
	// Checksums first (over the union of the landed segments), injection
	// second, so the recorded sums cover the intended content and the
	// damage is detectable.
	integSvc := c.integrityRecordSpan(f, span, segs)
	for _, s := range segs {
		c.injectFlip(f, s, t)
	}
	if span.End() > f.size {
		f.size = span.End()
	}

	// Timing: one contiguous span write (the sieve buffer holds the gap
	// data, so the whole span streams out). The preceding span read (or
	// cache) covers partial pages, so no RMW penalty here.
	for pi := span.Off / fs.cfg.PageSize; pi <= (span.End()-1)/fs.cfg.PageSize; pi++ {
		c.cache.put(f.id, pi)
	}
	done := c.serve(f, span, t, 1, 0, conflictSvc, integSvc)
	if partial != nil {
		return done, fmt.Errorf("pfs: write %q: %w", f.name, partial)
	}
	return done, nil
}

// SieveRead models a data-sieving read window: one contiguous read of the
// span in timing, locking, page verification and cache fill, while only the
// useful bytes move — each once, from the file's pages into buf. No sieve
// buffer exists on the host: the file image is exact, so the gap bytes a
// real one would carry have nowhere to go. A span a partial fault cuts
// short delivers the useful bytes below the cut and reports them as
// Written. A nil buf makes the read timing-only: every check and charge, no
// bytes delivered (see Views).
func (h *Handle) SieveRead(span datatype.Seg, segs []datatype.Seg, buf []byte, now sim.Time) (sim.Time, error) {
	var useful int64
	for _, s := range segs {
		if s.Off < span.Off || s.End() > span.End() {
			return now, fmt.Errorf("pfs: SieveRead: segment [%d,%d) outside span [%d,%d)",
				s.Off, s.End(), span.Off, span.End())
		}
		useful += s.Len
	}
	if buf != nil && useful != int64(len(buf)) {
		return now, fmt.Errorf("pfs: SieveRead: %d segment bytes but %d buffer bytes", useful, len(buf))
	}
	if span.Len == 0 {
		return now, nil
	}
	h.c.reg.Add(metrics.CSieveSpanBytes, span.Len)
	h.c.reg.Add(metrics.CSieveUsefulBytes, useful)
	h.c.rmwSpan[0] = span
	return h.c.access("read", h.f, h.c.rmwSpan[:1], Data{}, buf, segs, true, now)
}
