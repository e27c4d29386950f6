package mpiio

import (
	"errors"
	"fmt"

	"flexio/internal/datatype"
	"flexio/internal/metrics"
	"flexio/internal/pfs"
	"flexio/internal/sim"
	"flexio/internal/trace"
)

// The retry policy's virtual-time budget: the first retry of an operation
// waits retryBackoff, each later one twice the one before, and no operation
// spends more than retryDeadline across its attempts, backoffs and partial
// resumptions (first attempt included).
const (
	retryBackoff  sim.Time = 500e-6
	retryDeadline sim.Time = 0.25
)

// withRetry drives one logical storage operation through the retry policy.
// attempt issues the operation at virtual time now, skipping the first skip
// data bytes (the prefix already durable from earlier partial transfers),
// and returns the completion time. Failed attempts still charge the clock;
// backoff waits charge it too (PBackoff spans and stats), so retry cost is
// visible in virtual time. Transient errors retry up to the hinted limit
// with doubling backoff; partial transfers resume the unwritten tail
// immediately; everything is bounded by retryDeadline;
// hard errors surface at once.
func (f *File) withRetry(kind string, attempt func(skip int64, now sim.Time) (sim.Time, error)) error {
	p := f.proc
	if f.info.RetryLimit < 0 {
		done, err := attempt(0, p.Clock())
		if err != nil {
			p.SyncClock(done)
			return err
		}
		p.SyncClock(done)
		return nil
	}
	start := p.Clock()
	deadline := start + retryDeadline
	backoff := retryBackoff
	var skip int64
	retries := 0
	for {
		done, err := attempt(skip, p.Clock())
		p.SyncClock(done)
		if err == nil {
			return nil
		}

		var pe *pfs.PartialError
		isPartial := errors.As(err, &pe)
		if !isPartial && !errors.Is(err, pfs.ErrTransient) {
			return err // hard error: not retryable
		}
		if isPartial && pe.Written > 0 {
			// Progress was made: resume the unwritten tail immediately.
			// Resumptions do not count against the retry limit (each one
			// strictly shrinks the remaining work) but do respect the
			// deadline.
			skip += pe.Written
			p.Metrics.Inc(metrics.CResumes)
			p.Trace.Instant(p.Clock(), "resume", trace.S("op", kind),
				trace.I(trace.BytesTag, pe.Written), trace.I("skip", skip))
			if p.Clock() < deadline {
				continue
			}
		} else if retries < f.info.RetryLimit && p.Clock()+backoff < deadline {
			retries++
			p.Metrics.Inc(metrics.CRetries)
			iv := p.Begin(metrics.PBackoff, trace.S("op", kind), trace.I("attempt", int64(retries)))
			p.AdvanceClock(backoff)
			p.EndAs(iv, backoff)
			p.Trace.Instant(p.Clock(), "retry",
				trace.S("op", kind), trace.I("attempt", int64(retries)))
			backoff *= 2
			continue
		}

		p.Metrics.Inc(metrics.CGiveups)
		p.Trace.Instant(p.Clock(), "gaveup", trace.S("op", kind),
			trace.I("attempt", int64(retries)), trace.I("skip", skip))
		return fmt.Errorf("mpiio: %s gave up after %d retries (%v virtual seconds): %w",
			kind, retries, p.Clock()-start, err)
	}
}

// writeSieve performs one data-sieving write window (span covering segs,
// data holding the useful bytes) under the retry policy, advancing the
// rank's clock. Every sieving independent write — the IntegratedSieve
// method the ROMIO-style collective engine drains its buffer with included
// — lands through this call.
func (f *File) writeSieve(span datatype.Seg, segs []datatype.Seg, data pfs.Data) error {
	return f.withRetry("write", func(skip int64, now sim.Time) (sim.Time, error) {
		sp, group := shrinkSieveWindow(span, segs, skip)
		if len(group) == 0 {
			return now, nil
		}
		return f.handle.SieveWriteData(sp, group, data.Slice(skip, data.Len()), now)
	})
}

// readSieve is the read counterpart of writeSieve; buf is the destination,
// or None for a timing-only read.
func (f *File) readSieve(span datatype.Seg, segs []datatype.Seg, buf pfs.Data) error {
	return f.withRetry("read", func(skip int64, now sim.Time) (sim.Time, error) {
		sp, group := shrinkSieveWindow(span, segs, skip)
		if len(group) == 0 {
			return now, nil
		}
		return f.handle.SieveRead(sp, group, buf.Slice(skip, buf.Len()).Buf(), now)
	})
}

// shrinkSieveWindow drops the first skip useful bytes from a sieve window,
// narrowing the span to the surviving segments; the caller drops the same
// bytes of its data.
func shrinkSieveWindow(span datatype.Seg, segs []datatype.Seg, skip int64) (datatype.Seg, []datatype.Seg) {
	if skip <= 0 {
		return span, segs
	}
	_, tail := datatype.SplitSegs(segs, skip)
	if len(tail) == 0 {
		return datatype.Seg{}, nil
	}
	return datatype.Seg{Off: tail[0].Off, Len: span.End() - tail[0].Off}, tail
}
