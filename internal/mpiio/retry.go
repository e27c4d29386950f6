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
		p.SyncClock(done)
		return err
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

// sieve performs one data-sieving window (its span covering segs, data the
// useful bytes: a write's source, or a read's destination, None for a
// timing-only read) under the retry policy, advancing the rank's clock. A
// resumed window starts at the first segment it has yet to move. Every
// sieving independent access — the IntegratedSieve method the ROMIO-style
// collective engine drains its buffer with included — goes through this
// call.
func (f *File) sieve(op string, segs []datatype.Seg, data pfs.Data) error {
	end := spanOf(segs).End()
	return f.withRetry(op, func(skip int64, now sim.Time) (sim.Time, error) {
		_, group := datatype.SplitSegs(segs, skip)
		if len(group) == 0 {
			return now, nil
		}
		span := datatype.Seg{Off: group[0].Off, Len: end - group[0].Off}
		d := data.Slice(skip, data.Len())
		if op == "write" {
			return f.handle.SieveWriteData(span, group, d, now)
		}
		return f.handle.SieveRead(span, group, d.Buf(), now)
	})
}
