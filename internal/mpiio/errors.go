package mpiio

import (
	"errors"
	"fmt"

	"flexio/internal/metrics"
	"flexio/internal/mpi"
	"flexio/internal/pfs"
	"flexio/internal/trace"
)

// Error classes, ordered by severity so collective agreement can take the
// max across ranks. The ordering is part of the protocol: every rank must
// compute the same class for the same error.
const (
	ClassOK           int64 = iota // no error
	ClassTransient                 // pfs.ErrTransient after exhausting retries
	ClassPartial                   // pfs.ErrPartial with an unrecovered tail
	ClassIO                        // pfs.ErrIO, a hard storage error
	ClassIntegrity                 // pfs.ErrDataIntegrity: corrupted data nothing could repair
	ClassUnresponsive              // mpi.ErrRankUnresponsive: a peer crashed or tripped the deadline
	ClassInternal                  // anything else (protocol bugs, bad arguments)
)

// ErrCollectiveAbort is wrapped by every error the collective
// error-agreement protocol returns, on every rank — including ranks whose
// own I/O succeeded but whose peers failed.
var ErrCollectiveAbort = errors.New("mpiio: collective operation failed on a peer rank")

// ErrorClass maps an error onto the agreement taxonomy.
func ErrorClass(err error) int64 {
	switch {
	case err == nil:
		return ClassOK
	case errors.Is(err, mpi.ErrRankUnresponsive):
		return ClassUnresponsive
	case errors.Is(err, pfs.ErrDataIntegrity):
		return ClassIntegrity
	case errors.Is(err, pfs.ErrIO):
		return ClassIO
	case errors.Is(err, pfs.ErrPartial):
		return ClassPartial
	case errors.Is(err, pfs.ErrTransient):
		return ClassTransient
	default:
		return ClassInternal
	}
}

// ClassName names a class for traces and tables.
func ClassName(c int64) string {
	switch c {
	case ClassOK:
		return "ok"
	case ClassTransient:
		return "transient"
	case ClassPartial:
		return "partial"
	case ClassIO:
		return "io"
	case ClassIntegrity:
		return "integrity"
	case ClassUnresponsive:
		return "unresponsive"
	case ClassInternal:
		return "internal"
	default:
		return fmt.Sprintf("class(%d)", c)
	}
}

// ClassError materializes the canonical error for an agreed class, such
// that ErrorClass(ClassError(c)) == c and every non-OK class wraps
// ErrCollectiveAbort.
func ClassError(c int64) error {
	switch c {
	case ClassOK:
		return nil
	case ClassTransient:
		return fmt.Errorf("%w: %w", ErrCollectiveAbort, pfs.ErrTransient)
	case ClassPartial:
		return fmt.Errorf("%w: %w", ErrCollectiveAbort, pfs.ErrPartial)
	case ClassIO:
		return fmt.Errorf("%w: %w", ErrCollectiveAbort, pfs.ErrIO)
	case ClassIntegrity:
		return fmt.Errorf("%w: %w", ErrCollectiveAbort, pfs.ErrDataIntegrity)
	case ClassUnresponsive:
		return fmt.Errorf("%w: %w", ErrCollectiveAbort, mpi.ErrRankUnresponsive)
	default:
		return ErrCollectiveAbort
	}
}

// AgreeError is the collective error-agreement step: ranks allreduce the
// worst error class among them and either all proceed (nil) or all return
// an error of the agreed class. Every rank of the communicator must call
// it at the same point of the collective, like any MPI collective.
//
// Peer-failure detection rides the same rendezvous: a rank that has
// observed a dead or straggling peer (Proc.PeerFailure) escalates its
// local class to unresponsive before the vote, and a rank that learns of
// the failure from the vote's own rendezvous — detection is versioned,
// so every survivor reading the same publish sees the same failure set —
// escalates the agreed class after it. Both paths leave all survivors
// returning the same ClassUnresponsive abort.
func AgreeError(p *mpi.Proc, local error) error {
	return StartAgreement(p, local).Wait()
}

// Agreement is an error agreement in flight (AgreeError split in two):
// StartAgreement casts this rank's vote at the rendezvous, Wait pays for it
// and returns the outcome, so a rank can work in between — a pipelined write
// flushes a round while slower peers are still finishing it. Every rank
// starts and waits its agreements in the same order.
type Agreement struct {
	p     *mpi.Proc
	req   mpi.AllreduceRequest
	local error
}

// StartAgreement votes local's class, escalated to unresponsive when this
// rank has observed a failed peer.
func StartAgreement(p *mpi.Proc, local error) Agreement {
	cls := ErrorClass(local)
	if cls < ClassUnresponsive {
		if perr := p.PeerFailure(); perr != nil {
			local, cls = perr, ClassUnresponsive
		}
	}
	return Agreement{p: p, req: p.IallreduceMaxInt64(cls), local: local}
}

// Wait completes the agreement: nil on every rank, or on every rank an error
// of the agreed class.
func (a Agreement) Wait() error {
	p, local := a.p, a.local
	iv := p.Begin1(metrics.PExchange, trace.S("what", "err_agree"))
	agreed := a.req.Wait()
	// The vote's own rendezvous may have revealed a failure. Escalate on
	// the failure version it published, which every rank read, so every
	// rank takes this branch together; never on this rank's live
	// PeerFailure, which a receive since the vote may have set on it alone.
	if agreed < ClassUnresponsive && a.req.PeerFailed() {
		local, agreed = p.PeerFailure(), ClassUnresponsive
	}
	p.End(iv)
	if agreed == ClassOK {
		return nil
	}
	p.Trace.Instant1(p.Clock(), "err_agree", trace.S("class", ClassName(agreed)))
	// Every agreed abort is on the books (and in the flight recorder's dump
	// context) with the round it surfaced in: -1 for one before round 0.
	p.Metrics.NoteAbort(p.Round(), ClassName(agreed))
	if local != nil && ErrorClass(local) == agreed {
		// Keep the local detail on the rank that observed it.
		return fmt.Errorf("%w (rank %d: %v)", ClassError(agreed), p.Rank(), local)
	}
	return ClassError(agreed)
}
