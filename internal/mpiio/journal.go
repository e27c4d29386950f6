package mpiio

import "sync"

// WriteJournal records which two-phase rounds each aggregator durably
// completed, so a collective resumed after a rank failure replays only the
// unfinished rounds. It is the in-memory stand-in for the tiny per-file
// journal a real implementation would keep beside the data (one record per
// aggregator per round, written after the round's file data is durable).
//
// Entries are scoped to an epoch — a hash of the realm layout the rounds
// were executed under. A resume whose failover assignment produces the
// same layout (the dead rank was a pure client) skips the committed
// rounds; one that moves realms (the dead rank aggregated) starts a fresh
// epoch and replays everything, because round numbers under the old
// layout name different file regions.
//
// A journal is shared by every rank of the collective and is safe for
// concurrent use.
type WriteJournal struct {
	mu        sync.Mutex
	epoch     uint64
	started   bool
	resuming  bool
	dead      []int
	done      map[journalKey]struct{}
	committed int64
}

type journalKey struct {
	agg   int
	round int
}

// NewWriteJournal returns an empty journal.
func NewWriteJournal() *WriteJournal {
	return &WriteJournal{done: make(map[journalKey]struct{})}
}

// Begin opens (or re-opens) the journal for a collective running under the
// given realm epoch. The first call of a fresh epoch clears the completed
// set; repeat calls — every rank begins the same collective — are
// idempotent.
func (j *WriteJournal) Begin(epoch uint64) {
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.started && j.epoch == epoch {
		return
	}
	j.started = true
	j.epoch = epoch
	j.committed = 0
	for k := range j.done {
		delete(j.done, k)
	}
}

// Commit marks (agg, round) durably completed in the current epoch.
func (j *WriteJournal) Commit(agg, round int) {
	if j == nil {
		return
	}
	j.mu.Lock()
	if _, ok := j.done[journalKey{agg, round}]; !ok {
		j.done[journalKey{agg, round}] = struct{}{}
		j.committed++
	}
	j.mu.Unlock()
}

// Done reports whether (agg, round) may be skipped because it was
// committed in the current epoch. It answers true only while the journal
// is driving a recovery attempt (MarkResume): outside a resume the
// committed set describes a *different* collective's writes — a fresh
// collective that happens to run under the same realm epoch (the common
// checkpoint-overwrite pattern) must never skip its own I/O.
func (j *WriteJournal) Done(agg, round int) bool {
	if j == nil {
		return false
	}
	j.mu.Lock()
	ok := false
	if j.resuming {
		_, ok = j.done[journalKey{agg, round}]
	}
	j.mu.Unlock()
	return ok
}

// MarkResume flags the journal as driving a recovery attempt for the
// given dead-rank set: the next collective running against it reports a
// failover and consults Done before redoing each round's I/O.
func (j *WriteJournal) MarkResume(dead []int) {
	if j == nil {
		return
	}
	j.mu.Lock()
	j.resuming = true
	j.dead = append(j.dead[:0], dead...)
	j.mu.Unlock()
}

// Complete marks the collective running against the journal successfully
// finished: the recovery flags are cleared (a later collective on the same
// engine is a fresh attempt, not a replay) and the committed set is
// dropped, so a subsequent collective under an unchanged realm epoch —
// e.g. overwriting the same checkpoint region — starts with nothing to
// skip. Every rank calls it after the collective's final agreement, whose
// rendezvous every rank reaches past its last Done check; repeat calls are
// idempotent.
func (j *WriteJournal) Complete() {
	if j == nil {
		return
	}
	j.mu.Lock()
	j.started = false
	j.resuming = false
	j.dead = j.dead[:0]
	j.committed = 0
	for k := range j.done {
		delete(j.done, k)
	}
	j.mu.Unlock()
}

// Resuming reports whether the journal is driving a recovery attempt.
func (j *WriteJournal) Resuming() bool {
	if j == nil {
		return false
	}
	j.mu.Lock()
	r := j.resuming
	j.mu.Unlock()
	return r
}

// Dead returns the dead-rank set of the recovery attempt (nil outside
// one). The returned slice is shared; callers must not modify it.
func (j *WriteJournal) Dead() []int {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	d := j.dead
	j.mu.Unlock()
	return d
}

// Rounds returns how many (aggregator, round) entries have been committed
// in the current epoch.
func (j *WriteJournal) Rounds() int64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	n := j.committed
	j.mu.Unlock()
	return n
}
