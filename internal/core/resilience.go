package core

import (
	"errors"
	"fmt"

	"boxes/internal/obs"
	"boxes/internal/pager"
)

// ErrReadOnly is returned by every mutating operation (and Save) once the
// store has entered read-only degraded mode: a permanent write fault or
// write-path corruption was detected, so further mutations cannot be made
// durable. Lookups keep serving from the committed state. Use errors.Is to
// test for it; DegradedCause reports the underlying fault.
var ErrReadOnly = errors.New("core: store is in read-only degraded mode")

type degradedInfo struct {
	cause error
}

// Degraded reports whether the store is in read-only degraded mode.
func (s *Store) Degraded() bool { return s.deg.Load() != nil }

// DegradedCause returns the fault that flipped the store read-only, or nil.
func (s *Store) DegradedCause() error {
	if d := s.deg.Load(); d != nil {
		return d.cause
	}
	return nil
}

// ClearDegraded returns the store to read-write mode and clears the pager's
// write-fault latch, under the write lock. Call it only after the
// underlying device has been repaired (or the store reopened over a healthy
// backend): the in-memory state was rolled back to the last committed
// metadata on entry, so leaving degraded mode resumes exactly from the
// durable prefix.
func (s *Store) ClearDegraded() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.deg.Store(nil)
	s.store.ClearWriteFault()
}

// readOnlyErr is the mutation gate: nil in normal operation, a typed
// ErrReadOnly (carrying the cause) once degraded.
func (s *Store) readOnlyErr() error {
	if d := s.deg.Load(); d != nil {
		return fmt.Errorf("%w (cause: %v)", ErrReadOnly, d.cause)
	}
	return nil
}

// poisoner is the backend facet reporting a poisoned commit path (see
// pager.FileBackend.Poisoned / pager.ErrPoisoned).
type poisoner interface{ Poisoned() error }

// noteFaults inspects the pager's write-fault latch, the backend's poison
// state, and the operation's own error after a mutation, and applies the
// failure-semantics contract (DESIGN.md §13):
//
//   - permanent write fault → read-only degraded mode, labeler rolled
//     back to the committed metadata;
//   - poisoned backend (failed fsync, or a post-durability-point commit
//     failure) → degraded mode WITHOUT the metadata rollback: the
//     poisoned transaction's commit record may be (or is) durable in the
//     WAL, so the in-memory state matching it is the best available view
//     and a rollback would re-read meta blocks the apply never wrote;
//     reopening the store resolves the ambiguity from the log;
//   - write-path corruption → degraded mode with rollback;
//   - any other failed durable op (ENOSPC on the WAL append, a transient
//     commit failure) → clean abort: the in-memory labeler rolls back to
//     the committed metadata and the store STAYS WRITABLE — the pager
//     already restored its header to the pre-op snapshot, so the next op
//     runs against exactly the committed prefix.
//
// It must run under the write lock (it rolls the labeler back to committed
// state).
func (s *Store) noteFaults(opErr error) {
	if wf := s.store.WriteFault(); wf != nil {
		s.enterDegraded(wf)
		return
	}
	if p, ok := unwrapBackend(s.store.Backend()).(poisoner); ok {
		if perr := p.Poisoned(); perr != nil {
			s.enterDegraded(perr)
			return
		}
	}
	if opErr == nil {
		return
	}
	if errors.Is(opErr, pager.ErrCorrupt) {
		s.enterDegraded(opErr)
		return
	}
	if s.opts.Durable {
		s.abortToCommitted(opErr)
	}
}

// abortToCommitted rolls the in-memory labeler back to the last committed
// metadata after a durable op failed without degrading the store (ENOSPC,
// a transient commit fault): the pager restored its header to the pre-op
// snapshot, so memory must follow or lookups would serve state that never
// became durable. The store stays writable. If even the rollback fails,
// memory and disk cannot be reconciled and the store degrades after all.
func (s *Store) abortToCommitted(cause error) {
	s.store.InvalidateCache()
	if err := s.restoreCommittedMeta(); err != nil {
		s.enterDegraded(fmt.Errorf("op abort: %v; metadata rollback also failed: %w", cause, err))
		return
	}
	s.reg.Inc(obs.CtrCoreOpAborts)
}

// enterDegraded flips the store read-only (first caller wins) and rolls the
// in-memory labeler back to the last committed metadata, so lookups answer
// from the durable prefix rather than from a mutation that half-applied
// before its commit failed. The rollback is best-effort: if the committed
// blob cannot be re-read the in-memory state is kept as is (mutations are
// rejected either way).
//
// When the cause is a poisoned backend (pager.ErrPoisoned) the rollback
// is skipped deliberately: the poisoned transaction's commit record is —
// or may be — durable in the WAL, so the in-memory state already matches
// what a reopen will recover (or at worst runs one resolved-at-reopen
// transaction ahead), while rolling back would re-read meta blocks the
// cut-short apply never wrote in place.
func (s *Store) enterDegraded(cause error) {
	if !s.deg.CompareAndSwap(nil, &degradedInfo{cause: cause}) {
		return
	}
	s.reg.Inc(obs.CtrCoreDegraded)
	if s.opts.Durable && !errors.Is(cause, pager.ErrPoisoned) {
		if err := s.restoreCommittedMeta(); err != nil {
			s.deg.Store(&degradedInfo{cause: fmt.Errorf("%v; metadata rollback also failed: %v", cause, err)})
		}
	}
}

// restoreCommittedMeta re-reads the last committed metadata blob and
// restores the labeler from it, discarding in-memory effects of operations
// whose commit never became durable. It runs only on durable stores, whose
// scheme Open has checked persists.
func (s *Store) restoreCommittedMeta() error {
	_, meta, err := readMeta(s.store)
	if err != nil {
		return err
	}
	return s.meta.RestoreMeta(meta)
}

// unwrapBackend peels fault-injection wrappers off a backend, reaching the
// device that actually persists blocks.
func unwrapBackend(b pager.Backend) pager.Backend {
	for {
		w, ok := b.(*pager.FaultBackend)
		if !ok {
			return b
		}
		b = w.Inner
	}
}

// Backup writes a consistent snapshot of the store to a fresh file at path
// (plus .crc/.wal sidecars); OpenFile + OpenExisting on that path resumes
// an identical store — restore is a plain file copy, no replay needed. The
// store must be file-backed. A durable store's metadata is already
// committed per operation; a non-durable store Saves first so the snapshot
// is resumable. The block copy runs under the read lock, so lookups keep
// running and only mutators wait.
func (s *Store) Backup(path string) error {
	if !s.opts.Durable {
		if err := s.Save(); err != nil {
			return err
		}
	}
	s.rlock()
	defer s.mu.RUnlock()
	fb, ok := unwrapBackend(s.store.Backend()).(*pager.FileBackend)
	if !ok {
		return errors.New("core: backup requires a file-backed store")
	}
	return fb.BackupTo(path)
}

// Close releases the store under the write lock and closes the backend.
// Durable stores are consistent at every operation boundary; non-durable
// stores must Save first to be resumable.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.store.Close()
}
