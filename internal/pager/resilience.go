package pager

import (
	"errors"

	"boxes/internal/faults"
)

// writeFault is the boxed first permanent write-path failure.
type writeFault struct{ err error }

// NoteWriteFault latches err as the store's write fault if it is a
// permanent failure (a transient error aborts only its op: the caller may
// re-issue it; ErrNoSpace is excluded too — a full disk aborts the op cleanly and the
// store must stay writable for when space returns, so it never latches
// degraded mode). The pager calls it on every failed mutation path —
// immediate writes, EndOp flushes and commits, allocations and frees.
// Only the first fault is kept.
func (s *Store) NoteWriteFault(err error) {
	if err == nil || faults.Classify(err) != faults.Permanent {
		return
	}
	if errors.Is(err, ErrNoSpace) {
		return
	}
	s.wfault.CompareAndSwap(nil, &writeFault{err: err})
}

// WriteFault returns the first permanent write-path failure recorded since
// open (or the last ClearWriteFault), or nil. A non-nil result is the
// pager-level signal on which core flips into read-only degraded mode.
func (s *Store) WriteFault() error {
	if f := s.wfault.Load(); f != nil {
		return f.err
	}
	return nil
}

// ClearWriteFault resets the write-fault latch (after an operator repaired
// the underlying device and cleared degraded mode).
func (s *Store) ClearWriteFault() { s.wfault.Store(nil) }
