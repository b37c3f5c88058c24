package pager

import (
	"errors"
	"time"

	"boxes/internal/faults"
	"boxes/internal/obs"
)

// WithRetry enables bounded retries of raw backend calls: each ReadBlock,
// WriteBlock, Allocate and Free that fails with a transient error (see
// faults.Classify) is re-issued under the policy's exponential backoff
// with seeded jitter. Permanent errors return immediately; an exhausted
// budget surfaces as a faults.ExhaustedError wrapping the last transient
// cause. Retries are off by default: fault-injection tests rely on
// injected errors surfacing verbatim.
//
// Backoff sleeps are attributed to the retry_backoff phase of the current
// operation (and recorded as spans when tracing). They overlap the
// enclosing block_read/block_write phase by construction — retries happen
// inside the timed backend call — so retry_backoff quantifies how much of
// that phase was sleeping rather than doing I/O.
func WithRetry(p faults.RetryPolicy) Option {
	return func(s *Store) {
		inner := p.Sleep
		if inner == nil {
			inner = time.Sleep
		}
		p.Sleep = func(d time.Duration) {
			if s.obs == nil {
				inner(d)
				return
			}
			reader := s.readerOp()
			start := time.Now()
			inner(d)
			el := time.Since(start)
			s.obs.ObservePhaseAuto(reader, obs.PhaseRetryBackoff, el)
			if t := s.obs.Tracer(); t.Enabled() {
				t.RecordAuto(reader, obs.PhaseRetryBackoff.String(), start, el)
			}
		}
		s.retry = faults.NewRetrier(p)
	}
}

// retryBackend runs one raw backend call under the store's retry policy
// (or directly when none is attached), recording retry metrics.
func (s *Store) retryBackend(fn func() error) error {
	if s.retry == nil {
		return fn()
	}
	retries, err := s.retry.Do(fn)
	if retries > 0 {
		s.obs.Add(obs.CtrPagerRetries, uint64(retries))
		if err == nil {
			s.obs.Inc(obs.CtrPagerRetrySuccesses)
		}
	}
	if err != nil {
		var ex *faults.ExhaustedError
		if errors.As(err, &ex) {
			s.obs.Inc(obs.CtrPagerRetryExhausted)
		}
	}
	return err
}

// writeFault is the boxed first permanent write-path failure.
type writeFault struct{ err error }

// NoteWriteFault latches err as the store's write fault if it is a
// permanent failure (transient errors are the retry layer's business;
// ErrNoSpace is excluded too — a full disk aborts the op cleanly and the
// store must stay writable for when space returns, so it never latches
// degraded mode). The pager calls it on every failed mutation path —
// immediate writes, EndOp flushes and commits, allocations and frees;
// core also reports asynchronous commit-ticket failures here. Only the
// first fault is kept.
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
