// Package faults is the error taxonomy and fault-handling toolkit shared
// by the pager, the serve client and their tests: it classifies backend
// errors as transient or permanent, runs the client's bounded retry loop
// with exponential backoff and seeded jitter, and provides the one
// deterministic, seeded fault Schedule that drives the pager's
// Backend-level injector and the serve layer's connection-level one.
//
// The package sits below the pager (it imports nothing from this module),
// so both production code and fault-injection tests can share it without
// cycles.
package faults

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"syscall"
	"time"
)

// Class partitions backend errors by whether retrying can help.
type Class int

const (
	// Permanent errors do not go away by retrying: corruption, closed
	// backends, crashed devices, exhausted retry budgets, logic errors.
	Permanent Class = iota
	// Transient errors are expected to succeed on retry: interrupted
	// syscalls, short writes, injected faults marked transient.
	Transient
)

func (c Class) String() string {
	if c == Transient {
		return "transient"
	}
	return "permanent"
}

// ErrTransient marks an error as retryable. Fault injectors and backends
// wrap it (fmt.Errorf("...%w...", faults.ErrTransient)) to signal that the
// failure is expected to clear on retry.
var ErrTransient = errors.New("transient fault")

// ErrNoSpace marks a write that failed because the device is out of
// space. It is Permanent for retry purposes (retrying in a tight loop
// will not free disk), but unlike other permanent write faults the store
// aborts the current transaction cleanly and stays writable — the next
// op may succeed once space is reclaimed. The pager re-exports it as
// pager.ErrNoSpace.
var ErrNoSpace = errors.New("no space left on device")

// SyncError wraps a failed fsync. An fsync failure is categorically
// non-retryable no matter what errno it carries: after a failed fsync
// the kernel may have dropped the dirty pages, so a later fsync that
// returns nil proves nothing about the earlier writes (the "fsyncgate"
// semantics). Classify reports it Permanent even when the wrapped cause
// is nominally transient, and the Retrier therefore never re-runs it.
type SyncError struct {
	Err error
}

func (e *SyncError) Error() string {
	return fmt.Sprintf("faults: fsync failed (non-retryable): %v", e.Err)
}

func (e *SyncError) Unwrap() error { return e.Err }

// transienter is the interface form of the transient marker, for errors
// that cannot wrap ErrTransient directly.
type transienter interface {
	Transient() bool
}

// Classify sorts err into Transient or Permanent.
//
// An exhausted retry budget (ExhaustedError) is Permanent even though it
// wraps a transient cause — retrying has already been tried. A failed
// fsync (SyncError) is Permanent regardless of the wrapped errno: the
// kernel may already have dropped the dirty pages, so retrying the sync
// cannot re-establish durability (checked before the transient markers
// so a SyncError wrapping EINTR still refuses retry). ENOSPC
// (ErrNoSpace) is Permanent — space does not come back in a backoff
// loop. Everything explicitly marked transient (ErrTransient, a
// Transient() bool method), interrupted or would-block syscalls, and
// short writes are Transient. Everything else — including nil — is
// Permanent: the caller only asks after a failure, and an unknown
// failure must not be retried blindly.
func Classify(err error) Class {
	if err == nil {
		return Permanent
	}
	var ex *ExhaustedError
	if errors.As(err, &ex) {
		return Permanent
	}
	var se *SyncError
	if errors.As(err, &se) {
		return Permanent
	}
	if errors.Is(err, ErrNoSpace) || errors.Is(err, syscall.ENOSPC) {
		return Permanent
	}
	if errors.Is(err, ErrTransient) {
		return Transient
	}
	var t transienter
	if errors.As(err, &t) && t.Transient() {
		return Transient
	}
	if errors.Is(err, syscall.EINTR) || errors.Is(err, syscall.EAGAIN) {
		return Transient
	}
	if errors.Is(err, io.ErrShortWrite) {
		return Transient
	}
	return Permanent
}

// ExhaustedError reports a retry loop that ran out of attempts. It wraps
// the final transient cause; Classify reports it Permanent.
type ExhaustedError struct {
	Attempts int   // total attempts made (initial try + retries)
	Err      error // the last failure
}

func (e *ExhaustedError) Error() string {
	return fmt.Sprintf("faults: %d attempts exhausted: %v", e.Attempts, e.Err)
}

func (e *ExhaustedError) Unwrap() error { return e.Err }

// RetryPolicy bounds a retry loop. The zero value is useless; start from
// DefaultRetryPolicy and override.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries (first attempt included).
	// Values below 1 are treated as 1 (no retries).
	MaxAttempts int
	// InitialBackoff is the sleep before the first retry.
	InitialBackoff time.Duration
	// MaxBackoff caps the exponential growth (the backoff doubles after
	// every retry).
	MaxBackoff time.Duration
	// Jitter is the fraction of each backoff randomized away, in [0, 1]:
	// the actual sleep is backoff * (1 - Jitter*u) for uniform u in [0, 1).
	Jitter float64
	// Seed makes the jitter sequence deterministic; 0 means seed 1.
	Seed int64
	// Sleep replaces time.Sleep, for tests. Nil means time.Sleep.
	Sleep func(time.Duration)
}

// DefaultRetryPolicy is a sane bounded budget: 4 attempts, 1ms initial
// backoff doubling to at most 50ms, half-jittered.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		MaxAttempts:    4,
		InitialBackoff: time.Millisecond,
		MaxBackoff:     50 * time.Millisecond,
		Jitter:         0.5,
	}
}

// Retrier runs functions under a RetryPolicy. It is safe for concurrent
// use; the jitter stream is shared (mutex-guarded) so a fixed seed still
// yields a deterministic sequence under sequential use.
type Retrier struct {
	policy RetryPolicy

	mu  sync.Mutex
	rng *rand.Rand
}

// NewRetrier builds a Retrier from p, normalizing out-of-range fields.
func NewRetrier(p RetryPolicy) *Retrier {
	if p.MaxAttempts < 1 {
		p.MaxAttempts = 1
	}
	if p.Jitter < 0 {
		p.Jitter = 0
	}
	if p.Jitter > 1 {
		p.Jitter = 1
	}
	if p.MaxBackoff > 0 && p.InitialBackoff > p.MaxBackoff {
		p.InitialBackoff = p.MaxBackoff
	}
	seed := p.Seed
	if seed == 0 {
		seed = 1
	}
	return &Retrier{policy: p, rng: rand.New(rand.NewSource(seed))}
}

// DoCtx runs fn until it succeeds, fails permanently, the attempt budget
// runs out, or ctx expires. It returns the number of retries performed (0
// when the first attempt settled it) and the outcome: nil, the permanent
// error verbatim, or an ExhaustedError wrapping the last transient
// failure. A context that expires aborts the loop — including
// mid-backoff, where the sleep is cut short — and the call returns
// ctx.Err() wrapped with the last transient failure (or alone when the
// context was dead before the first attempt). The deadline paths of a
// network client and a draining server both need this: a bounded retry
// budget must never outlive the request it serves.
func (r *Retrier) DoCtx(ctx context.Context, fn func() error) (retries int, err error) {
	if cerr := ctx.Err(); cerr != nil {
		return 0, cerr
	}
	backoff := r.policy.InitialBackoff
	for attempt := 1; ; attempt++ {
		err = fn()
		if err == nil || Classify(err) == Permanent {
			return attempt - 1, err
		}
		if attempt >= r.policy.MaxAttempts {
			return attempt - 1, &ExhaustedError{Attempts: attempt, Err: err}
		}
		if backoff > 0 {
			if !r.sleepCtx(ctx, r.jittered(backoff)) {
				return attempt - 1, fmt.Errorf("faults: retry aborted after %d attempt(s): %w (last failure: %w)",
					attempt, ctx.Err(), err)
			}
			backoff *= 2
			if r.policy.MaxBackoff > 0 && backoff > r.policy.MaxBackoff {
				backoff = r.policy.MaxBackoff
			}
		} else if cerr := ctx.Err(); cerr != nil {
			return attempt - 1, fmt.Errorf("faults: retry aborted after %d attempt(s): %w (last failure: %w)",
				attempt, cerr, err)
		}
	}
}

func (r *Retrier) jittered(d time.Duration) time.Duration {
	if r.policy.Jitter == 0 {
		return d
	}
	r.mu.Lock()
	u := r.rng.Float64()
	r.mu.Unlock()
	return time.Duration(float64(d) * (1 - r.policy.Jitter*u))
}

// sleepCtx sleeps for d or until ctx expires, whichever comes first, and
// reports whether the full sleep completed. A custom Sleep hook (tests)
// runs uninterruptible but still honors a context that was already dead.
func (r *Retrier) sleepCtx(ctx context.Context, d time.Duration) bool {
	if r.policy.Sleep != nil {
		r.policy.Sleep(d)
		return ctx.Err() == nil
	}
	if ctx.Done() == nil {
		time.Sleep(d)
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}
