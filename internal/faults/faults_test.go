package faults

import (
	"context"
	"errors"
	"fmt"
	"io"
	"syscall"
	"testing"
	"time"
)

type methodTransient struct{ t bool }

func (m methodTransient) Error() string   { return "method-marked" }
func (m methodTransient) Transient() bool { return m.t }

func TestClassify(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want Class
	}{
		{"nil", nil, Permanent},
		{"plain", errors.New("boom"), Permanent},
		{"marker", ErrTransient, Transient},
		{"wrapped marker", fmt.Errorf("write: %w", ErrTransient), Transient},
		{"method true", methodTransient{t: true}, Transient},
		{"method false", methodTransient{t: false}, Permanent},
		{"eintr", fmt.Errorf("pread: %w", syscall.EINTR), Transient},
		{"eagain", syscall.EAGAIN, Transient},
		{"short write", io.ErrShortWrite, Transient},
		{"enospc", syscall.ENOSPC, Permanent},
		{"exhausted wraps transient", &ExhaustedError{Attempts: 3, Err: ErrTransient}, Permanent},
	}
	for _, c := range cases {
		if got := Classify(c.err); got != c.want {
			t.Errorf("%s: Classify = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestRetrierSucceedsAfterTransients(t *testing.T) {
	var slept []time.Duration
	r := NewRetrier(RetryPolicy{
		MaxAttempts:    5,
		InitialBackoff: time.Millisecond,
		MaxBackoff:     4 * time.Millisecond,
		Seed:           7,
		Sleep:          func(d time.Duration) { slept = append(slept, d) },
	})
	calls := 0
	retries, err := r.DoCtx(context.Background(), func() error {
		calls++
		if calls < 3 {
			return fmt.Errorf("flap: %w", ErrTransient)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if retries != 2 || calls != 3 {
		t.Fatalf("retries=%d calls=%d, want 2 and 3", retries, calls)
	}
	// Jitter 0: backoffs are exactly 1ms then 2ms.
	want := []time.Duration{time.Millisecond, 2 * time.Millisecond}
	if len(slept) != len(want) {
		t.Fatalf("slept %v, want %v", slept, want)
	}
	for i := range want {
		if slept[i] != want[i] {
			t.Fatalf("slept %v, want %v", slept, want)
		}
	}
}

func TestRetrierPermanentStopsImmediately(t *testing.T) {
	r := NewRetrier(DefaultRetryPolicy())
	boom := errors.New("device on fire")
	calls := 0
	retries, err := r.DoCtx(context.Background(), func() error { calls++; return boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the permanent error verbatim", err)
	}
	if retries != 0 || calls != 1 {
		t.Fatalf("retries=%d calls=%d, want no retries of a permanent error", retries, calls)
	}
}

func TestRetrierExhaustion(t *testing.T) {
	p := DefaultRetryPolicy()
	p.MaxAttempts = 3
	p.Sleep = func(time.Duration) {}
	r := NewRetrier(p)
	calls := 0
	retries, err := r.DoCtx(context.Background(), func() error {
		calls++
		return fmt.Errorf("still flapping: %w", ErrTransient)
	})
	if calls != 3 || retries != 2 {
		t.Fatalf("calls=%d retries=%d, want 3 and 2", calls, retries)
	}
	var ex *ExhaustedError
	if !errors.As(err, &ex) || ex.Attempts != 3 {
		t.Fatalf("err = %v, want ExhaustedError with 3 attempts", err)
	}
	if !errors.Is(err, ErrTransient) {
		t.Fatalf("exhausted error should wrap its transient cause, got %v", err)
	}
	if Classify(err) != Permanent {
		t.Fatalf("an exhausted budget must classify Permanent")
	}
}

func TestRetrierJitterDeterministic(t *testing.T) {
	mk := func() []time.Duration {
		var slept []time.Duration
		r := NewRetrier(RetryPolicy{
			MaxAttempts:    6,
			InitialBackoff: 10 * time.Millisecond,
			MaxBackoff:     80 * time.Millisecond,
			Jitter:         0.5,
			Seed:           42,
			Sleep:          func(d time.Duration) { slept = append(slept, d) },
		})
		r.DoCtx(context.Background(), func() error { return ErrTransient })
		return slept
	}
	a, b := mk(), mk()
	if len(a) != 5 || len(b) != 5 {
		t.Fatalf("want 5 sleeps, got %d and %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, different jitter: %v vs %v", a, b)
		}
		base := 10 * time.Millisecond << i
		if base > 80*time.Millisecond {
			base = 80 * time.Millisecond
		}
		if a[i] > base || a[i] < base/2 {
			t.Fatalf("sleep %d = %v outside [%v, %v]", i, a[i], base/2, base)
		}
	}
}
