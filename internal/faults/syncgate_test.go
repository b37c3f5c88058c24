package faults

import (
	"errors"
	"fmt"
	"syscall"
	"testing"
)

// TestClassifySyncErrorPermanent pins the fsyncgate rule: an error that
// passed through an fsync classifies Permanent even when the wrapped
// errno is one Classify would otherwise call Transient — after a failed
// fsync the kernel may have dropped the dirty pages, so "retry and trust
// the next success" silently loses the write.
func TestClassifySyncErrorPermanent(t *testing.T) {
	cases := []error{
		&SyncError{Err: errors.New("EIO")},
		&SyncError{Err: syscall.EINTR},
		&SyncError{Err: ErrTransient},
		fmt.Errorf("commit: %w", &SyncError{Err: syscall.EAGAIN}),
	}
	for _, err := range cases {
		if got := Classify(err); got != Permanent {
			t.Errorf("Classify(%v) = %v, want Permanent", err, got)
		}
	}
}

// TestClassifyNoSpacePermanent: a full disk is not a flake — backoff and
// retry cannot create free space, so ErrNoSpace (and raw ENOSPC) must
// classify Permanent and skip the retry loop entirely.
func TestClassifyNoSpacePermanent(t *testing.T) {
	cases := []error{
		ErrNoSpace,
		fmt.Errorf("wal append: %w", ErrNoSpace),
		syscall.ENOSPC,
		fmt.Errorf("pwrite: %w", syscall.ENOSPC),
	}
	for _, err := range cases {
		if got := Classify(err); got != Permanent {
			t.Errorf("Classify(%v) = %v, want Permanent", err, got)
		}
	}
}
