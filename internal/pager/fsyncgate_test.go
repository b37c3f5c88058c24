package pager

import (
	"context"
	"errors"
	"path/filepath"
	"testing"
	"time"

	"boxes/internal/faults"
)

// fsyncgateSetup creates a small durable store with a DiskController
// attached and one committed op, returning the backend, the controller
// and the live Store. Sync points are charged (NoSync off) but never hit
// the kernel.
func fsyncgateSetup(t *testing.T, path string) (*FileBackend, *DiskController, *Store) {
	t.Helper()
	dc := NewDiskController()
	dc.SkipRealSync = true
	fb, err := CreateFileOpts(path, FileOptions{BlockSize: 128, DiskControl: dc})
	if err != nil {
		t.Fatal(err)
	}
	st := NewStore(fb)
	st.BeginOp()
	if _, err := st.Allocate(); err != nil {
		t.Fatal(err)
	}
	if err := st.Write(1, make([]byte, 128)); err != nil {
		t.Fatal(err)
	}
	if err := st.EndOp(); err != nil {
		t.Fatal(err)
	}
	return fb, dc, st
}

// writeOp commits one rewrite of block 1 with the given fill byte.
func writeOp(st *Store, fill byte) error {
	st.BeginOp()
	buf := make([]byte, 128)
	for i := range buf {
		buf[i] = fill
	}
	if err := st.Write(1, buf); err != nil {
		st.EndOp()
		return err
	}
	return st.EndOp()
}

// TestFailedFsyncDoesNotCountDurabilityPoint is the fsyncgate audit
// regression: a failed WAL fsync must not increment the durability-point
// counters — a sync that failed is not a durability point, and counting
// it would let an operator (or the amortized-cost ledger) trust a commit
// the device never acknowledged. The backend must poison instead.
func TestFailedFsyncDoesNotCountDurabilityPoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.box")
	fb, dc, st := fsyncgateSetup(t, path)

	before := fb.WALStats()
	// The next sync point is the WAL fsync of the next commit — the
	// durability point itself.
	dc.PlanSync(dc.Syncs()+1, DiskSyncFail)

	err := writeOp(st, 0xAA)
	if err == nil {
		t.Fatal("commit with failing WAL fsync succeeded")
	}
	var se *faults.SyncError
	if !errors.As(err, &se) {
		t.Fatalf("failed fsync surfaced as %v, want a faults.SyncError", err)
	}
	after := fb.WALStats()
	if after.Syncs != before.Syncs {
		t.Fatalf("failed WAL fsync was counted as a durability point: syncs %d -> %d", before.Syncs, after.Syncs)
	}
	if after.DataSyncs != before.DataSyncs {
		t.Fatalf("failed fsync moved the data sync counter: %d -> %d", before.DataSyncs, after.DataSyncs)
	}
	if fb.Poisoned() == nil {
		t.Fatal("failed fsync did not poison the backend")
	}

	// Every later commit fails fast until reopen; no sync is attempted,
	// so the counters stay frozen.
	if err := writeOp(st, 0xBB); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("commit on a poisoned backend returned %v, want ErrPoisoned", err)
	}
	if got := fb.WALStats(); got.Syncs != before.Syncs {
		t.Fatalf("poisoned backend still charged durability points: %d -> %d", before.Syncs, got.Syncs)
	}
	st.Close()

	// Reopen resolves the poisoned transaction from the WAL: since the
	// injected failure was simulated (the bytes did reach the OS), the
	// commit record is present and redo completes the op.
	fb2, err := OpenFileOpts(path, FileOptions{NoSync: true})
	if err != nil {
		t.Fatalf("reopen after poison: %v", err)
	}
	defer fb2.Close()
	st2 := NewStore(fb2)
	blk, err := st2.Read(1)
	if err != nil {
		t.Fatal(err)
	}
	if blk[0] != 0xAA && blk[0] != 0x00 {
		t.Fatalf("recovered block holds %#x, want the pre-op or poisoned-op image", blk[0])
	}
}

// TestFailedFsyncNotRetryableRegardlessOfErrno pins the other half of the
// fsyncgate contract: once an error has passed through a Sync call it
// must classify Permanent even if the underlying errno looks transient,
// and a Retrier must run the operation exactly once.
func TestFailedFsyncNotRetryableRegardlessOfErrno(t *testing.T) {
	serr := &faults.SyncError{Err: faults.ErrTransient}
	if got := faults.Classify(serr); got != faults.Permanent {
		t.Fatalf("Classify(SyncError{transient errno}) = %v, want Permanent", got)
	}
	attempts := 0
	r := faults.NewRetrier(faults.RetryPolicy{MaxAttempts: 5, Sleep: func(time.Duration) {}})
	_, err := r.DoCtx(context.Background(), func() error {
		attempts++
		return serr
	})
	if attempts != 1 {
		t.Fatalf("Retrier ran a failed-fsync op %d times, want 1", attempts)
	}
	var got *faults.SyncError
	if !errors.As(err, &got) {
		t.Fatalf("Retrier returned %v, want the SyncError", err)
	}
}

// TestNoSpaceCommitAbortsCleanly checks the pager half of the ENOSPC
// contract: a full disk at a pre-durability write fails the commit with
// ErrNoSpace, restores the header to the pre-op snapshot, does NOT latch
// the permanent write-fault state, and the very next commit succeeds once
// space is back.
func TestNoSpaceCommitAbortsCleanly(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.box")
	fb, dc, st := fsyncgateSetup(t, path)
	defer st.Close()

	// No raw I/O happens while the op stages; the first write point after
	// now is the first WAL frame of the next commit — before the
	// durability point.
	dc.PlanWrite(dc.Writes()+1, DiskNoSpace)

	err := writeOp(st, 0xCC)
	if !errors.Is(err, ErrNoSpace) {
		t.Fatalf("commit on a full disk returned %v, want ErrNoSpace", err)
	}
	if wf := st.WriteFault(); wf != nil {
		t.Fatalf("ENOSPC latched the permanent write-fault state: %v", wf)
	}
	if fb.Poisoned() != nil {
		t.Fatalf("pre-durability ENOSPC poisoned the backend: %v", fb.Poisoned())
	}
	blk, err := st.Read(1)
	if err != nil {
		t.Fatal(err)
	}
	if blk[0] != 0x00 {
		t.Fatalf("aborted commit leaked its image: block starts %#x, want 0", blk[0])
	}

	// Space comes back (the plan was one-shot): the store must be
	// writable with no ceremony.
	if err := writeOp(st, 0xDD); err != nil {
		t.Fatalf("commit after ENOSPC abort failed: %v", err)
	}
	blk, err = st.Read(1)
	if err != nil {
		t.Fatal(err)
	}
	if blk[0] != 0xDD {
		t.Fatalf("post-abort commit not visible: %#x", blk[0])
	}
}
