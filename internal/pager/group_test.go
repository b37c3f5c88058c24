package pager

import (
	"bytes"
	"errors"
	"path/filepath"
	"testing"
	"time"
)

// groupSetup creates a store with blocks 1..n pre-allocated and zeroed, so
// group-commit transactions mutate existing blocks without header churn.
func groupSetup(t *testing.T, path string, n int) {
	t.Helper()
	fb, err := CreateFileOpts(path, FileOptions{BlockSize: scriptBlockSize})
	if err != nil {
		t.Fatal(err)
	}
	st := NewStore(fb)
	st.BeginOp()
	for i := 0; i < n; i++ {
		if _, err := st.Allocate(); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.EndOp(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

func fill(b byte) []byte {
	buf := make([]byte, scriptBlockSize)
	for i := range buf {
		buf[i] = b
	}
	return buf
}

// TestGroupCommitDurable runs the scripted workload with the committer on,
// waiting on each ticket, and checks the recovered state matches the
// synchronous golden run.
func TestGroupCommitDurable(t *testing.T) {
	dir := t.TempDir()
	golden := goldenStates(t, dir)

	path := filepath.Join(dir, "group.box")
	scriptSetup(t, path, FileOptions{})
	fb, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := fb.StartGroupCommit(Durability{Every: 4, MaxDelay: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	st := NewStore(fb)
	for i := 1; i <= scriptOps; i++ {
		if err := scriptOp(st, i); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		if err := st.TakeTicket().Wait(); err != nil {
			t.Fatalf("op %d ticket: %v", i, err)
		}
	}
	ws := fb.WALStats()
	if ws.GroupCommits == 0 {
		t.Fatal("no commit groups flushed")
	}
	if ws.GroupedTxns < scriptOps {
		t.Fatalf("GroupedTxns = %d, want >= %d", ws.GroupedTxns, scriptOps)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	fb2, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fb2.Close()
	got := captureState(t, fb2)
	if !statesEqual(got, golden[scriptOps]) {
		t.Fatalf("state after group-commit run diverges from golden: counter=%d want %d",
			got.counter, golden[scriptOps].counter)
	}
}

// TestGroupCommitCoalescesFsyncs holds the committer, queues several
// transactions, releases, and checks they flushed as ONE group with ONE
// WAL fsync.
func TestGroupCommitCoalescesFsyncs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "coalesce.box")
	groupSetup(t, path, 8)
	fb, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fb.Close()
	if err := fb.StartGroupCommit(Durability{Every: 4}); err != nil {
		t.Fatal(err)
	}
	fb.HoldGroupCommit(true)
	pre := fb.WALStats()

	const n = 5
	tickets := make([]*CommitTicket, 0, n)
	for i := 1; i <= n; i++ {
		fb.BeginBatch()
		if err := fb.WriteBlock(BlockID(i), fill(byte(i))); err != nil {
			t.Fatal(err)
		}
		tk, err := fb.CommitBatchAsync()
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
	}
	fb.HoldGroupCommit(false)
	for i, tk := range tickets {
		if err := tk.Wait(); err != nil {
			t.Fatalf("ticket %d: %v", i, err)
		}
	}

	ws := fb.WALStats()
	if got := ws.GroupCommits - pre.GroupCommits; got != 1 {
		t.Fatalf("GroupCommits delta = %d, want 1", got)
	}
	if got := ws.GroupedTxns - pre.GroupedTxns; got != n {
		t.Fatalf("GroupedTxns delta = %d, want %d", got, n)
	}
	if got := ws.Syncs - pre.Syncs; got != 1 {
		t.Fatalf("WAL fsyncs delta = %d, want 1 (the group's shared durability point)", got)
	}
	if got := ws.Commits - pre.Commits; got != n {
		t.Fatalf("Commits delta = %d, want %d (each txn keeps its own commit record)", got, n)
	}

	buf := make([]byte, scriptBlockSize)
	for i := 1; i <= n; i++ {
		if err := fb.ReadBlock(BlockID(i), buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, fill(byte(i))) {
			t.Fatalf("block %d: wrong contents after group flush", i)
		}
	}
}

// TestGroupCommitSoloFastPath checks the sync fallback: an uncontended
// transaction must not sit out the coalescing window.
func TestGroupCommitSoloFastPath(t *testing.T) {
	path := filepath.Join(t.TempDir(), "solo.box")
	groupSetup(t, path, 2)
	fb, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fb.Close()
	// A delay long enough that waiting it out would trip the test timeout
	// guard below, but only if the solo path is broken.
	if err := fb.StartGroupCommit(Durability{Every: 64, MaxDelay: 30 * time.Second}); err != nil {
		t.Fatal(err)
	}
	fb.BeginBatch()
	if err := fb.WriteBlock(1, fill(0xAB)); err != nil {
		t.Fatal(err)
	}
	tk, err := fb.CommitBatchAsync()
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := tk.Wait(); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("solo transaction waited %v for a group that never comes", d)
	}
	if fb.WALStats().GroupedTxns != 1 {
		t.Fatalf("GroupedTxns = %d, want 1", fb.WALStats().GroupedTxns)
	}
}

// TestGroupCommitOverlayVisible checks that a committed-but-unapplied
// transaction is readable (its writes live in the overlay) while the
// committer is held, and still readable after the apply.
func TestGroupCommitOverlayVisible(t *testing.T) {
	path := filepath.Join(t.TempDir(), "overlay.box")
	groupSetup(t, path, 2)
	fb, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fb.Close()
	if err := fb.StartGroupCommit(Durability{}); err != nil {
		t.Fatal(err)
	}
	fb.HoldGroupCommit(true)

	want := fill(0x5A)
	fb.BeginBatch()
	if err := fb.WriteBlock(1, want); err != nil {
		t.Fatal(err)
	}
	tk, err := fb.CommitBatchAsync()
	if err != nil {
		t.Fatal(err)
	}

	buf := make([]byte, scriptBlockSize)
	if err := fb.ReadBlock(1, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, want) {
		t.Fatal("overlay read did not surface the committed-but-unapplied image")
	}

	fb.HoldGroupCommit(false)
	if err := tk.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := fb.ReadBlock(1, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, want) {
		t.Fatal("block contents wrong after in-place apply")
	}
}

// TestGroupCommitSyncPathsRoute checks that Sync and out-of-batch
// SetMetaRoot work while the committer runs (they funnel through it).
func TestGroupCommitSyncPathsRoute(t *testing.T) {
	path := filepath.Join(t.TempDir(), "route.box")
	groupSetup(t, path, 2)
	fb, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := fb.StartGroupCommit(Durability{Every: 8}); err != nil {
		t.Fatal(err)
	}
	if err := fb.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := fb.SetMetaRoot(2); err != nil {
		t.Fatal(err)
	}
	if err := fb.Close(); err != nil {
		t.Fatal(err)
	}
	fb2, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fb2.Close()
	root, err := fb2.MetaRoot()
	if err != nil {
		t.Fatal(err)
	}
	if root != 2 {
		t.Fatalf("meta root = %d after reopen, want 2", root)
	}
}

// TestGroupCommitCloseDrains checks that Close flushes transactions still
// queued behind a held committer.
func TestGroupCommitCloseDrains(t *testing.T) {
	path := filepath.Join(t.TempDir(), "drain.box")
	groupSetup(t, path, 4)
	fb, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := fb.StartGroupCommit(Durability{Every: 16}); err != nil {
		t.Fatal(err)
	}
	fb.HoldGroupCommit(true)
	for i := 1; i <= 3; i++ {
		fb.BeginBatch()
		if err := fb.WriteBlock(BlockID(i), fill(byte(0x10*i))); err != nil {
			t.Fatal(err)
		}
		if _, err := fb.CommitBatchAsync(); err != nil {
			t.Fatal(err)
		}
	}
	// Close must drain the queue despite the hold (stop overrides it).
	if err := fb.Close(); err != nil {
		t.Fatal(err)
	}
	fb2, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fb2.Close()
	buf := make([]byte, scriptBlockSize)
	for i := 1; i <= 3; i++ {
		if err := fb2.ReadBlock(BlockID(i), buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, fill(byte(0x10*i))) {
			t.Fatalf("block %d lost on close: queued transaction not drained", i)
		}
	}
}

// TestGroupCommitCrashPrefix sweeps a simulated power cut over every raw
// write point of one group flush and of the checkpoint and log truncation
// Close follows it with: recovery must land on a clean prefix of the group
// — never a partial transaction, never txn i+1 without txn i — and on the
// whole group once its tickets resolved.
func TestGroupCommitCrashPrefix(t *testing.T) {
	const txCount = 4

	run := func(t *testing.T, countdown int, torn bool) (applied int, steps int) {
		t.Helper()
		dir := t.TempDir()
		path := filepath.Join(dir, "crash.box")
		groupSetup(t, path, txCount)
		ctrl := powerCut(countdown, torn)
		fb, err := OpenFileOpts(path, FileOptions{DiskControl: ctrl})
		if err != nil {
			t.Fatal(err)
		}
		if err := fb.StartGroupCommit(Durability{Every: txCount}); err != nil {
			t.Fatal(err)
		}
		fb.HoldGroupCommit(true)
		tickets := make([]*CommitTicket, 0, txCount)
		for i := 1; i <= txCount; i++ {
			fb.BeginBatch()
			if err := fb.WriteBlock(BlockID(i), fill(byte(i))); err != nil {
				t.Fatal(err)
			}
			tk, err := fb.CommitBatchAsync()
			if err != nil {
				t.Fatal(err)
			}
			tickets = append(tickets, tk)
		}
		fb.HoldGroupCommit(false)
		crashed := false
		for _, tk := range tickets {
			if err := tk.Wait(); err != nil {
				if !errors.Is(err, ErrCrashed) {
					t.Fatalf("ticket failed with %v, want ErrCrashed", err)
				}
				crashed = true
			}
		}
		fb.Close() // drains and checkpoints; errors expected after a crash
		steps = ctrl.Writes()

		rec, err := OpenFile(path)
		if err != nil {
			t.Fatalf("countdown %d (torn=%v): reopen: %v", countdown, torn, err)
		}
		defer rec.Close()
		buf := make([]byte, scriptBlockSize)
		applied = 0
		sawGap := false
		for i := 1; i <= txCount; i++ {
			if err := rec.ReadBlock(BlockID(i), buf); err != nil {
				t.Fatalf("countdown %d: read block %d: %v", countdown, i, err)
			}
			switch {
			case bytes.Equal(buf, fill(byte(i))):
				if sawGap {
					t.Fatalf("countdown %d (torn=%v): txn %d applied but an earlier one was not — not a prefix", countdown, torn, i)
				}
				applied++
			case bytes.Equal(buf, make([]byte, scriptBlockSize)):
				sawGap = true
			default:
				t.Fatalf("countdown %d (torn=%v): block %d holds a partial image", countdown, torn, i)
			}
		}
		if !crashed && applied != txCount {
			t.Fatalf("countdown %d (torn=%v): every ticket resolved but only %d of %d transactions survived", countdown, torn, applied, txCount)
		}
		return applied, steps
	}

	// Pass 0: count the flush's raw write points without crashing.
	_, total := run(t, 0, false)
	if total < txCount*2 {
		t.Fatalf("implausibly few raw writes in a group flush: %d", total)
	}
	for _, torn := range []bool{false, true} {
		for cut := 1; cut <= total; cut++ {
			applied, _ := run(t, cut, torn)
			if applied < 0 || applied > txCount {
				t.Fatalf("cut %d (torn=%v): %d transactions applied", cut, torn, applied)
			}
		}
	}
}
