package pager

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"boxes/internal/faults"
)

// TestWALStatsPinned runs the ten scripted ops once committing inline and
// once through the group committer (each op a solo group) and pins the
// physical I/O the protocol performs. Both paths run commitWAL, so apart
// from the group accounting the two rows must be the same numbers: ten
// commits cost ten WAL fsyncs and nothing else — no data or sidecar fsync,
// no header write, no byte applied in place — until the checkpoint, which
// applies each of the five touched blocks once plus the header, fsyncs data
// and sidecar, and spends one more WAL fsync on the log reset.
func TestWALStatsPinned(t *testing.T) {
	logged := WALStats{
		Commits: 10, Frames: 22, WALBytes: 3552, LogicalWrites: 21,
		Syncs: 10, SizeBytes: walHeaderSize + 3552,
	}
	checkpointed := logged
	checkpointed.DataBytes = 5*scriptBlockSize + fileHeaderSize
	checkpointed.HeaderWrites, checkpointed.Checkpoints = 1, 1
	checkpointed.Syncs, checkpointed.DataSyncs = 11, 2
	checkpointed.SizeBytes = walHeaderSize
	for _, group := range []bool{false, true} {
		path := filepath.Join(t.TempDir(), "pin.box")
		scriptSetup(t, path, FileOptions{})
		fb, err := OpenFile(path)
		if err != nil {
			t.Fatal(err)
		}
		st := NewStore(fb)
		if group {
			if err := fb.StartGroupCommit(Durability{Every: 8}); err != nil {
				t.Fatal(err)
			}
		}
		for i := 1; i <= scriptOps; i++ {
			if err := scriptOp(st, i); err != nil {
				t.Fatal(err)
			}
			if err := st.TakeTicket().Wait(); err != nil {
				t.Fatal(err)
			}
		}
		atLog := fb.WALStats()
		if err := fb.Sync(); err != nil {
			t.Fatal(err)
		}
		atCheckpoint := fb.WALStats()
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			when      string
			got, want WALStats
		}{{"logged", atLog, logged}, {"checkpointed", atCheckpoint, checkpointed}} {
			if group {
				c.want.GroupCommits, c.want.GroupedTxns = scriptOps, scriptOps
			}
			if c.got != c.want {
				t.Fatalf("group=%v, %s: WAL stats\n got %+v\nwant %+v", group, c.when, c.got, c.want)
			}
		}
		if size := fileLen(t, path+".wal"); size != walHeaderSize {
			t.Fatalf("group=%v: Close left a %d-byte log, want the %d-byte header", group, size, walHeaderSize)
		}
	}
}

func fileLen(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// committerFaultRun forms one deterministic group of n scripted ops behind
// a held committer (after acked ops committed and acknowledged one by
// one), lets plan arm a fault relative to the controller's current write
// and sync clocks, releases the group, and checks the committer's half of
// the failure contract: every ticket of the group fails, no later commit —
// through the committer, or inline after it stopped — reports success, the
// WAL durability counter did not move unless the fsync was reached, reads
// keep answering, and a plain reopen verifies clean at a transaction
// boundary of the golden run no earlier than the last acknowledged op.
// It returns how many of the group's transactions the reopen recovered.
func committerFaultRun(t *testing.T, golden []scriptState, acked, n int, plan func(dc *DiskController)) (recovered int, groupErr error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "fault.box")
	scriptSetup(t, path, FileOptions{})
	dc := NewDiskController()
	dc.SkipRealSync = true
	fb, err := OpenFileOpts(path, FileOptions{DiskControl: dc})
	if err != nil {
		t.Fatal(err)
	}
	st := NewStore(fb)
	if err := fb.StartGroupCommit(Durability{Every: n}); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= acked; i++ {
		if err := scriptOp(st, i); err != nil {
			t.Fatal(err)
		}
		if err := st.TakeTicket().Wait(); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}

	fb.HoldGroupCommit(true)
	tickets := make([]*CommitTicket, 0, n)
	for i := acked + 1; i <= acked+n; i++ {
		if err := scriptOp(st, i); err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, st.TakeTicket())
	}
	before := fb.WALStats()
	plan(dc)
	fb.HoldGroupCommit(false)
	for i, tk := range tickets {
		err := tk.Wait()
		if err == nil {
			t.Fatalf("ticket %d of the failed group reported success", i)
		}
		if groupErr == nil {
			groupErr = err
		}
	}
	if after := fb.WALStats(); after.Syncs != before.Syncs {
		t.Fatalf("a failed group moved the durability counter: syncs %d -> %d", before.Syncs, after.Syncs)
	}
	if fb.Poisoned() == nil {
		t.Fatal("a failed group flush did not poison the backend")
	}

	// No later commit may succeed: the in-memory header and the overlay
	// hold the failed group's state, which nothing durable matches.
	if err := scriptOp(st, acked+n+1); err == nil {
		if err = st.TakeTicket().Wait(); err == nil {
			t.Fatal("a commit after the failed group reported success")
		}
	}
	if err := fb.StopGroupCommit(); err == nil {
		t.Fatal("StopGroupCommit hid the committer failure")
	}
	if err := fb.Sync(); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("inline commit after the committer stopped returned %v, want ErrPoisoned", err)
	}
	buf := make([]byte, scriptBlockSize)
	for id := BlockID(1); id <= 4; id++ {
		if err := fb.ReadBlock(id, buf); err != nil {
			t.Fatalf("read of block %d after the failed group: %v", id, err)
		}
	}
	st.Close() // reports the poison; descriptors still close

	rec, err := OpenFile(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer rec.Close()
	for id := BlockID(1); id < rec.Bound(); id++ {
		if err := rec.VerifyBlock(id); err != nil {
			t.Fatalf("block %d fails verification after reopen: %v", id, err)
		}
	}
	got := captureState(t, rec)
	for k := acked; k <= acked+n; k++ {
		if statesEqual(got, golden[k]) {
			return k - acked, groupErr
		}
	}
	t.Fatalf("recovered state (counter=%d) is not the golden state after any of %d..%d ops", got.counter, acked, acked+n)
	return 0, nil
}

// TestCommitterFaults runs the group committer under the faults that only
// the inline commit path had met: a failed WAL fsync and ENOSPC at every
// append of the group's log phase. The group covers scripted ops 3..6, so
// it includes op 4's free-list change — a header the data file must never
// see without its images.
func TestCommitterFaults(t *testing.T) {
	const acked, n = 2, 4
	golden := goldenStates(t, t.TempDir())

	t.Run("syncfail", func(t *testing.T) {
		_, err := committerFaultRun(t, golden, acked, n, func(dc *DiskController) {
			dc.PlanSync(dc.Syncs()+1, DiskSyncFail) // the group's WAL fsync
		})
		var se *faults.SyncError
		if !errors.As(err, &se) {
			t.Fatalf("failed group fsync surfaced as %v, want a faults.SyncError", err)
		}
	})

	// Ops 3, 5 and 6 log two frames and a commit record each, op 4 (which
	// also frees a block) three and one: thirteen appends before the fsync,
	// the commit records being the 3rd, 7th, 10th and 13th.
	const appends = 13
	commitAppends := []int{3, 7, 10, 13}
	sawEmpty, sawPrefix := false, false
	for k := 1; k <= appends; k++ {
		t.Run(fmt.Sprintf("nospace@%d", k), func(t *testing.T) {
			recovered, err := committerFaultRun(t, golden, acked, n, func(dc *DiskController) {
				dc.PlanWrite(dc.Writes()+k, DiskNoSpace)
			})
			if !errors.Is(err, ErrNoSpace) {
				t.Fatalf("full disk at append %d surfaced as %v, want ErrNoSpace", k, err)
			}
			// The transactions whose commit records were appended before
			// the device filled are in the log, whole; the one cut short
			// and everything after it are not.
			want := 0
			for _, c := range commitAppends {
				if c < k {
					want++
				}
			}
			if recovered != want {
				t.Fatalf("append %d: reopen recovered %d group transactions, want %d", k, recovered, want)
			}
			sawEmpty = sawEmpty || recovered == 0
			sawPrefix = sawPrefix || recovered > 0
		})
	}
	if !sawEmpty || !sawPrefix {
		t.Fatalf("sweep never met both outcomes (nothing recovered: %v, a prefix recovered: %v)", sawEmpty, sawPrefix)
	}
}
