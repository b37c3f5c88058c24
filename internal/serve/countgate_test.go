package serve

import (
	"context"
	"os"
	"testing"
	"time"

	"boxes/internal/pager"
)

// TestServedWriteSyncCounts is the count gate on the cost of an
// acknowledged write: through a real server over a real FileBackend, one
// WAL fsync per commit and nothing else — the data and sidecar fsyncs
// belong to checkpoints, two each, and checkpoints are as rare as the log
// bound makes them. Exact counts, no clock: a per-commit data fsync
// creeping back in fails here.
func TestServedWriteSyncCounts(t *testing.T) {
	env := startEnv(t, envOptions{})
	ctx := context.Background()
	c, err := Dial(env.addr, ClientOptions{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	root, err := c.InsertFirst(ctx)
	if err != nil {
		t.Fatal(err)
	}

	const writes = 2500 // some 2.7 KB of log each at this block size: past the bound once
	before := env.fb.WALStats()
	for i := 0; i < writes; i++ {
		if _, err := c.Insert(ctx, root.End); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	after := env.fb.WALStats()

	commits := after.Commits - before.Commits
	checkpoints := after.Checkpoints - before.Checkpoints
	if commits != writes || after.GroupCommits-before.GroupCommits != writes {
		t.Fatalf("%d acknowledged writes from one closed-loop client made %d commits in %d groups, want %d of each",
			writes, commits, after.GroupCommits-before.GroupCommits, writes)
	}
	if got := after.Syncs - before.Syncs - checkpoints; got != commits {
		t.Fatalf("%d WAL fsyncs beyond the %d checkpoints' log resets for %d commits, want one per commit", got, checkpoints, commits)
	}
	if got := after.DataSyncs - before.DataSyncs; got != 2*checkpoints {
		t.Fatalf("%d data/sidecar fsyncs for %d checkpoints, want two per checkpoint and none per commit", got, checkpoints)
	}
	walBytes := after.WALBytes - before.WALBytes
	if most := (walBytes+pager.WALCheckpointBytes-1)/pager.WALCheckpointBytes + 1; checkpoints < 1 || checkpoints > most {
		t.Fatalf("%d checkpoints over %d bytes of log, want between 1 and %d", checkpoints, walBytes, most)
	}

	env.shutdown()
	closed := env.fb.WALStats()
	if got, cps := closed.DataSyncs-before.DataSyncs, closed.Checkpoints-before.Checkpoints; got != 2*cps {
		t.Fatalf("through Close: %d data/sidecar fsyncs for %d checkpoints", got, cps)
	}
	if fi, err := os.Stat(env.path + ".wal"); err != nil || fi.Size() != 16 {
		t.Fatalf("after Close the log is %v bytes (%v), want its 16-byte header", fi.Size(), err)
	}
}
