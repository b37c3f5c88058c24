package pager

import (
	"os"
	"path/filepath"
	"testing"
)

// TestWALStatsPinned runs the ten scripted ops and pins the physical I/O
// the protocol performs: ten commits cost ten WAL fsyncs and nothing else —
// no data or sidecar fsync, no header write, no byte applied in place —
// until the checkpoint, which applies each of the five touched blocks once
// plus the header, fsyncs data and sidecar, and spends one more WAL fsync
// on the log reset. Every commit also counts as a group of one.
func TestWALStatsPinned(t *testing.T) {
	logged := WALStats{
		Commits: 10, Frames: 22, WALBytes: 3552, LogicalWrites: 21,
		Syncs: 10, SizeBytes: walHeaderSize + 3552,
		GroupCommits: scriptOps, GroupedTxns: scriptOps,
	}
	checkpointed := logged
	checkpointed.DataBytes = 5*scriptBlockSize + fileHeaderSize
	checkpointed.HeaderWrites, checkpointed.Checkpoints = 1, 1
	checkpointed.Syncs, checkpointed.DataSyncs = 11, 2
	checkpointed.SizeBytes = walHeaderSize
	path := filepath.Join(t.TempDir(), "pin.box")
	scriptSetup(t, path, FileOptions{})
	fb, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	st := NewStore(fb)
	for i := 1; i <= scriptOps; i++ {
		if err := scriptOp(st, i); err != nil {
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
		if c.got != c.want {
			t.Fatalf("%s: WAL stats\n got %+v\nwant %+v", c.when, c.got, c.want)
		}
	}
	if size := fileLen(t, path+".wal"); size != walHeaderSize {
		t.Fatalf("Close left a %d-byte log, want the %d-byte header", size, walHeaderSize)
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
