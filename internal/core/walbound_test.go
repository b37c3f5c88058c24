package core

import (
	"os"
	"testing"

	"boxes/internal/pager"
)

// TestWALBoundedUnderDurableInserts: however long a durable store runs, the
// live part of its log — the pager_wal_size_bytes gauge — never passes
// pager.WALCheckpointBytes by more than the commit that took it there, the
// checkpoints that keep it so do happen, and Close leaves the log file at
// its 16-byte header.
func TestWALBoundedUnderDurableInserts(t *testing.T) {
	st, fb, root := openDurableBatch(t)
	var last, largest, peak uint64
	for i := 0; i < 10000; i++ {
		if _, err := st.InsertElementBefore(root.End); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		var size uint64
		for _, g := range st.store.CollectGauges() {
			if g.Name == "pager_wal_size_bytes" {
				size = uint64(g.Value)
			}
		}
		if size > last && size-last > largest {
			largest = size - last
		}
		peak, last = max(peak, size), size
	}
	if largest == 0 || peak > pager.WALCheckpointBytes+largest {
		t.Fatalf("log peaked at %d bytes, bound %d plus the largest commit %d", peak, pager.WALCheckpointBytes, largest)
	}
	ws := fb.WALStats()
	if want := ws.WALBytes / (pager.WALCheckpointBytes + largest); ws.Checkpoints < want || want < 3 {
		t.Fatalf("%d checkpoints over %d bytes of log, want at least %d (and at least 3 for the run to mean anything)", ws.Checkpoints, ws.WALBytes, want)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(fb.Path() + ".wal"); err != nil || fi.Size() != 16 {
		t.Fatalf("after Close the log is %v bytes (%v), want its 16-byte header", fi.Size(), err)
	}
}
