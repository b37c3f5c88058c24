package pager

import (
	"bytes"
	"path/filepath"
	"testing"
)

const backupBS = 256

// backupStore builds a file-backed store with a handful of written blocks,
// checkpointed so the data file holds them, and returns the store, the
// backend, and the block ids.
func backupStore(t *testing.T, n int) (*Store, *FileBackend, []BlockID) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "store.box")
	fb, err := CreateFile(path, backupBS)
	if err != nil {
		t.Fatal(err)
	}
	st := NewStore(fb)
	t.Cleanup(func() { st.Close() })
	ids := make([]BlockID, 0, n)
	for i := 0; i < n; i++ {
		id, err := st.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, backupBS)
		for j := range buf {
			buf[j] = byte(i + j)
		}
		if err := st.Write(id, buf); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := fb.Sync(); err != nil {
		t.Fatal(err)
	}
	return st, fb, ids
}

// rot flips bytes of a block's on-disk image behind the pager's back,
// leaving the checksum sidecar stale — silent media corruption.
func rot(t *testing.T, fb *FileBackend, id BlockID) {
	t.Helper()
	junk := make([]byte, backupBS)
	for i := range junk {
		junk[i] = 0xAA
	}
	if _, err := fb.f.WriteAt(junk, fb.offset(id)); err != nil {
		t.Fatal(err)
	}
}

// A backup taken from a live store opens clean, serves identical block
// images, and preserves the allocation state (free list included) so new
// allocations behave exactly like the source's would.
func TestBackupRoundTrip(t *testing.T) {
	st, fb, ids := backupStore(t, 10)
	// Free a couple of blocks so the backup must carry the free list.
	if err := st.Free(ids[3]); err != nil {
		t.Fatal(err)
	}
	if err := st.Free(ids[7]); err != nil {
		t.Fatal(err)
	}
	live := ids[:3]
	want := make(map[BlockID][]byte)
	for _, id := range live {
		data, err := st.Read(id)
		if err != nil {
			t.Fatal(err)
		}
		want[id] = data
	}

	bpath := filepath.Join(t.TempDir(), "backup.box")
	if err := fb.BackupTo(bpath); err != nil {
		t.Fatalf("backup: %v", err)
	}

	bfb, err := OpenFile(bpath)
	if err != nil {
		t.Fatalf("open backup: %v", err)
	}
	bst := NewStore(bfb)
	defer bst.Close()
	if bfb.RecoveryInfo().Replayed {
		t.Fatal("backup should carry an empty WAL, nothing to replay")
	}
	if bfb.Bound() != fb.Bound() || bfb.NumBlocks() != fb.NumBlocks() {
		t.Fatalf("backup geometry: bound %d/%d, allocated %d/%d",
			bfb.Bound(), fb.Bound(), bfb.NumBlocks(), fb.NumBlocks())
	}
	for id, data := range want {
		got, err := bst.Read(id)
		if err != nil {
			t.Fatalf("backup read %d: %v", id, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("backup block %d differs from source", id)
		}
	}
	// The freed blocks must be re-allocatable from the copied free list.
	a1, err := bst.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	a2, err := bst.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if a1 != ids[7] || a2 != ids[3] {
		t.Fatalf("backup free list yields %d,%d; want %d,%d", a1, a2, ids[7], ids[3])
	}
}

// A backup sees committed images no checkpoint has applied yet: they are
// served from the checkpoint's debt, so they are part of the snapshot.
func TestBackupIncludesOverlayState(t *testing.T) {
	_, fb, ids := backupStore(t, 4)
	img := make([]byte, backupBS)
	for i := range img {
		img[i] = 0xE7
	}
	fb.BeginBatch()
	if err := fb.WriteBlock(ids[0], img); err != nil {
		t.Fatal(err)
	}
	if err := fb.CommitBatch(); err != nil {
		t.Fatal(err)
	}
	if _, ok := fb.unapplied[ids[0]]; !ok {
		t.Fatal("the committed image was applied at once; the test needs it unapplied")
	}

	bpath := filepath.Join(t.TempDir(), "backup.box")
	if err := fb.BackupTo(bpath); err != nil {
		t.Fatalf("backup: %v", err)
	}

	bfb, err := OpenFile(bpath)
	if err != nil {
		t.Fatal(err)
	}
	defer bfb.Close()
	buf := make([]byte, backupBS)
	if err := bfb.ReadBlock(ids[0], buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, img) {
		t.Fatal("backup missed the unapplied committed image")
	}
}

// A corrupt source block aborts the backup instead of copying rot.
func TestBackupRefusesCorruptSource(t *testing.T) {
	_, fb, ids := backupStore(t, 4)
	rot(t, fb, ids[2])
	bpath := filepath.Join(t.TempDir(), "backup.box")
	if err := fb.BackupTo(bpath); err == nil {
		t.Fatal("backup of a corrupt store must fail")
	}
}

// Backups are rejected mid-batch and onto the store's own path.
func TestBackupGuards(t *testing.T) {
	_, fb, _ := backupStore(t, 2)
	if err := fb.BackupTo(fb.Path()); err == nil {
		t.Fatal("backup onto the live store path must fail")
	}
	fb.BeginBatch()
	if err := fb.BackupTo(filepath.Join(t.TempDir(), "b.box")); err == nil {
		t.Fatal("backup with an open batch must fail")
	}
	fb.AbortBatch()
}
