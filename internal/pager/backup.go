package pager

import (
	"errors"
	"fmt"
)

// BackupTo writes a consistent logical snapshot of the store to a fresh
// file at path (plus its .crc / .wal sidecars, matching the source's
// geometry). Every block image is read through readRaw —
// which consults the group-commit overlay and verifies checksums — so the
// copy reflects exactly the committed state at the moment of the call and
// a corrupt source block aborts the backup rather than propagating rot.
// The destination gets a freshly computed checksum sidecar and an empty
// WAL: restore is plain file copy (or opening the backup directly), no
// replay needed.
//
// The caller must exclude writers for the duration (core.Store's read lock
// does); the group-commit committer may keep applying already-committed
// transactions concurrently — those are part of the snapshot either way,
// served from the overlay before the apply and from disk after.
func (fb *FileBackend) BackupTo(path string) error {
	if fb.closed {
		return ErrClosed
	}
	if fb.inBatch {
		return errors.New("pager: backup with an open batch")
	}
	if path == fb.path {
		return errors.New("pager: backup target is the store itself")
	}
	st := fb.headerState()

	dst, err := CreateFile(path, fb.blockSize)
	if err != nil {
		return err
	}
	copyBlocks := func() error {
		buf := make([]byte, fb.blockSize)
		for id := BlockID(1); id < st.next; id++ {
			if err := fb.readRaw(id, buf); err != nil {
				return fmt.Errorf("backup: source block %d: %w", id, err)
			}
			if _, err := dst.f.WriteAt(buf, dst.offset(id)); err != nil {
				return err
			}
			if err := dst.writeCRCEntry(id, checksum(buf)); err != nil {
				return err
			}
		}
		dst.next = st.next
		dst.freeHead = st.freeHead
		dst.allocated = st.allocated
		dst.metaRoot = st.metaRoot
		if err := dst.writeHeader(); err != nil {
			return err
		}
		return dst.syncAll()
	}
	if err := copyBlocks(); err != nil {
		dst.Close()
		return err
	}
	return dst.Close()
}
