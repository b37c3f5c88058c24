package wbox

import (
	"fmt"

	"boxes/internal/order"
	"boxes/internal/pager"
)

// The read side decodes in place: a lookup borrows each block from the
// pager (Store.View), has the layout's scanners (scanLeaf, ordinalStep)
// check its header and read the one field it needs, and gives the frame
// back — no node is materialised and nothing is allocated.
// readNode/decodeNode remain for the paths that modify or walk whole nodes.

func errRecordMissing(lid order.LID, blk pager.BlockID) error {
	return fmt.Errorf("wbox: LIDF points lid %d at block %d, record missing", lid, blk)
}

// viewLeafOf returns the borrowed image of the leaf holding lid's live
// record, which the caller must hand to store.Release, with the record's
// label and index.
func (l *Labeler) viewLeafOf(lid order.LID) (blk pager.BlockID, leaf []byte, lo uint64, idx int, err error) {
	blkU, err := l.file.GetU64(lid)
	if err != nil {
		return 0, nil, 0, 0, err
	}
	blk = pager.BlockID(blkU)
	leaf, err = l.store.View(blk)
	if err != nil {
		return 0, nil, 0, 0, err
	}
	if lo, idx, err = l.scanLeaf(blk, leaf, lid); err != nil {
		l.store.Release(leaf)
		return 0, nil, 0, 0, err
	}
	return blk, leaf, lo, idx, nil
}

// leafOf is viewLeafOf with the leaf decoded, for the paths that modify it.
func (l *Labeler) leafOf(lid order.LID) (*node, int, error) {
	blk, buf, _, idx, err := l.viewLeafOf(lid)
	if err != nil {
		return nil, 0, err
	}
	defer l.store.Release(buf)
	leaf, err := l.decodeNode(blk, buf)
	return leaf, idx, err
}

// resolve checks in place that lid names a live record. Inserts call it
// before allocating LIDs, so a stale anchor takes no LIDF record; the
// blocks it reads stay pinned, so the insert re-reads them uncounted.
func (l *Labeler) resolve(lid order.LID) error {
	_, leaf, _, _, err := l.viewLeafOf(lid)
	if err != nil {
		return err
	}
	l.store.Release(leaf)
	return nil
}
