package wbox

import (
	"fmt"

	"boxes/internal/order"
	"boxes/internal/pager"
)

// The read side decodes in place: a lookup views each block through its
// read op (pager.ReadOp), which pins it until the lookup ends, and has the
// layout's scanners (scanLeaf, ordinalStep) check its header and read the
// one field it needs — no node is materialised and nothing is allocated.
// readNode/decodeNode remain for the paths that modify or walk whole nodes.

func errRecordMissing(lid order.LID, blk pager.BlockID) error {
	return fmt.Errorf("wbox: LIDF points lid %d at block %d, record missing", lid, blk)
}

// viewLeafOf returns the image of the leaf holding lid's live record, read
// through r, with the record's label and index.
func (l *Labeler) viewLeafOf(r *pager.ReadOp, lid order.LID) (blk pager.BlockID, leaf []byte, lo uint64, idx int, err error) {
	blkU, err := l.file.ReadU64(r, lid)
	if err != nil {
		return 0, nil, 0, 0, err
	}
	blk = pager.BlockID(blkU)
	if leaf, err = r.View(blk); err != nil {
		return 0, nil, 0, 0, err
	}
	if lo, idx, err = l.scanLeaf(blk, leaf, lid); err != nil {
		return 0, nil, 0, 0, err
	}
	return blk, leaf, lo, idx, nil
}

// leafOf is viewLeafOf with the leaf decoded, for the paths that modify it
// (inside their op, the read op reads through the op's pins).
func (l *Labeler) leafOf(lid order.LID) (*node, int, error) {
	r := l.store.BeginRead()
	defer r.End()
	blk, buf, _, idx, err := l.viewLeafOf(r, lid)
	if err != nil {
		return nil, 0, err
	}
	leaf, err := l.decodeNode(blk, buf)
	return leaf, idx, err
}

// resolve checks in place that lid names a live record. Inserts call it
// before allocating LIDs, so a stale anchor takes no LIDF record; the
// blocks it reads stay pinned, so the insert re-reads them uncounted.
func (l *Labeler) resolve(lid order.LID) error {
	r := l.store.BeginRead()
	defer r.End()
	_, _, _, _, err := l.viewLeafOf(r, lid)
	return err
}
