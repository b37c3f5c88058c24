package bbox

import (
	"encoding/binary"
	"fmt"

	"boxes/internal/order"
	"boxes/internal/pager"
)

// The read side decodes in place: a lookup borrows one block at a time
// from the pager (Store.View), checks its header, scans the raw records
// for its position, and gives the frame back before climbing to the
// parent — no node is materialised and nothing is allocated.
// readNode/decodeNode remain for the paths that modify or walk whole nodes.

func errRecordMissing(lid order.LID, blk pager.BlockID) error {
	return fmt.Errorf("bbox: LIDF points lid %d at block %d, record missing", lid, blk)
}

func errChildMissing(child, parent pager.BlockID) error {
	return fmt.Errorf("bbox: node %d not found in parent %d", child, parent)
}

// scanLeaf is decodeNode + findLID on the raw image of the block the LIDF
// names for lid: the record's index and the leaf's back-link.
func (l *Labeler) scanLeaf(blk pager.BlockID, buf []byte, lid order.LID) (pos int, parent pager.BlockID, err error) {
	leaf, count, parent, err := l.header(blk, buf)
	if err != nil {
		return 0, 0, err
	}
	if !leaf {
		count = 0 // an internal node holds no records
	}
	for i, off := 0, nodeHeaderSize; i < count; i, off = i+1, off+8 {
		if order.LID(binary.LittleEndian.Uint64(buf[off:])) == lid {
			return i, parent, nil
		}
	}
	return 0, 0, errRecordMissing(lid, blk)
}

// scanInternal is decodeNode + findChild on the raw image of an internal
// node: the index of the entry pointing at child, the records below the
// entries left of it (Ordinal only; 0 otherwise) and the node's back-link.
func (l *Labeler) scanInternal(blk pager.BlockID, buf []byte, child pager.BlockID) (pos int, left uint64, parent pager.BlockID, err error) {
	leaf, count, parent, err := l.header(blk, buf)
	if err != nil {
		return 0, 0, 0, err
	}
	if leaf {
		count = 0 // a leaf holds no child entries
	}
	stride := 8
	if l.p.Ordinal {
		stride = 16
	}
	for i, off := 0, nodeHeaderSize; i < count; i, off = i+1, off+stride {
		if pager.BlockID(binary.LittleEndian.Uint64(buf[off:])) == child {
			return i, left, parent, nil
		}
		if l.p.Ordinal {
			left += binary.LittleEndian.Uint64(buf[off+8:])
		}
	}
	return 0, 0, 0, errChildMissing(child, blk)
}

// resolve checks in place that lid names a live record. Inserts call it
// before allocating LIDs, so a stale anchor takes no LIDF record; the
// blocks it reads stay pinned, so the insert re-reads them uncounted.
func (l *Labeler) resolve(lid order.LID) error {
	blkU, err := l.file.GetU64(lid)
	if err != nil {
		return err
	}
	blk := pager.BlockID(blkU)
	buf, err := l.store.View(blk)
	if err != nil {
		return err
	}
	_, _, err = l.scanLeaf(blk, buf, lid)
	l.store.Release(buf)
	return err
}

// climb is pathOf in place: it walks lid's bottom-up path holding one
// borrowed frame at a time and returns the positions packed as packSteps
// packs them (valid while depth <= maxPackedHeight), the ordinal position
// (Ordinal only) and the number of levels walked.
func (l *Labeler) climb(lid order.LID) (packed, ord uint64, depth int, err error) {
	blkU, err := l.file.GetU64(lid)
	if err != nil {
		return 0, 0, 0, err
	}
	child := pager.BlockID(blkU)
	buf, err := l.store.View(child)
	if err != nil {
		return 0, 0, 0, err
	}
	pos, parent, err := l.scanLeaf(child, buf, lid)
	l.store.Release(buf)
	if err != nil {
		return 0, 0, 0, err
	}
	packed, ord, depth = uint64(pos), uint64(pos), 1
	for parent != pager.NilBlock {
		blk := parent
		if buf, err = l.store.View(blk); err != nil {
			return 0, 0, 0, err
		}
		var left uint64
		pos, left, parent, err = l.scanInternal(blk, buf, child)
		l.store.Release(buf)
		if err != nil {
			return 0, 0, 0, err
		}
		packed |= uint64(pos) << (uint(depth) * l.p.compBits)
		ord += left
		child = blk
		depth++
	}
	return packed, ord, depth, nil
}

// lookup returns lid's packed label via climb.
func (l *Labeler) lookup(lid order.LID) (order.Label, error) {
	packed, _, depth, err := l.climb(lid)
	if err != nil {
		return 0, err
	}
	if depth > l.p.maxPackedHeight() {
		return 0, order.ErrLabelOverflow
	}
	return packed, nil
}
