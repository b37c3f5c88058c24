package wbox

import (
	"encoding/binary"
	"fmt"

	"boxes/internal/order"
	"boxes/internal/pager"
)

// The read side decodes in place: a lookup borrows each block from the
// pager (Store.View), checks its header, scans the raw records for the one
// field it needs, and gives the frame back — no node is materialised and
// nothing is allocated. readNode/decodeNode remain for the paths that
// modify or walk whole nodes.

func errRecordMissing(lid order.LID, blk pager.BlockID) error {
	return fmt.Errorf("wbox: LIDF points lid %d at block %d, record missing", lid, blk)
}

// scanLeaf is decodeNode + findRec + leafOf's tombstone check on the raw
// image of the block the LIDF names for lid: it returns the leaf's range
// start and the live record's index.
func (l *Labeler) scanLeaf(blk pager.BlockID, buf []byte, lid order.LID) (lo uint64, idx int, err error) {
	count, level, lo, err := l.header(blk, buf)
	if err != nil {
		return 0, 0, err
	}
	if level != 0 {
		count = 0 // an internal node holds no records
	}
	for i, off := 0, nodeHeaderSize; i < count; i, off = i+1, off+l.p.recSize {
		if order.LID(binary.LittleEndian.Uint64(buf[off:])) != lid {
			continue
		}
		if buf[off+8]&flagDeleted != 0 {
			return 0, 0, order.ErrUnknownLID
		}
		return lo, i, nil
	}
	return 0, 0, errRecordMissing(lid, blk)
}

// viewLeafOf is leafOf in place: it returns the borrowed image of the leaf
// holding lid's record, which the caller must hand to store.Release.
func (l *Labeler) viewLeafOf(lid order.LID) (leaf []byte, lo uint64, idx int, err error) {
	blkU, err := l.file.GetU64(lid)
	if err != nil {
		return nil, 0, 0, err
	}
	blk := pager.BlockID(blkU)
	leaf, err = l.store.View(blk)
	if err != nil {
		return nil, 0, 0, err
	}
	if lo, idx, err = l.scanLeaf(blk, leaf, lid); err != nil {
		l.store.Release(leaf)
		return nil, 0, 0, err
	}
	return leaf, lo, idx, nil
}

// ordinalStep is one node of OrdinalLookup's top-down walk towards label,
// in place: the live records left of the path inside this node, and either
// the child to visit next or, at the leaf (where the record sits at index
// idx), done.
func (l *Labeler) ordinalStep(blk pager.BlockID, buf []byte, label uint64, idx int) (left uint64, next pager.BlockID, done bool, err error) {
	count, level, lo, err := l.header(blk, buf)
	if err != nil {
		return 0, 0, false, err
	}
	if level == 0 {
		for j, off := 0, nodeHeaderSize; j < idx && j < count; j, off = j+1, off+l.p.recSize {
			if buf[off+8]&flagDeleted == 0 {
				left++
			}
		}
		return left, 0, true, nil
	}
	childLen, ok := l.p.rangeLen(int(level) - 1)
	if !ok {
		return 0, 0, false, order.ErrLabelOverflow
	}
	if label >= lo {
		slot := (label - lo) / childLen
		for i, off := 0, nodeHeaderSize; i < count; i, off = i+1, off+intEntrySize {
			if uint64(binary.LittleEndian.Uint16(buf[off+24:])) == slot {
				return left, pager.BlockID(binary.LittleEndian.Uint64(buf[off:])), false, nil
			}
			left += binary.LittleEndian.Uint64(buf[off+16:])
		}
	}
	return 0, 0, false, fmt.Errorf("wbox: label %d outside node %d range", label, blk)
}

// resolve checks in place that lid names a live record. Inserts call it
// before allocating LIDs, so a stale anchor takes no LIDF record; the
// blocks it reads stay pinned, so the insert re-reads them uncounted.
func (l *Labeler) resolve(lid order.LID) error {
	leaf, _, _, err := l.viewLeafOf(lid)
	if err != nil {
		return err
	}
	l.store.Release(leaf)
	return nil
}
