package bbox

import (
	"fmt"

	"boxes/internal/order"
	"boxes/internal/pager"
)

// The read side decodes in place: a lookup views each block through its
// read op (pager.ReadOp), which pins it until the lookup ends, and has the
// layout's scanners (scanLeaf, scanInternal) check its header and find its
// position before climbing to the parent — no node is materialised and
// nothing is allocated. readNode/decodeNode remain for the paths that
// modify or walk whole nodes.

func errRecordMissing(lid order.LID, blk pager.BlockID) error {
	return fmt.Errorf("bbox: LIDF points lid %d at block %d, record missing", lid, blk)
}

func errChildMissing(child, parent pager.BlockID) error {
	return fmt.Errorf("bbox: node %d not found in parent %d", child, parent)
}

// viewLeafOf returns the image of the leaf holding lid's record, read
// through r, with the record's index and the leaf's back-link.
func (l *Labeler) viewLeafOf(r *pager.ReadOp, lid order.LID) (blk pager.BlockID, leaf []byte, pos int, parent pager.BlockID, err error) {
	blkU, err := l.file.ReadU64(r, lid)
	if err != nil {
		return 0, nil, 0, 0, err
	}
	blk = pager.BlockID(blkU)
	if leaf, err = r.View(blk); err != nil {
		return 0, nil, 0, 0, err
	}
	if pos, parent, err = l.scanLeaf(blk, leaf, lid); err != nil {
		return 0, nil, 0, 0, err
	}
	return blk, leaf, pos, parent, nil
}

// leafOf is viewLeafOf with the leaf decoded, for the paths that modify it
// (inside their op, the read op reads through the op's pins).
func (l *Labeler) leafOf(lid order.LID) (*node, int, error) {
	r := l.store.BeginRead()
	defer r.End()
	blk, buf, pos, _, err := l.viewLeafOf(r, lid)
	if err != nil {
		return nil, 0, err
	}
	leaf, err := l.decodeNode(blk, buf)
	return leaf, pos, err
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

// climb is pathOf in place: it walks lid's bottom-up path through r and
// returns the positions packed as packSteps packs them (valid while depth
// <= maxPackedHeight), the ordinal position (Ordinal only) and the number
// of levels walked.
func (l *Labeler) climb(r *pager.ReadOp, lid order.LID) (packed, ord uint64, depth int, err error) {
	child, _, pos, parent, err := l.viewLeafOf(r, lid)
	if err != nil {
		return 0, 0, 0, err
	}
	return l.climbFrom(r, child, parent, uint64(pos), uint64(pos), 1)
}

// climbFrom continues a climb from node child, whose back-link is parent,
// to the root: packed, ord and depth are what the walk below child has
// gathered, and each level adds its position and left sizes to them.
func (l *Labeler) climbFrom(r *pager.ReadOp, child, parent pager.BlockID, packed, ord uint64, depth int) (uint64, uint64, int, error) {
	for parent != pager.NilBlock {
		pos, left, next, err := l.up(r, child, parent)
		if err != nil {
			return 0, 0, 0, err
		}
		packed |= uint64(pos) << (uint(depth) * l.p.compBits)
		ord += left
		child, parent = parent, next
		depth++
	}
	return packed, ord, depth, nil
}

// up is one step of a climb, in place: child's position in parent, the
// records below the entries left of it (Ordinal only) and parent's own
// back-link.
func (l *Labeler) up(r *pager.ReadOp, child, parent pager.BlockID) (pos int, left uint64, next pager.BlockID, err error) {
	buf, err := r.View(parent)
	if err != nil {
		return 0, 0, 0, err
	}
	return l.scanInternal(parent, buf, child)
}

// lookup returns lid's packed label via climb.
func (l *Labeler) lookup(r *pager.ReadOp, lid order.LID) (order.Label, error) {
	packed, _, depth, err := l.climb(r, lid)
	if err != nil {
		return 0, err
	}
	if depth > l.p.maxPackedHeight() {
		return 0, order.ErrLabelOverflow
	}
	return packed, nil
}
