package bbox

import (
	"fmt"

	"boxes/internal/obs"
	"boxes/internal/order"
	"boxes/internal/pager"
)

// InsertBefore implements order.Labeler: the new record lands in lidOld's
// leaf; an overflowing node splits, moving its right half to a fresh
// sibling and updating the relocated records' LIDF entries (leaf) or the
// relocated children's back-links (internal), exactly as in Section 5.
func (l *Labeler) InsertBefore(lidOld order.LID) (_ order.LID, err error) {
	l.store.BeginOp()
	defer l.store.EndOpInto(&err)
	if err := l.resolve(lidOld); err != nil {
		return order.NilLID, err
	}
	lidNew, err := l.file.Alloc()
	if err != nil {
		return order.NilLID, err
	}
	if err := l.insertAt(lidNew, lidOld); err != nil {
		return order.NilLID, err
	}
	return lidNew, nil
}

func (l *Labeler) insertAt(lidNew, lidOld order.LID) error {
	leaf, idx, err := l.leafOf(lidOld)
	if err != nil {
		return err
	}
	var shiftLo, shiftHi uint64
	logShift := false
	if l.logger != nil {
		steps, err := l.pathOf(lidOld)
		if err != nil {
			return err
		}
		if lo, err := l.packSteps(steps); err == nil {
			steps[0].pos = len(leaf.lids) - 1
			hi, _ := l.packSteps(steps)
			shiftLo, shiftHi = lo, hi
			logShift = true
			// B-BOX labels are implicit path vectors; the packed label is
			// only materialized on this reflog path, so the heat map
			// samples here rather than paying a root walk per insert.
			l.store.Observer().HeatLabelInsert(lo)
		}
	}
	if l.p.Ordinal && l.ologger != nil {
		ord, err := l.ordinalOfPos(leaf, idx)
		if err != nil {
			return err
		}
		l.logOrdinalShift(ord, +1)
	}
	leaf.lids = append(leaf.lids, 0)
	copy(leaf.lids[idx+1:], leaf.lids[idx:])
	leaf.lids[idx] = lidNew
	if err := l.file.SetU64(lidNew, uint64(leaf.blk)); err != nil {
		return err
	}
	l.count++
	if l.p.Ordinal {
		if err := l.bumpSizes(leaf.parent, leaf.blk, 1); err != nil {
			return err
		}
	}
	if len(leaf.lids) > l.p.LeafCap {
		return l.splitAndPropagate(leaf)
	}
	if logShift {
		l.logShift(shiftLo, shiftHi, +1)
	}
	return l.writeNode(leaf)
}

// bumpSizes adds delta to the size field of the entry leading to childBlk
// in every ancestor starting at parentBlk: the size maintenance that makes
// B-BOX-O updates O(log_B N) amortized instead of O(1).
func (l *Labeler) bumpSizes(parentBlk, childBlk pager.BlockID, delta int64) error {
	for parentBlk != pager.NilBlock {
		p, err := l.readNode(parentBlk)
		if err != nil {
			return err
		}
		i := p.findChild(childBlk)
		if i < 0 {
			return fmt.Errorf("bbox: size bump: node %d missing from parent %d", childBlk, p.blk)
		}
		p.ents[i].size = uint64(int64(p.ents[i].size) + delta)
		if err := l.writeNode(p); err != nil {
			return err
		}
		childBlk = p.blk
		parentBlk = p.parent
	}
	return nil
}

// splitAndPropagate splits n (whose in-memory image overflows) and cascades
// up the tree, growing a new root if necessary.
func (l *Labeler) splitAndPropagate(n *node) error {
	var topChanged *node
	for {
		capacity := l.p.Fanout
		if n.leaf {
			capacity = l.p.LeafCap
		}
		if n.count() <= capacity {
			if err := l.writeNode(n); err != nil {
				return err
			}
			break
		}
		m := (n.count() + 1) / 2
		l.store.Observer().Inc(obs.CtrBBoxSplits)
		v, err := l.allocNode(n.leaf, n.parent)
		if err != nil {
			return err
		}
		if n.leaf {
			v.lids = append(v.lids, n.lids[m:]...)
			n.lids = n.lids[:m]
			for _, lid := range v.lids {
				if err := l.file.SetU64(lid, uint64(v.blk)); err != nil {
					return err
				}
			}
		} else {
			v.ents = append(v.ents, n.ents[m:]...)
			n.ents = n.ents[:m]
			if err := l.relinkChildren(v); err != nil {
				return err
			}
		}
		if err := l.writeNode(n); err != nil {
			return err
		}
		if err := l.writeNode(v); err != nil {
			return err
		}
		if n.parent == pager.NilBlock {
			nr, err := l.allocNode(false, pager.NilBlock)
			if err != nil {
				return err
			}
			nr.ents = []entry{
				{child: n.blk, size: n.size()},
				{child: v.blk, size: v.size()},
			}
			if err := l.writeNode(nr); err != nil {
				return err
			}
			n.parent = nr.blk
			v.parent = nr.blk
			if err := l.writeNode(n); err != nil {
				return err
			}
			if err := l.writeNode(v); err != nil {
				return err
			}
			l.root = nr.blk
			l.height++
			l.logInvalidateAll()
			return nil
		}
		p, err := l.readNode(n.parent)
		if err != nil {
			return err
		}
		i := p.findChild(n.blk)
		if i < 0 {
			return fmt.Errorf("bbox: split: node %d missing from parent %d", n.blk, p.blk)
		}
		p.ents[i].size = n.size()
		p.ents = append(p.ents, entry{})
		copy(p.ents[i+2:], p.ents[i+1:])
		p.ents[i+1] = entry{child: v.blk, size: v.size()}
		topChanged = p
		n = p
	}
	if topChanged != nil {
		l.logInvalidateNode(topChanged)
	}
	return nil
}

// relinkChildren points the back-links of all of v's children at v: the
// O(B) cost of an internal split.
func (l *Labeler) relinkChildren(v *node) error {
	for i := range v.ents {
		c, err := l.readNode(v.ents[i].child)
		if err != nil {
			return err
		}
		c.parent = v.blk
		if err := l.writeNode(c); err != nil {
			return err
		}
	}
	return nil
}

// InsertElementBefore implements order.Labeler.
func (l *Labeler) InsertElementBefore(lidOld order.LID) (_ order.ElemLIDs, err error) {
	l.store.BeginOp()
	defer l.store.EndOpInto(&err)
	if err := l.resolve(lidOld); err != nil {
		return order.ElemLIDs{}, err
	}
	start, end, err := l.file.AllocPair()
	if err != nil {
		return order.ElemLIDs{}, err
	}
	if err := l.insertAt(end, lidOld); err != nil {
		return order.ElemLIDs{}, err
	}
	if err := l.insertAt(start, end); err != nil {
		return order.ElemLIDs{}, err
	}
	return order.ElemLIDs{Start: start, End: end}, nil
}

// InsertFirstElement implements order.Labeler.
func (l *Labeler) InsertFirstElement() (_ order.ElemLIDs, err error) {
	if l.root != pager.NilBlock {
		return order.ElemLIDs{}, order.ErrNotEmpty
	}
	l.store.BeginOp()
	defer l.store.EndOpInto(&err)
	start, end, err := l.file.AllocPair()
	if err != nil {
		return order.ElemLIDs{}, err
	}
	leaf, err := l.allocNode(true, pager.NilBlock)
	if err != nil {
		return order.ElemLIDs{}, err
	}
	leaf.lids = []order.LID{start, end}
	if err := l.writeNode(leaf); err != nil {
		return order.ElemLIDs{}, err
	}
	if err := l.file.SetU64(start, uint64(leaf.blk)); err != nil {
		return order.ElemLIDs{}, err
	}
	if err := l.file.SetU64(end, uint64(leaf.blk)); err != nil {
		return order.ElemLIDs{}, err
	}
	l.root = leaf.blk
	l.height = 1
	l.count = 2
	return order.ElemLIDs{Start: start, End: end}, nil
}

// Delete implements order.Labeler: remove the record; an underflowing leaf
// first borrows from a sibling and otherwise merges with one, cascading up.
func (l *Labeler) Delete(lid order.LID) (err error) {
	l.store.BeginOp()
	defer l.store.EndOpInto(&err)
	leaf, idx, err := l.leafOf(lid)
	if err != nil {
		return err
	}
	if l.logger != nil && idx+1 < len(leaf.lids) {
		steps, err := l.pathOf(lid)
		if err != nil {
			return err
		}
		steps[0].pos = idx + 1
		if lo, err := l.packSteps(steps); err == nil {
			steps[0].pos = len(leaf.lids) - 1
			hi, _ := l.packSteps(steps)
			l.logShift(lo, hi, -1)
		}
	}
	if l.p.Ordinal && l.ologger != nil {
		ord, err := l.ordinalOfPos(leaf, idx)
		if err != nil {
			return err
		}
		l.logOrdinalShift(ord, -1)
	}
	leaf.lids = append(leaf.lids[:idx], leaf.lids[idx+1:]...)
	if err := l.file.Free(lid); err != nil {
		return err
	}
	l.count--
	if l.p.Ordinal {
		if err := l.bumpSizes(leaf.parent, leaf.blk, -1); err != nil {
			return err
		}
	}
	if leaf.parent == pager.NilBlock {
		if len(leaf.lids) == 0 {
			if err := l.store.Free(leaf.blk); err != nil {
				return err
			}
			l.root = pager.NilBlock
			l.height = 0
			return nil
		}
		return l.writeNode(leaf)
	}
	if len(leaf.lids) < l.p.MinLeaf {
		return l.fixUnderflow(leaf)
	}
	return l.writeNode(leaf)
}

// fixUnderflow restores the minimum occupancy of non-root node n by
// borrowing from a sibling or merging with one, cascading upward.
func (l *Labeler) fixUnderflow(n *node) error {
	p, err := l.readNode(n.parent)
	if err != nil {
		return err
	}
	i := p.findChild(n.blk)
	if i < 0 {
		return fmt.Errorf("bbox: underflow: node %d missing from parent %d", n.blk, p.blk)
	}
	if len(p.ents) == 1 {
		// n is its parent's only child, so it has no siblings to borrow
		// from or merge with. At the root this collapses a level; below
		// the root (transient state during subtree-operation repair) the
		// parent must be repaired first — merging it into its own
		// sibling gives n siblings, and the caller's repair loop will
		// come back for n.
		if p.parent != pager.NilBlock {
			return l.fixUnderflow(p)
		}
		n.parent = pager.NilBlock
		if err := l.writeNode(n); err != nil {
			return err
		}
		if err := l.store.Free(p.blk); err != nil {
			return err
		}
		l.root = n.blk
		l.height--
		l.logInvalidateAll()
		return nil
	}
	minOcc := l.p.MinFanout
	if n.leaf {
		minOcc = l.p.MinLeaf
	}

	// Borrow from the left sibling.
	if i > 0 {
		sib, err := l.readNode(p.ents[i-1].child)
		if err != nil {
			return err
		}
		if sib.count() > minOcc {
			l.store.Observer().Inc(obs.CtrBBoxBorrows)
			moved, err := l.moveItems(sib, n, sib.count()-1, 1, true)
			if err != nil {
				return err
			}
			p.ents[i-1].size -= moved
			p.ents[i].size += moved
			if err := l.writeNode(sib); err != nil {
				return err
			}
			if err := l.writeNode(n); err != nil {
				return err
			}
			if err := l.writeNode(p); err != nil {
				return err
			}
			l.logInvalidateNode(p)
			return nil
		}
	}
	// Borrow from the right sibling.
	if i < len(p.ents)-1 {
		sib, err := l.readNode(p.ents[i+1].child)
		if err != nil {
			return err
		}
		if sib.count() > minOcc {
			l.store.Observer().Inc(obs.CtrBBoxBorrows)
			moved, err := l.moveItems(sib, n, 0, 1, false)
			if err != nil {
				return err
			}
			p.ents[i+1].size -= moved
			p.ents[i].size += moved
			if err := l.writeNode(sib); err != nil {
				return err
			}
			if err := l.writeNode(n); err != nil {
				return err
			}
			if err := l.writeNode(p); err != nil {
				return err
			}
			l.logInvalidateNode(p)
			return nil
		}
	}
	// Merge with a sibling: move everything into the left node of the
	// pair and drop the right one.
	l.store.Observer().Inc(obs.CtrBBoxMerges)
	var left, right *node
	var rightIdx int
	if i > 0 {
		var err error
		left, err = l.readNode(p.ents[i-1].child)
		if err != nil {
			return err
		}
		right = n
		rightIdx = i
	} else {
		var err error
		right, err = l.readNode(p.ents[i+1].child)
		if err != nil {
			return err
		}
		left = n
		rightIdx = i + 1
	}
	moved, err := l.moveItems(right, left, 0, right.count(), false)
	if err != nil {
		return err
	}
	p.ents[rightIdx-1].size += moved
	p.ents = append(p.ents[:rightIdx], p.ents[rightIdx+1:]...)
	if err := l.store.Free(right.blk); err != nil {
		return err
	}
	if err := l.writeNode(left); err != nil {
		return err
	}
	l.logInvalidateNode(p)

	if p.parent == pager.NilBlock {
		if len(p.ents) == 1 {
			// Collapse the root.
			child, err := l.readNode(p.ents[0].child)
			if err != nil {
				return err
			}
			child.parent = pager.NilBlock
			if err := l.writeNode(child); err != nil {
				return err
			}
			if err := l.store.Free(p.blk); err != nil {
				return err
			}
			l.root = child.blk
			l.height--
			l.logInvalidateAll()
			return nil
		}
		return l.writeNode(p)
	}
	if len(p.ents) < l.p.MinFanout {
		return l.fixUnderflow(p)
	}
	return l.writeNode(p)
}

// moveItems moves cnt items from src (starting at srcIdx) to dst,
// prepending when toFront is set and appending otherwise, fixing LIDF
// pointers (leaf) or child back-links (internal). It returns the number of
// records transferred (subtree sizes for internal entries).
func (l *Labeler) moveItems(src, dst *node, srcIdx, cnt int, toFront bool) (uint64, error) {
	var transferred uint64
	if src.leaf {
		items := append([]order.LID(nil), src.lids[srcIdx:srcIdx+cnt]...)
		src.lids = append(src.lids[:srcIdx], src.lids[srcIdx+cnt:]...)
		if toFront {
			dst.lids = append(append([]order.LID(nil), items...), dst.lids...)
		} else {
			dst.lids = append(dst.lids, items...)
		}
		for _, lid := range items {
			if err := l.file.SetU64(lid, uint64(dst.blk)); err != nil {
				return 0, err
			}
		}
		transferred = uint64(cnt)
		return transferred, nil
	}
	items := append([]entry(nil), src.ents[srcIdx:srcIdx+cnt]...)
	src.ents = append(src.ents[:srcIdx], src.ents[srcIdx+cnt:]...)
	if toFront {
		dst.ents = append(append([]entry(nil), items...), dst.ents...)
	} else {
		dst.ents = append(dst.ents, items...)
	}
	for _, e := range items {
		c, err := l.readNode(e.child)
		if err != nil {
			return 0, err
		}
		c.parent = dst.blk
		if err := l.writeNode(c); err != nil {
			return 0, err
		}
		transferred += e.size
	}
	return transferred, nil
}
