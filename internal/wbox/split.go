package wbox

import (
	"fmt"
	"slices"

	"boxes/internal/obs"
	"boxes/internal/order"
	"boxes/internal/pager"
)

// endFix is a deferred update of a start record's cached end-label copy
// (PairOptimized variant): the start record identified by startLID, living
// in block blk, must have its endCopy set to newEnd.
type endFix struct {
	blk      pager.BlockID
	startLID order.LID
	newEnd   uint64
}

// insertOne inserts rec (whose LID is already allocated and equals rec.lid)
// immediately before lidOld. It maintains weights, sizes, and the weight
// constraints via splits, and performs all PairOptimized fix-ups except the
// new record's own partner linkage (done by the caller once both records of
// an element are in place).
func (l *Labeler) insertOne(newLID, lidOld order.LID, rec record) error {
	leaf, j, err := l.leafOf(lidOld)
	if err != nil {
		return err
	}

	// Tombstone reclamation (Section 4, deletion handling): if the leaf
	// holds a "deleted" record, reuse its slot without touching weights,
	// so no split can occur.
	if t := leaf.findTombstone(); t >= 0 {
		return l.insertReclaim(newLID, rec, leaf, j, t)
	}

	// Phase 1: split every node that the insertion would push to its
	// weight limit, topmost first. Each split may relabel records and
	// move them between blocks, so the leaf position is re-derived from
	// the LIDF after every split.
	for {
		leaf, j, err = l.leafOf(lidOld)
		if err != nil {
			return err
		}
		path, taken, err := l.descend(leaf.lo + uint64(j))
		if err != nil {
			return err
		}
		if path[len(path)-1].blk != leaf.blk {
			return fmt.Errorf("wbox: descent for lid %d reached block %d, LIDF says %d", lidOld, path[len(path)-1].blk, leaf.blk)
		}
		vIdx := -1
		for i, n := range path {
			limit, ok := l.p.weightLimit(int(n.level))
			if !ok {
				return order.ErrLabelOverflow
			}
			if n.weight()+1 >= limit {
				vIdx = i
				break
			}
		}
		if vIdx < 0 {
			break
		}
		if err := l.splitNode(path, taken, vIdx); err != nil {
			return err
		}
	}

	// Phase 2: physical insertion into the leaf.
	leaf, j, err = l.leafOf(lidOld)
	if err != nil {
		return err
	}
	oldLast := leaf.lo + uint64(len(leaf.recs)) - 1
	leaf.recs = append(leaf.recs, record{})
	copy(leaf.recs[j+1:], leaf.recs[j:])
	leaf.recs[j] = rec
	if err := l.writeNode(leaf); err != nil {
		return err
	}
	if err := l.file.SetU64(newLID, uint64(leaf.blk)); err != nil {
		return err
	}
	l.logShift(leaf.lo+uint64(j), oldLast, +1)
	l.store.Observer().HeatLabelInsert(leaf.lo + uint64(j))
	if l.p.Variant == PairOptimized {
		// Shifted end records moved up by one label; repair the cached
		// copies held by their start partners. Partners outside this
		// leaf lie on one root path of the element tree, so there are at
		// most D of them (Theorem 4.7).
		var fixes []endFix
		for i := j + 1; i < len(leaf.recs); i++ {
			r := &leaf.recs[i]
			if r.deleted || r.isStart || r.partnerBlk == pager.NilBlock {
				continue
			}
			fixes = append(fixes, endFix{blk: r.partnerBlk, startLID: r.partnerLID, newEnd: leaf.lo + uint64(i)})
		}
		if err := l.applyEndFixes(fixes, leaf); err != nil {
			return err
		}
	}

	// Phase 3: weight and size maintenance along the (post-split) path.
	path, taken, err := l.descend(leaf.lo + uint64(j))
	if err != nil {
		return err
	}
	if l.p.Ordinal && l.ologger != nil {
		// Ordinal effect of this insertion: everything at or after the
		// new record's position moves up by one. Sizes along the path
		// are still pre-increment here.
		l.logOrdinalShift(ordinalAt(path, taken, j), +1)
	}
	for i := range path[:len(path)-1] {
		path[i].ents[taken[i]].weight++
		if l.p.Ordinal {
			path[i].ents[taken[i]].size++
		}
		if err := l.writeNode(path[i]); err != nil {
			return err
		}
	}
	l.live++
	return nil
}

// insertReclaim consumes the tombstone at index t to make room for rec
// immediately before the record currently at index j. No weight changes.
func (l *Labeler) insertReclaim(newLID order.LID, rec record, leaf *node, j, t int) error {
	l.store.Observer().Inc(obs.CtrWBoxReclaims)
	var shiftLo, shiftHi uint64
	var shiftDelta int64
	var insertAt int
	switch {
	case t == j:
		copy(leaf.recs[t:], leaf.recs[t+1:])
		insertAt = j
	case t > j:
		// Records j..t-1 shift right; labels +1.
		shiftLo, shiftHi, shiftDelta = leaf.lo+uint64(j), leaf.lo+uint64(t)-1, +1
		copy(leaf.recs[j+1:t+1], leaf.recs[j:t])
		insertAt = j
	default: // t < j
		// Records t+1..j-1 shift left; labels -1.
		shiftLo, shiftHi, shiftDelta = leaf.lo+uint64(t)+1, leaf.lo+uint64(j)-1, -1
		copy(leaf.recs[t:j-1], leaf.recs[t+1:j])
		insertAt = j - 1
	}
	leaf.recs[insertAt] = rec
	if err := l.writeNode(leaf); err != nil {
		return err
	}
	if err := l.file.SetU64(newLID, uint64(leaf.blk)); err != nil {
		return err
	}
	l.store.Observer().HeatLabelInsert(leaf.lo + uint64(insertAt))
	if shiftDelta != 0 {
		l.logShift(shiftLo, shiftHi, shiftDelta)
	}
	if l.p.Variant == PairOptimized && shiftDelta != 0 {
		// Recompute end-label copies for every end record in the leaf;
		// scanning the in-memory image is free and simpler than tracking
		// exactly which indices moved.
		var fixes []endFix
		for i := range leaf.recs {
			r := &leaf.recs[i]
			if r.deleted || r.isStart || r.partnerBlk == pager.NilBlock {
				continue
			}
			fixes = append(fixes, endFix{blk: r.partnerBlk, startLID: r.partnerLID, newEnd: leaf.lo + uint64(i)})
		}
		if err := l.applyEndFixes(fixes, leaf); err != nil {
			return err
		}
	}
	if l.p.Ordinal {
		// The reclaim did not change weights, but live counts grew.
		idx := leaf.findRec(rec.lid)
		path, taken, err := l.descend(leaf.lo + uint64(idx))
		if err != nil {
			return err
		}
		if l.ologger != nil {
			l.logOrdinalShift(ordinalAt(path, taken, idx), +1)
		}
		for i := range path[:len(path)-1] {
			path[i].ents[taken[i]].size++
			if err := l.writeNode(path[i]); err != nil {
				return err
			}
		}
	}
	l.live++
	l.dead--
	return nil
}

// applyEndFixes sets endCopy on the start records named by fixes. hint, if
// non-nil, is an in-memory leaf image to search first (so that same-leaf
// fixes update the image the caller is about to keep using). Each block is
// read, decoded and encoded once however many fixes name it: the fixes are
// grouped by block in first-occurrence order, and the stable sort keeps a
// block's fixes in their given order, so a later fix to a record wins.
func (l *Labeler) applyEndFixes(fixes []endFix, hint *node) error {
	rank := make(map[pager.BlockID]int)
	for _, f := range fixes {
		if _, ok := rank[f.blk]; !ok {
			rank[f.blk] = len(rank)
		}
	}
	fixes = slices.Clone(fixes)
	slices.SortStableFunc(fixes, func(a, b endFix) int { return rank[a.blk] - rank[b.blk] })
	for i := 0; i < len(fixes); {
		n := hint
		if blk := fixes[i].blk; hint == nil || blk != hint.blk {
			var err error
			if n, err = l.readNode(blk); err != nil {
				return err
			}
		}
		changed := false
		for ; i < len(fixes) && fixes[i].blk == n.blk; i++ {
			j := n.findRec(fixes[i].startLID)
			if j < 0 || !n.recs[j].isStart {
				continue // partner deleted meanwhile
			}
			n.recs[j].endCopy = fixes[i].newEnd
			changed = true
		}
		if changed {
			if err := l.writeNode(n); err != nil {
				return err
			}
		}
	}
	return nil
}

// splitNode splits path[vIdx], which is at (or about to exceed) its weight
// limit. path[0] is the root.
func (l *Labeler) splitNode(path []*node, taken []int, vIdx int) error {
	l.store.Observer().Inc(obs.CtrWBoxSplits)
	u := path[vIdx]
	level := int(u.level)

	var p *node
	var eIdx int
	if vIdx == 0 {
		// Splitting the root: a new root is created above it; the new
		// root's range extends u's by a factor of b, with u's range as
		// its first subrange, so u must sit at slot 0.
		if _, ok := l.p.rangeLen(level + 1); !ok {
			return order.ErrLabelOverflow
		}
		nr, err := l.allocNode(uint16(level+1), u.lo)
		if err != nil {
			return err
		}
		nr.ents = []entry{{child: u.blk, weight: u.weight(), size: u.size(), slot: 0}}
		if err := l.writeNode(nr); err != nil {
			return err
		}
		l.root = nr.blk
		l.height++
		p = nr
		eIdx = 0
	} else {
		p = path[vIdx-1]
		eIdx = taken[vIdx-1]
	}
	if p.ents[eIdx].child != u.blk {
		return fmt.Errorf("wbox: split: parent %d entry %d does not point at %d", p.blk, eIdx, u.blk)
	}

	childLen, ok := l.p.rangeLen(level)
	if !ok {
		return order.ErrLabelOverflow
	}
	s := int(p.ents[eIdx].slot)

	// Split point: for a leaf, half the records; for an internal node,
	// the largest m for which the left part's weight stays <= a^level·k.
	var m int
	if u.isLeaf() {
		m = (len(u.recs) + 1) / 2
	} else {
		half := uint64(l.p.K)
		for i := 0; i < level; i++ {
			half *= uint64(l.p.A)
		}
		var w uint64
		m = 0
		for i := range u.ents {
			if w+u.ents[i].weight > half {
				break
			}
			w += u.ents[i].weight
			m = i + 1
		}
		if m == 0 {
			m = 1
		}
		if m == len(u.ents) {
			m = len(u.ents) - 1
		}
	}

	rightFree := s+1 < l.p.B && (eIdx == len(p.ents)-1 || int(p.ents[eIdx+1].slot) > s+1)
	leftFree := s-1 >= 0 && (eIdx == 0 || int(p.ents[eIdx-1].slot) < s-1)

	v, err := l.allocNode(uint16(level), 0)
	if err != nil {
		return err
	}

	switch {
	case rightFree:
		v.lo = p.lo + uint64(s+1)*childLen
		if err := l.moveTail(u, v, m); err != nil {
			return err
		}
		ve := entry{child: v.blk, weight: v.weight(), size: v.size(), slot: uint16(s + 1)}
		p.ents = insertEntry(p.ents, eIdx+1, ve)
	case leftFree:
		v.lo = p.lo + uint64(s-1)*childLen
		if err := l.moveHead(u, v, m); err != nil {
			return err
		}
		ve := entry{child: v.blk, weight: v.weight(), size: v.size(), slot: uint16(s - 1)}
		p.ents = insertEntry(p.ents, eIdx, ve)
		eIdx++ // u's entry moved one to the right
	default:
		// Worst case: both adjacent subranges are taken. Reassign all of
		// parent(u)'s children equally spaced subranges and relabel the
		// entire subtree rooted at parent(u).
		v.lo = 0 // assigned by the relabel below
		if err := l.moveTail(u, v, m); err != nil {
			return err
		}
		ve := entry{child: v.blk, weight: v.weight(), size: v.size(), slot: 0}
		p.ents = insertEntry(p.ents, eIdx+1, ve)
		if len(p.ents) > l.p.B {
			return fmt.Errorf("wbox: parent %d fan-out %d exceeds b=%d after split", p.blk, len(p.ents), l.p.B)
		}
		// relabelSubtree re-reads children from the store, so the split
		// halves must be durable first.
		if err := l.writeNode(u); err != nil {
			return err
		}
		if err := l.writeNode(v); err != nil {
			return err
		}
		l.store.Observer().Inc(obs.CtrWBoxRelabels)
		var fixes []endFix
		if err := l.relabelSubtree(p, p.lo, &fixes); err != nil {
			return err
		}
		if err := l.applyEndFixes(fixes, nil); err != nil {
			return err
		}
		pLen, _ := l.p.rangeLen(level + 1)
		l.logInvalidate(p.lo, p.lo+pLen-1)
		l.refreshEntry(p, eIdx, u)
		return l.writeNode(p)
	}

	// Adjacent-slot placement: only v's subtree needs relabeling (u's
	// entries keep their range; in the left-placement leaf case the kept
	// records shifted within u and moveHead repaired them).
	if !u.isLeaf() {
		l.store.Observer().Inc(obs.CtrWBoxRelabels)
		var fixes []endFix
		if err := l.relabelSubtree(v, v.lo, &fixes); err != nil {
			return err
		}
		if err := l.applyEndFixes(fixes, nil); err != nil {
			return err
		}
	} else {
		if err := l.writeNode(v); err != nil {
			return err
		}
	}
	if err := l.writeNode(u); err != nil {
		return err
	}
	l.refreshEntry(p, eIdx, u)
	pLen, _ := l.p.rangeLen(level + 1)
	l.logInvalidate(p.lo, p.lo+pLen-1)
	return l.writeNode(p)
}

// refreshEntry updates p.ents[eIdx]'s weight and size from u's contents.
func (l *Labeler) refreshEntry(p *node, eIdx int, u *node) {
	p.ents[eIdx].weight = u.weight()
	p.ents[eIdx].size = u.size()
	p.ents[eIdx].child = u.blk
}

func insertEntry(ents []entry, at int, e entry) []entry {
	ents = append(ents, entry{})
	copy(ents[at+1:], ents[at:])
	ents[at] = e
	return ents
}

// moveTail moves u's contents from index m onward into v (v takes the
// right part). For leaves it updates the moved records' LIDF pointers and
// partner linkage.
func (l *Labeler) moveTail(u, v *node, m int) error {
	if u.isLeaf() {
		v.recs = append(v.recs, u.recs[m:]...)
		u.recs = u.recs[:m]
		return l.fixMovedLeafRecords(u, v)
	}
	v.ents = append(v.ents, u.ents[m:]...)
	u.ents = u.ents[:m]
	return nil
}

// moveHead moves u's contents up to index m into v (v takes the left
// part); u keeps the rest. In a leaf the kept records change position (and
// therefore label), so their partners are repaired too.
func (l *Labeler) moveHead(u, v *node, m int) error {
	if u.isLeaf() {
		v.recs = append(v.recs, u.recs[:m]...)
		u.recs = append(u.recs[:0:0], u.recs[m:]...)
		return l.fixMovedLeafRecords(u, v)
	}
	v.ents = append(v.ents, u.ents[:m]...)
	u.ents = append(u.ents[:0:0], u.ents[m:]...)
	return nil
}

// fixMovedLeafRecords repairs LIDF pointers for the records now in v, and
// (PairOptimized) partner pointers and cached end labels for every record
// whose block or label changed in the split of u.
func (l *Labeler) fixMovedLeafRecords(u, v *node) error {
	for _, r := range v.recs {
		if r.deleted {
			continue
		}
		if err := l.file.SetU64(r.lid, uint64(v.blk)); err != nil {
			return err
		}
	}
	if l.p.Variant != PairOptimized {
		return nil
	}
	// Every record in both u and v may have a new (block, label); repair
	// partner linkage in both directions. Partner records inside u or v
	// are patched on the in-memory images; external partners cost one I/O
	// each, O(B) per split as in the paper.
	fix := func(home *node) error {
		for i := range home.recs {
			r := &home.recs[i]
			if r.deleted || r.partnerBlk == pager.NilBlock {
				continue
			}
			newLabel := home.lo + uint64(i)
			var pn *node
			if pi := u.findRec(r.partnerLID); pi >= 0 {
				pn = u
			} else if pi := v.findRec(r.partnerLID); pi >= 0 {
				pn = v
			}
			if pn != nil {
				pi := pn.findRec(r.partnerLID)
				pn.recs[pi].partnerBlk = home.blk
				if !r.isStart {
					pn.recs[pi].endCopy = newLabel
				}
				r.partnerBlk = pn.blk
				continue
			}
			// External partner.
			ext, err := l.readNode(r.partnerBlk)
			if err != nil {
				return err
			}
			pi := ext.findRec(r.partnerLID)
			if pi < 0 {
				continue
			}
			ext.recs[pi].partnerBlk = home.blk
			if !r.isStart {
				ext.recs[pi].endCopy = newLabel
			}
			if err := l.writeNode(ext); err != nil {
				return err
			}
		}
		return nil
	}
	if err := fix(v); err != nil {
		return err
	}
	if err := fix(u); err != nil {
		return err
	}
	if err := l.writeNode(u); err != nil {
		return err
	}
	return l.writeNode(v)
}

// relabelSubtree assigns newLo as n's range base and recursively reassigns
// equally spaced subrange slots to its children, rewriting every node
// below. For PairOptimized leaves it collects the end-label fixes that must
// be applied once the walk completes. This is the relabeling operation
// whose cost O(w(n)/B) the weight-balanced analysis amortizes away.
func (l *Labeler) relabelSubtree(n *node, newLo uint64, fixes *[]endFix) error {
	n.lo = newLo
	if n.isLeaf() {
		if l.p.Variant == PairOptimized {
			for i := range n.recs {
				r := &n.recs[i]
				if r.deleted || r.isStart || r.partnerBlk == pager.NilBlock {
					continue
				}
				*fixes = append(*fixes, endFix{blk: r.partnerBlk, startLID: r.partnerLID, newEnd: newLo + uint64(i)})
			}
		}
		// Charge the records this sweep actually rewrote to the cost
		// ledger — the quantity the O(w(n)/B) amortization is about.
		l.store.Observer().CostRelabeled(uint64(len(n.recs)))
		return l.writeNode(n)
	}
	childLen, ok := l.p.rangeLen(int(n.level) - 1)
	if !ok {
		return order.ErrLabelOverflow
	}
	cnt := len(n.ents)
	for j := range n.ents {
		n.ents[j].slot = uint16(j * l.p.B / cnt)
		child, err := l.readNode(n.ents[j].child)
		if err != nil {
			return err
		}
		if err := l.relabelSubtree(child, newLo+uint64(n.ents[j].slot)*childLen, fixes); err != nil {
			return err
		}
	}
	return l.writeNode(n)
}
