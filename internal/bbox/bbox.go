package bbox

import (
	"fmt"

	"boxes/internal/lidf"
	"boxes/internal/order"
	"boxes/internal/pager"
)

// Labeler is a B-BOX. It implements order.Labeler.
type Labeler struct {
	store *pager.Store
	file  *lidf.File
	p     Params

	root   pager.BlockID
	height int // levels (1 = a single leaf); 0 when empty
	count  uint64

	logger  order.UpdateLogger
	ologger order.UpdateLogger // ordinal-label effects (requires Ordinal)
}

// New creates an empty B-BOX over store with the given parameters.
func New(store *pager.Store, p Params) (*Labeler, error) {
	if p.BlockSize != store.BlockSize() {
		return nil, fmt.Errorf("bbox: params block size %d != store block size %d", p.BlockSize, store.BlockSize())
	}
	f, err := lidf.New(store, 8)
	if err != nil {
		return nil, err
	}
	return &Labeler{store: store, file: f, p: p}, nil
}

// NewDefault creates an empty B-BOX (no ordinal support) with parameters
// derived from the store's block size.
func NewDefault(store *pager.Store) (*Labeler, error) {
	p, err := NewParams(store.BlockSize(), false, false)
	if err != nil {
		return nil, err
	}
	return New(store, p)
}

// Params returns the structural parameters in use.
func (l *Labeler) Params() Params { return l.p }

// SetLogger implements order.LoggingLabeler.
func (l *Labeler) SetLogger(lg order.UpdateLogger) { l.logger = lg }

// SetOrdinalLogger implements order.OrdinalLoggingLabeler: lg receives
// ordinal-label effects. Requires ordinal support (B-BOX-O).
func (l *Labeler) SetOrdinalLogger(lg order.UpdateLogger) { l.ologger = lg }

// ordinalOfPos computes the ordinal position of the record at index idx of
// leaf by walking the back-links and summing the size fields left of the
// path, without needing a LID.
func (l *Labeler) ordinalOfPos(leaf *node, idx int) (uint64, error) {
	ord := uint64(idx)
	child := leaf
	for child.parent != pager.NilBlock {
		p, err := l.readNode(child.parent)
		if err != nil {
			return 0, err
		}
		ci := p.findChild(child.blk)
		if ci < 0 {
			return 0, fmt.Errorf("bbox: node %d missing from parent %d", child.blk, p.blk)
		}
		for q := 0; q < ci; q++ {
			ord += p.ents[q].size
		}
		child = p
	}
	return ord, nil
}

func (l *Labeler) logOrdinalShift(ord uint64, delta int64) {
	if l.ologger != nil {
		l.ologger.LogShift(ord, ^uint64(0), delta)
	}
}

// Count implements order.Labeler.
func (l *Labeler) Count() uint64 { return l.count }

// Height implements order.Labeler.
func (l *Labeler) Height() int { return l.height }

// LabelBits implements order.Labeler: bits for the root component plus
// compBits for every level below it.
func (l *Labeler) LabelBits() int {
	if l.height == 0 {
		return 0
	}
	root, err := l.readNode(l.root)
	if err != nil {
		return l.height * int(l.p.compBits)
	}
	rootBits := 1
	for v := root.count() - 1; v > 1; v >>= 1 {
		rootBits++
	}
	return rootBits + (l.height-1)*int(l.p.compBits)
}

// leafOf reads the leaf currently holding lid's record via the LIDF.
func (l *Labeler) leafOf(lid order.LID) (*node, int, error) {
	blkU, err := l.file.GetU64(lid)
	if err != nil {
		return nil, 0, err
	}
	leaf, err := l.readNode(pager.BlockID(blkU))
	if err != nil {
		return nil, 0, err
	}
	idx := leaf.findLID(lid)
	if idx < 0 {
		return nil, 0, errRecordMissing(lid, leaf.blk)
	}
	return leaf, idx, nil
}

// pathStep is one level of a bottom-up path.
type pathStep struct {
	n   *node
	pos int // position of the lower node (or record) within n
}

// pathOf returns lid's bottom-up path: element 0 is the leaf (pos = record
// index), the last element is the root (pos = child index taken). Cost: one
// LIDF I/O plus height node I/Os, exactly the paper's lookup walk.
func (l *Labeler) pathOf(lid order.LID) ([]pathStep, error) {
	leaf, idx, err := l.leafOf(lid)
	if err != nil {
		return nil, err
	}
	steps := []pathStep{{n: leaf, pos: idx}}
	child := leaf
	for child.parent != pager.NilBlock {
		p, err := l.readNode(child.parent)
		if err != nil {
			return nil, err
		}
		ci := p.findChild(child.blk)
		if ci < 0 {
			return nil, errChildMissing(child.blk, p.blk)
		}
		steps = append(steps, pathStep{n: p, pos: ci})
		child = p
	}
	return steps, nil
}

// packSteps packs a bottom-up path into the uint64 label: the root
// component occupies the high bits, the leaf position the low bits.
func (l *Labeler) packSteps(steps []pathStep) (order.Label, error) {
	if len(steps) > l.p.maxPackedHeight() {
		return 0, order.ErrLabelOverflow
	}
	var packed uint64
	for i := len(steps) - 1; i >= 0; i-- {
		packed = packed<<l.p.compBits | uint64(steps[i].pos)
	}
	return packed, nil
}

// Lookup implements order.Labeler: the label is reconstructed bottom-up
// from the back-links (Theorem 5.2: O(log_B N) I/Os).
func (l *Labeler) Lookup(lid order.LID) (_ order.Label, err error) {
	l.store.BeginOp()
	defer l.store.EndOpInto(&err)
	return l.lookup(lid)
}

// LookupPair reconstructs two labels in one logical operation, so the LIDF
// block and any shared upper tree nodes are fetched once. For an element's
// start/end pair the two bottom-up walks share most of their path.
func (l *Labeler) LookupPair(a, b order.LID) (la, lb order.Label, err error) {
	l.store.BeginOp()
	defer l.store.EndOpInto(&err)
	if la, err = l.lookup(a); err != nil {
		return 0, 0, err
	}
	lb, err = l.lookup(b)
	return la, lb, err
}

// Components returns the label as its raw component vector, root first —
// the multi-component form of Section 5.
func (l *Labeler) Components(lid order.LID) (_ []int, err error) {
	l.store.BeginOp()
	defer l.store.EndOpInto(&err)
	steps, err := l.pathOf(lid)
	if err != nil {
		return nil, err
	}
	comps := make([]int, len(steps))
	for i, s := range steps {
		comps[len(steps)-1-i] = s.pos
	}
	return comps, nil
}

// CompareLIDs orders two labels by walking bottom-up in parallel and
// stopping at the lowest common ancestor, the comparison shortcut of
// Section 5. It returns -1, 0 or +1.
func (l *Labeler) CompareLIDs(a, b order.LID) (_ int, err error) {
	if a == b {
		return 0, nil
	}
	l.store.BeginOp()
	defer l.store.EndOpInto(&err)
	leafA, posA, err := l.leafOf(a)
	if err != nil {
		return 0, err
	}
	leafB, posB, err := l.leafOf(b)
	if err != nil {
		return 0, err
	}
	// posIn[blk] = position history for each walk.
	type walker struct {
		n   *node
		pos int
	}
	wa := walker{leafA, posA}
	wb := walker{leafB, posB}
	seenA := map[pager.BlockID]int{leafA.blk: posA}
	seenB := map[pager.BlockID]int{leafB.blk: posB}
	for {
		if pb, ok := seenB[wa.n.blk]; ok {
			// wa.n is the LCA; compare b's position there against a's.
			pa := seenA[wa.n.blk]
			return cmpInt(pa, pb), nil
		}
		if pa, ok := seenA[wb.n.blk]; ok {
			pb := seenB[wb.n.blk]
			return cmpInt(pa, pb), nil
		}
		progress := false
		if wa.n.parent != pager.NilBlock {
			p, err := l.readNode(wa.n.parent)
			if err != nil {
				return 0, err
			}
			ci := p.findChild(wa.n.blk)
			wa = walker{p, ci}
			seenA[p.blk] = ci
			progress = true
			if pb, ok := seenB[p.blk]; ok {
				return cmpInt(ci, pb), nil
			}
		}
		if wb.n.parent != pager.NilBlock {
			p, err := l.readNode(wb.n.parent)
			if err != nil {
				return 0, err
			}
			ci := p.findChild(wb.n.blk)
			wb = walker{p, ci}
			seenB[p.blk] = ci
			progress = true
			if pa, ok := seenA[p.blk]; ok {
				return cmpInt(pa, ci), nil
			}
		}
		if !progress {
			return 0, fmt.Errorf("bbox: LIDs %d and %d share no ancestor", a, b)
		}
	}
}

func cmpInt(a, b int) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// OrdinalLookup implements order.Labeler: the bottom-up walk accumulates
// the size fields left of the path (Section 5, "Ordinal labeling support").
func (l *Labeler) OrdinalLookup(lid order.LID) (_ uint64, err error) {
	if !l.p.Ordinal {
		return 0, order.ErrNoOrdinal
	}
	l.store.BeginOp()
	defer l.store.EndOpInto(&err)
	_, ord, _, err := l.climb(lid)
	return ord, err
}

// prefixRange computes the packed label interval covered by node n's
// subtree, for update logging. It walks n's back-links to the root.
func (l *Labeler) prefixRange(n *node) (uint64, uint64, error) {
	var comps []int
	child := n
	for child.parent != pager.NilBlock {
		p, err := l.readNode(child.parent)
		if err != nil {
			return 0, 0, err
		}
		ci := p.findChild(child.blk)
		if ci < 0 {
			return 0, 0, fmt.Errorf("bbox: node %d missing from parent %d", child.blk, p.blk)
		}
		comps = append([]int{ci}, comps...)
		child = p
	}
	depth := len(comps)
	if l.height > l.p.maxPackedHeight() {
		return 0, ^uint64(0), nil
	}
	var lo uint64
	for _, c := range comps {
		lo = lo<<l.p.compBits | uint64(c)
	}
	rest := uint(l.height-depth) * l.p.compBits
	lo <<= rest
	hi := lo | (uint64(1)<<rest - 1)
	return lo, hi, nil
}

func (l *Labeler) logShift(lo, hi uint64, delta int64) {
	if l.logger != nil && lo <= hi {
		l.logger.LogShift(lo, hi, delta)
	}
}

func (l *Labeler) logInvalidateNode(n *node) {
	if l.logger == nil {
		return
	}
	lo, hi, err := l.prefixRange(n)
	if err != nil {
		lo, hi = 0, ^uint64(0)
	}
	l.logger.LogInvalidate(lo, hi)
}

func (l *Labeler) logInvalidateAll() {
	if l.logger != nil {
		l.logger.LogInvalidate(0, ^uint64(0))
	}
}

var _ order.Labeler = (*Labeler)(nil)
var _ order.LoggingLabeler = (*Labeler)(nil)
var _ order.OrdinalLoggingLabeler = (*Labeler)(nil)
