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
	r := l.store.BeginRead()
	defer r.End()
	_, ord, _, err := l.climbFrom(r, leaf.blk, leaf.parent, 0, uint64(idx), 0)
	return ord, err
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
func (l *Labeler) Lookup(lid order.LID) (order.Label, error) {
	r := l.store.BeginRead()
	defer r.End()
	return l.lookup(r, lid)
}

// LookupPair reconstructs two labels in one read op, so the LIDF block and
// any shared upper tree nodes are fetched once. For an element's start/end
// pair the two bottom-up walks share most of their path.
func (l *Labeler) LookupPair(a, b order.LID) (la, lb order.Label, err error) {
	r := l.store.BeginRead()
	defer r.End()
	if la, err = l.lookup(r, a); err != nil {
		return 0, 0, err
	}
	lb, err = l.lookup(r, b)
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
func (l *Labeler) CompareLIDs(a, b order.LID) (int, error) {
	if a == b {
		return 0, nil
	}
	r := l.store.BeginRead()
	defer r.End()
	// Each walk climbs in place one level per round and records, for every
	// block it has reached, the position it took there; the first block
	// both walks have reached is the LCA.
	type walker struct {
		blk, parent pager.BlockID
		seen        map[pager.BlockID]int
	}
	var w [2]walker
	for i, lid := range [2]order.LID{a, b} {
		blk, _, pos, parent, err := l.viewLeafOf(r, lid)
		if err != nil {
			return 0, err
		}
		w[i] = walker{blk, parent, map[pager.BlockID]int{blk: pos}}
	}
	lca := func(blk pager.BlockID) (int, bool) {
		pa, okA := w[0].seen[blk]
		pb, okB := w[1].seen[blk]
		return cmpInt(pa, pb), okA && okB
	}
	for {
		if c, ok := lca(w[0].blk); ok {
			return c, nil
		}
		if c, ok := lca(w[1].blk); ok {
			return c, nil
		}
		progress := false
		for i := range w {
			if w[i].parent == pager.NilBlock {
				continue
			}
			blk := w[i].parent
			pos, _, parent, err := l.up(r, w[i].blk, blk)
			if err != nil {
				return 0, err
			}
			w[i].blk, w[i].parent, w[i].seen[blk] = blk, parent, pos
			progress = true
			if c, ok := lca(blk); ok {
				return c, nil
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
func (l *Labeler) OrdinalLookup(lid order.LID) (uint64, error) {
	if !l.p.Ordinal {
		return 0, order.ErrNoOrdinal
	}
	r := l.store.BeginRead()
	defer r.End()
	_, ord, _, err := l.climb(r, lid)
	return ord, err
}

// prefixRange computes the packed label interval covered by node n's
// subtree, for update logging. It walks n's back-links to the root.
func (l *Labeler) prefixRange(n *node) (uint64, uint64, error) {
	r := l.store.BeginRead()
	defer r.End()
	prefix, _, depth, err := l.climbFrom(r, n.blk, n.parent, 0, 0, 0)
	if err != nil {
		return 0, 0, err
	}
	if l.height > l.p.maxPackedHeight() {
		return 0, ^uint64(0), nil
	}
	rest := uint(l.height-depth) * l.p.compBits
	lo := prefix << rest
	return lo, lo | (uint64(1)<<rest - 1), nil
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
