package wbox

import (
	"errors"
	"fmt"

	"boxes/internal/lidf"
	"boxes/internal/order"
	"boxes/internal/pager"
)

// ErrPairVariant is returned by single-label insertion on a PairOptimized
// W-BOX, whose leaf records carry per-element linkage; use
// InsertElementBefore instead.
var ErrPairVariant = errors.New("wbox: W-BOX-O requires element-level insertion")

// Labeler is a W-BOX: a weight-balanced B-tree maintaining a dynamic
// order-based labeling. It implements order.Labeler.
type Labeler struct {
	store *pager.Store
	file  *lidf.File
	p     Params

	root   pager.BlockID // NilBlock when empty
	height int           // levels (1 = a single leaf); 0 when empty

	live uint64 // live labels
	dead uint64 // tombstoned labels awaiting global rebuild

	logger  order.UpdateLogger
	ologger order.UpdateLogger // ordinal-label effects (requires Ordinal)
}

// New creates an empty W-BOX over store with the given parameters.
func New(store *pager.Store, p Params) (*Labeler, error) {
	if p.BlockSize != store.BlockSize() {
		return nil, fmt.Errorf("wbox: params block size %d != store block size %d", p.BlockSize, store.BlockSize())
	}
	f, err := lidf.New(store, 8) // payload: BOX leaf block address
	if err != nil {
		return nil, err
	}
	return &Labeler{store: store, file: f, p: p}, nil
}

// NewDefault creates an empty basic W-BOX with parameters derived from the
// store's block size.
func NewDefault(store *pager.Store) (*Labeler, error) {
	p, err := NewParams(store.BlockSize(), Basic, false)
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
// ordinal-label effects ("[o, ∞): ±1"). Requires ordinal support; ordinal
// labels are never affected by relabeling, so every effect is succinct.
func (l *Labeler) SetOrdinalLogger(lg order.UpdateLogger) { l.ologger = lg }

// ordinalAt computes the ordinal position of the record at index idx of
// the final path node, using the (pre-update) size fields along the path.
func ordinalAt(path []*node, taken []int, idx int) uint64 {
	var ord uint64
	for i := range path[:len(path)-1] {
		for q := 0; q < taken[i]; q++ {
			ord += path[i].ents[q].size
		}
	}
	tail := path[len(path)-1]
	for q := 0; q < idx && q < len(tail.recs); q++ {
		if !tail.recs[q].deleted {
			ord++
		}
	}
	return ord
}

func (l *Labeler) logOrdinalShift(ord uint64, delta int64) {
	if l.ologger != nil {
		l.ologger.LogShift(ord, ^uint64(0), delta)
	}
}

// Count implements order.Labeler.
func (l *Labeler) Count() uint64 { return l.live }

// Height implements order.Labeler.
func (l *Labeler) Height() int { return l.height }

// LabelBits implements order.Labeler: the bits needed to express the
// current root range.
func (l *Labeler) LabelBits() int {
	if l.height == 0 {
		return 0
	}
	r, ok := l.p.rangeLen(l.height - 1)
	if !ok {
		return 64
	}
	bits := 0
	for v := r - 1; v > 0; v >>= 1 {
		bits++
	}
	return bits
}

func (l *Labeler) logShift(lo, hi uint64, delta int64) {
	if l.logger != nil && lo <= hi {
		l.logger.LogShift(lo, hi, delta)
	}
}

func (l *Labeler) logInvalidate(lo, hi uint64) {
	if l.logger != nil {
		l.logger.LogInvalidate(lo, hi)
	}
}

// Lookup implements order.Labeler. Cost: one LIDF I/O plus one leaf I/O.
func (l *Labeler) Lookup(lid order.LID) (order.Label, error) {
	r := l.store.BeginRead()
	defer r.End()
	_, _, lo, idx, err := l.viewLeafOf(r, lid)
	if err != nil {
		return 0, err
	}
	return lo + uint64(idx), nil
}

// LookupPair returns both labels of the element whose start label is
// startLID. On a PairOptimized W-BOX this costs one LIDF I/O plus one leaf
// I/O (the end label is cached in the start record); on a basic W-BOX it
// falls back to two lookups.
func (l *Labeler) LookupPair(startLID, endLID order.LID) (start, end order.Label, err error) {
	r := l.store.BeginRead()
	defer r.End()
	_, leaf, lo, idx, err := l.viewLeafOf(r, startLID)
	if err != nil {
		return 0, 0, err
	}
	start = lo + uint64(idx)
	if l.p.Variant == PairOptimized {
		o := l.recOff(idx)
		if recFlags(leaf, o)&flagIsStart != 0 && recPartnerBlk(leaf, o) != pager.NilBlock {
			return start, recEndCopy(leaf, o), nil
		}
	}
	if _, _, lo, idx, err = l.viewLeafOf(r, endLID); err != nil {
		return 0, 0, err
	}
	return start, lo + uint64(idx), nil
}

// descend walks from the root to the leaf whose range contains label,
// returning the path (root first) and, for each internal path node, the
// entry index taken.
func (l *Labeler) descend(label uint64) (path []*node, taken []int, err error) {
	if l.root == pager.NilBlock {
		return nil, nil, order.ErrEmpty
	}
	blk := l.root
	for {
		n, err := l.readNode(blk)
		if err != nil {
			return nil, nil, err
		}
		path = append(path, n)
		if n.isLeaf() {
			return path, taken, nil
		}
		childLen, ok := l.p.rangeLen(int(n.level) - 1)
		if !ok {
			return nil, nil, order.ErrLabelOverflow
		}
		ci := n.childIndexByLabel(label, childLen)
		if ci < 0 {
			return nil, nil, fmt.Errorf("wbox: label %d outside node %d range", label, n.blk)
		}
		taken = append(taken, ci)
		blk = n.ents[ci].child
	}
}

// InsertBefore implements order.Labeler for the basic variant.
func (l *Labeler) InsertBefore(lidOld order.LID) (_ order.LID, err error) {
	if l.p.Variant == PairOptimized {
		return order.NilLID, ErrPairVariant
	}
	l.store.BeginOp()
	defer l.store.EndOpInto(&err)
	if err := l.resolve(lidOld); err != nil {
		return order.NilLID, err
	}
	lid, err := l.file.Alloc()
	if err != nil {
		return order.NilLID, err
	}
	if err := l.insertOne(lid, lidOld, record{lid: lid}); err != nil {
		return order.NilLID, err
	}
	return lid, nil
}

// InsertElementBefore implements order.Labeler.
func (l *Labeler) InsertElementBefore(lidOld order.LID) (_ order.ElemLIDs, err error) {
	l.store.BeginOp()
	defer l.store.EndOpInto(&err)
	if err := l.resolve(lidOld); err != nil {
		return order.ElemLIDs{}, err
	}
	startLID, endLID, err := l.file.AllocPair()
	if err != nil {
		return order.ElemLIDs{}, err
	}
	// Insert the end label before lidOld, then the start label before the
	// end label (Section 3's implementation of insert-element-before).
	endRec := record{lid: endLID}
	startRec := record{lid: startLID, isStart: true}
	if err := l.insertOne(endLID, lidOld, endRec); err != nil {
		return order.ElemLIDs{}, err
	}
	if err := l.insertOne(startLID, endLID, startRec); err != nil {
		return order.ElemLIDs{}, err
	}
	if l.p.Variant == PairOptimized {
		if err := l.linkPair(startLID, endLID); err != nil {
			return order.ElemLIDs{}, err
		}
	}
	return order.ElemLIDs{Start: startLID, End: endLID}, nil
}

// linkPair records the partner linkage between a freshly inserted start and
// end record and caches the end label in the start record.
func (l *Labeler) linkPair(startLID, endLID order.LID) error {
	leafS, idxS, err := l.leafOf(startLID)
	if err != nil {
		return err
	}
	leafE, idxE, err := l.leafOf(endLID)
	if err != nil {
		return err
	}
	if leafS.blk == leafE.blk {
		leafE = leafS // operate on one image
		idxE = leafE.findRec(endLID)
	}
	leafS.recs[idxS].partnerBlk = leafE.blk
	leafS.recs[idxS].partnerLID = endLID
	leafS.recs[idxS].endCopy = leafE.lo + uint64(idxE)
	leafE.recs[idxE].partnerBlk = leafS.blk
	leafE.recs[idxE].partnerLID = startLID
	if err := l.writeNode(leafS); err != nil {
		return err
	}
	if leafE != leafS {
		if err := l.writeNode(leafE); err != nil {
			return err
		}
	}
	return nil
}

// InsertFirstElement implements order.Labeler.
func (l *Labeler) InsertFirstElement() (_ order.ElemLIDs, err error) {
	if l.root != pager.NilBlock {
		return order.ElemLIDs{}, order.ErrNotEmpty
	}
	l.store.BeginOp()
	defer l.store.EndOpInto(&err)
	startLID, endLID, err := l.file.AllocPair()
	if err != nil {
		return order.ElemLIDs{}, err
	}
	leaf, err := l.allocNode(0, 0)
	if err != nil {
		return order.ElemLIDs{}, err
	}
	leaf.recs = []record{
		{lid: startLID, isStart: true},
		{lid: endLID},
	}
	if l.p.Variant == PairOptimized {
		leaf.recs[0].partnerBlk = leaf.blk
		leaf.recs[0].partnerLID = endLID
		leaf.recs[0].endCopy = 1
		leaf.recs[1].partnerBlk = leaf.blk
		leaf.recs[1].partnerLID = startLID
	}
	if err := l.writeNode(leaf); err != nil {
		return order.ElemLIDs{}, err
	}
	if err := l.file.SetU64(startLID, uint64(leaf.blk)); err != nil {
		return order.ElemLIDs{}, err
	}
	if err := l.file.SetU64(endLID, uint64(leaf.blk)); err != nil {
		return order.ElemLIDs{}, err
	}
	l.root = leaf.blk
	l.height = 1
	l.live = 2
	return order.ElemLIDs{Start: startLID, End: endLID}, nil
}

// Delete implements order.Labeler: the record is tombstoned (global
// rebuilding technique); weights are not decremented, so no splitting can
// occur. Once tombstones reach half the structure it is rebuilt.
func (l *Labeler) Delete(lid order.LID) (err error) {
	l.store.BeginOp()
	defer l.store.EndOpInto(&err)
	leaf, idx, err := l.leafOf(lid)
	if err != nil {
		return err
	}
	if l.p.Ordinal {
		// Maintain size fields along the root-to-leaf path; this is what
		// makes ordinal deletion O(log_B N) instead of O(1).
		label := leaf.lo + uint64(idx)
		path, taken, err := l.descend(label)
		if err != nil {
			return err
		}
		leaf = path[len(path)-1]
		idx = leaf.findRec(lid)
		if idx < 0 {
			return fmt.Errorf("wbox: record %d vanished during delete", lid)
		}
		l.logOrdinalShift(ordinalAt(path, taken, idx), -1)
		for i, n := range path[:len(path)-1] {
			n.ents[taken[i]].size--
			if err := l.writeNode(n); err != nil {
				return err
			}
		}
	}
	if l.p.Variant == PairOptimized {
		if err := l.unlinkPartner(leaf, &leaf.recs[idx]); err != nil {
			return err
		}
	}
	leaf.recs[idx].deleted = true
	leaf.recs[idx].lid = 0 // LIDs of tombstones are meaningless; avoid aliasing
	leaf.recs[idx].isStart = false
	leaf.recs[idx].partnerBlk = pager.NilBlock
	leaf.recs[idx].partnerLID = 0
	leaf.recs[idx].endCopy = 0
	if err := l.writeNode(leaf); err != nil {
		return err
	}
	if err := l.file.Free(lid); err != nil {
		return err
	}
	l.live--
	l.dead++
	if rebuildTriggered(l.dead, l.live) {
		return l.rebuildAll()
	}
	return nil
}

// unlinkPartner clears the partner linkage pointing back at a record that
// is about to disappear, so later fix-ups never chase a dangling pointer.
// home is the caller's in-memory image of the leaf holding r; when the
// partner is co-located the edit happens on that image (which the caller
// will write), never on a second image that the caller's write would undo.
func (l *Labeler) unlinkPartner(home *node, r *record) error {
	if r.partnerBlk == pager.NilBlock {
		return nil
	}
	pn := home
	if r.partnerBlk != home.blk {
		var err error
		pn, err = l.readNode(r.partnerBlk)
		if err != nil {
			return err
		}
	}
	pi := pn.findRec(r.partnerLID)
	if pi < 0 {
		return nil // partner already deleted
	}
	pn.recs[pi].partnerBlk = pager.NilBlock
	pn.recs[pi].partnerLID = 0
	pn.recs[pi].endCopy = 0
	if pn == home {
		return nil // caller writes home
	}
	return l.writeNode(pn)
}

// OrdinalLookup implements order.Labeler: a regular lookup followed by a
// top-down traversal accumulating the size fields left of the path
// (Section 4, "Ordinal labeling support").
func (l *Labeler) OrdinalLookup(lid order.LID) (uint64, error) {
	if !l.p.Ordinal {
		return 0, order.ErrNoOrdinal
	}
	r := l.store.BeginRead()
	defer r.End()
	_, _, lo, idx, err := l.viewLeafOf(r, lid)
	if err != nil {
		return 0, err
	}
	label := lo + uint64(idx)
	var ord uint64
	for blk, done := l.root, false; !done; {
		buf, err := r.View(blk)
		if err != nil {
			return 0, err
		}
		var left uint64
		left, blk, done, err = l.ordinalStep(blk, buf, label, idx)
		if err != nil {
			return 0, err
		}
		ord += left
	}
	return ord, nil
}

var _ order.Labeler = (*Labeler)(nil)
var _ order.LoggingLabeler = (*Labeler)(nil)
var _ order.OrdinalLoggingLabeler = (*Labeler)(nil)
