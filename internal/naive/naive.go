// Package naive implements the naive gap-based relabeling scheme the paper
// uses as its baseline (Section 1 and Section 7): adjacent labels are
// initially 2^k apart, insertions take the midpoint of the surrounding gap,
// and when a gap is exhausted *every* label is reassigned to restore equal
// 2^k gaps.
//
// Each LIDF record stores the label value and the length of the gap between
// it and the previous label, exactly as described in Section 7. Labels are
// capacityBits+k bits wide, so for large k they exceed a machine word; they
// are stored as fixed-width big-endian byte strings and manipulated as
// big.Ints. As in the paper, relabeling is granted an in-memory sort: the
// scheme keeps the document order of LIDs in memory and streams over the
// LIDF once (read + write per block) per relabel, a lower bound on the real
// cost of the naive approach. The directory is never persisted: in memory only.
package naive

import (
	"errors"
	"fmt"
	"math/big"

	"boxes/internal/lidf"
	"boxes/internal/obs"
	"boxes/internal/order"
	"boxes/internal/pager"
)

// Config parameterizes the scheme.
type Config struct {
	// K is the number of extra bits per label: the initial gap between
	// adjacent labels is 2^K. The paper evaluates naive-1 through
	// naive-256.
	K int
	// CapacityBits bounds the number of labels the scheme can ever hold
	// at 2^CapacityBits; a label is CapacityBits+K bits wide. Defaults
	// to 32.
	CapacityBits int
}

type dirNode struct {
	prev, next order.LID
}

// Labeler is the naive-k dynamic labeling scheme.
type Labeler struct {
	store *pager.Store
	file  *lidf.File
	cfg   Config

	width int // label width in bytes

	// In-memory document-order directory (head/tail sentinels omitted;
	// NilLID means none). The paper grants naive in-memory ordering for
	// relabeling; holding it costs no I/O.
	dir  map[order.LID]*dirNode
	head order.LID
	tail order.LID

	relabels uint64 // number of global relabelings performed
}

// New creates an empty naive-k labeler over store.
func New(store *pager.Store, cfg Config) (*Labeler, error) {
	if cfg.K < 1 {
		return nil, fmt.Errorf("naive: K must be >= 1, got %d", cfg.K)
	}
	if cfg.CapacityBits == 0 {
		cfg.CapacityBits = 32
	}
	if cfg.CapacityBits < 4 || cfg.CapacityBits > 56 {
		// The relabeling fast path shifts a CapacityBits-wide counter by
		// up to 7 bits inside a uint64, so 56 is the ceiling.
		return nil, fmt.Errorf("naive: CapacityBits out of range: %d (want 4..56)", cfg.CapacityBits)
	}
	width := (cfg.CapacityBits + cfg.K + 7) / 8
	payload := 2 * width // label + gap
	if payload < 8 {
		payload = 8
	}
	f, err := lidf.New(store, payload)
	if err != nil {
		return nil, err
	}
	return &Labeler{
		store: store,
		file:  f,
		cfg:   cfg,
		width: width,
		dir:   make(map[order.LID]*dirNode),
	}, nil
}

// Relabels reports how many global relabelings have occurred.
func (l *Labeler) Relabels() uint64 { return l.relabels }

// Count implements order.Labeler.
func (l *Labeler) Count() uint64 { return uint64(len(l.dir)) }

// LabelBits implements order.Labeler: a naive-k label is log(capacity)+k
// bits long.
func (l *Labeler) LabelBits() int { return l.cfg.CapacityBits + l.cfg.K }

// Height implements order.Labeler; the naive scheme has no tree.
func (l *Labeler) Height() int { return 1 }

// OrdinalLookup implements order.Labeler; the naive scheme cannot produce
// ordinal labels without a full scan.
func (l *Labeler) OrdinalLookup(order.LID) (uint64, error) {
	return 0, order.ErrNoOrdinal
}

func (l *Labeler) putRecord(lid order.LID, label, gap *big.Int) error {
	buf := make([]byte, 2*l.width)
	label.FillBytes(buf[:l.width])
	gap.FillBytes(buf[l.width : 2*l.width])
	return l.file.Set(lid, buf)
}

// getRecord reads lid's label and gap in a read op of its own (inside an
// update, the update's pins).
func (l *Labeler) getRecord(lid order.LID) (label, gap *big.Int, err error) {
	r := l.store.BeginRead()
	defer r.End()
	return l.readRecord(r, lid)
}

// readRecord reads lid's label and gap through r.
func (l *Labeler) readRecord(r *pager.ReadOp, lid order.LID) (label, gap *big.Int, err error) {
	p, err := l.file.Read(r, lid)
	if err != nil {
		return nil, nil, err
	}
	label = new(big.Int).SetBytes(p[:l.width])
	gap = new(big.Int).SetBytes(p[l.width : 2*l.width])
	return label, gap, nil
}

// LookupBig returns the (possibly >64-bit) label of lid.
func (l *Labeler) LookupBig(lid order.LID) (*big.Int, error) {
	label, _, err := l.getRecord(lid)
	return label, err
}

// Lookup implements order.Labeler. If the label exceeds 64 bits (large k),
// it returns order.ErrLabelOverflow; use LookupBig instead.
func (l *Labeler) Lookup(lid order.LID) (order.Label, error) {
	label, err := l.LookupBig(lid)
	if err != nil {
		return 0, err
	}
	if !label.IsUint64() {
		return 0, order.ErrLabelOverflow
	}
	return label.Uint64(), nil
}

// dirInsertBefore links newLID immediately before oldLID in the in-memory
// directory; oldLID == NilLID appends at the tail.
func (l *Labeler) dirInsertBefore(newLID, oldLID order.LID) error {
	n := &dirNode{}
	if oldLID == order.NilLID {
		n.prev = l.tail
		if l.tail != order.NilLID {
			l.dir[l.tail].next = newLID
		} else {
			l.head = newLID
		}
		l.tail = newLID
	} else {
		old, ok := l.dir[oldLID]
		if !ok {
			return order.ErrUnknownLID
		}
		n.prev = old.prev
		n.next = oldLID
		if old.prev != order.NilLID {
			l.dir[old.prev].next = newLID
		} else {
			l.head = newLID
		}
		old.prev = newLID
	}
	l.dir[newLID] = n
	return nil
}

func (l *Labeler) dirRemove(lid order.LID) error {
	n, ok := l.dir[lid]
	if !ok {
		return order.ErrUnknownLID
	}
	if n.prev != order.NilLID {
		l.dir[n.prev].next = n.next
	} else {
		l.head = n.next
	}
	if n.next != order.NilLID {
		l.dir[n.next].prev = n.prev
	} else {
		l.tail = n.prev
	}
	delete(l.dir, lid)
	return nil
}

// encodeShifted writes v<<k into buf as a big-endian integer. It requires
// v << (k%8) to fit in 64 bits, which CapacityBits <= 56 guarantees.
func encodeShifted(buf []byte, v uint64, k int) {
	for i := range buf {
		buf[i] = 0
	}
	x := v << uint(k%8)
	for j := len(buf) - 1 - k/8; j >= 0 && x > 0; j-- {
		buf[j] = byte(x)
		x >>= 8
	}
}

// relabelAll reassigns every live label to (i+1)<<K in document order. The
// encoding is done with direct byte manipulation: a relabel touches every
// record, and this loop dominates the naive scheme's running time.
func (l *Labeler) relabelAll() error {
	l.relabels++
	l.store.Observer().Inc(obs.CtrNaiveRelabels)
	// Every live record gets rewritten; charging them all is exactly what
	// makes the naive scheme's amortized relabels-per-insert ratio grow
	// with N while the BOX schemes stay bounded.
	l.store.Observer().CostRelabeled(uint64(len(l.dir)))
	if uint64(len(l.dir)) > (uint64(1) << uint(l.cfg.CapacityBits)) {
		return order.ErrLabelOverflow
	}
	buf := make([]byte, 2*l.width)
	encodeShifted(buf[l.width:], 1, l.cfg.K) // gap = 1<<K, constant
	i := uint64(0)
	for lid := l.head; lid != order.NilLID; lid = l.dir[lid].next {
		i++
		encodeShifted(buf[:l.width], i, l.cfg.K)
		if err := l.file.Set(lid, buf); err != nil {
			return err
		}
	}
	return nil
}

// InsertBefore implements order.Labeler.
func (l *Labeler) InsertBefore(lidOld order.LID) (_ order.LID, err error) {
	if _, ok := l.dir[lidOld]; !ok {
		return order.NilLID, order.ErrUnknownLID
	}
	l.store.BeginOp()
	defer l.store.EndOpInto(&err)

	lidNew, err := l.file.Alloc()
	if err != nil {
		return order.NilLID, err
	}
	if err := l.dirInsertBefore(lidNew, lidOld); err != nil {
		return order.NilLID, err
	}
	oldLabel, oldGap, err := l.getRecord(lidOld)
	if err != nil {
		return order.NilLID, err
	}
	if oldGap.Cmp(big.NewInt(2)) < 0 {
		// Gap exhausted: global relabeling (the expensive case).
		if err := l.relabelAll(); err != nil {
			return order.NilLID, err
		}
		return lidNew, nil
	}
	// Midpoint insertion: new label = old - gap/2.
	half := new(big.Int).Rsh(oldGap, 1)
	newLabel := new(big.Int).Sub(oldLabel, half)
	newGap := new(big.Int).Sub(oldGap, half)
	if err := l.putRecord(lidNew, newLabel, newGap); err != nil {
		return order.NilLID, err
	}
	if err := l.putRecord(lidOld, oldLabel, half); err != nil {
		return order.NilLID, err
	}
	if newLabel.IsUint64() {
		l.store.Observer().HeatLabelInsert(newLabel.Uint64())
	}
	return lidNew, nil
}

// InsertElementBefore implements order.Labeler.
func (l *Labeler) InsertElementBefore(lidOld order.LID) (order.ElemLIDs, error) {
	end, err := l.InsertBefore(lidOld)
	if err != nil {
		return order.ElemLIDs{}, err
	}
	start, err := l.InsertBefore(end)
	if err != nil {
		return order.ElemLIDs{}, err
	}
	return order.ElemLIDs{Start: start, End: end}, nil
}

// InsertFirstElement implements order.Labeler.
func (l *Labeler) InsertFirstElement() (_ order.ElemLIDs, err error) {
	if len(l.dir) != 0 {
		return order.ElemLIDs{}, order.ErrNotEmpty
	}
	l.store.BeginOp()
	defer l.store.EndOpInto(&err)
	start, err := l.file.Alloc()
	if err != nil {
		return order.ElemLIDs{}, err
	}
	end, err := l.file.Alloc()
	if err != nil {
		return order.ElemLIDs{}, err
	}
	if err := l.dirInsertBefore(start, order.NilLID); err != nil {
		return order.ElemLIDs{}, err
	}
	if err := l.dirInsertBefore(end, order.NilLID); err != nil {
		return order.ElemLIDs{}, err
	}
	one := new(big.Int).Lsh(big.NewInt(1), uint(l.cfg.K))
	two := new(big.Int).Lsh(big.NewInt(2), uint(l.cfg.K))
	if err := l.putRecord(start, one, one); err != nil {
		return order.ElemLIDs{}, err
	}
	if err := l.putRecord(end, two, one); err != nil {
		return order.ElemLIDs{}, err
	}
	return order.ElemLIDs{Start: start, End: end}, nil
}

// Delete implements order.Labeler.
func (l *Labeler) Delete(lid order.LID) (err error) {
	n, ok := l.dir[lid]
	if !ok {
		return order.ErrUnknownLID
	}
	l.store.BeginOp()
	defer l.store.EndOpInto(&err)
	_, gap, err := l.getRecord(lid)
	if err != nil {
		return err
	}
	if n.next != order.NilLID {
		succLabel, succGap, err := l.getRecord(n.next)
		if err != nil {
			return err
		}
		succGap.Add(succGap, gap)
		if err := l.putRecord(n.next, succLabel, succGap); err != nil {
			return err
		}
	}
	if err := l.file.Free(lid); err != nil {
		return err
	}
	return l.dirRemove(lid)
}

// BulkLoad implements order.Labeler.
func (l *Labeler) BulkLoad(tags []order.Tag) (_ []order.ElemLIDs, err error) {
	if len(l.dir) != 0 {
		return nil, order.ErrNotEmpty
	}
	if err := order.ValidateTagStream(tags); err != nil {
		return nil, err
	}
	if uint64(len(tags)) > (uint64(1) << uint(l.cfg.CapacityBits)) {
		return nil, order.ErrLabelOverflow
	}
	l.store.BeginOp()
	defer l.store.EndOpInto(&err)
	elems := make([]order.ElemLIDs, len(tags)/2)
	gap := new(big.Int).Lsh(big.NewInt(1), uint(l.cfg.K))
	label := new(big.Int)
	for i, t := range tags {
		lid, err := l.file.Alloc()
		if err != nil {
			return nil, err
		}
		if err := l.dirInsertBefore(lid, order.NilLID); err != nil {
			return nil, err
		}
		label.Lsh(big.NewInt(int64(i+1)), uint(l.cfg.K))
		if err := l.putRecord(lid, label, gap); err != nil {
			return nil, err
		}
		if t.Start {
			elems[t.Elem].Start = lid
		} else {
			elems[t.Elem].End = lid
		}
	}
	return elems, nil
}

// InsertSubtreeBefore implements order.Labeler: the new labels are spread
// evenly within the gap preceding lidOld if it is large enough; otherwise a
// global relabeling is performed.
func (l *Labeler) InsertSubtreeBefore(lidOld order.LID, tags []order.Tag) (_ []order.ElemLIDs, err error) {
	if _, ok := l.dir[lidOld]; !ok {
		return nil, order.ErrUnknownLID
	}
	if err := order.ValidateTagStream(tags); err != nil {
		return nil, err
	}
	l.store.BeginOp()
	defer l.store.EndOpInto(&err)

	elems := make([]order.ElemLIDs, len(tags)/2)
	lids := make([]order.LID, len(tags))
	for i, t := range tags {
		lid, err := l.file.Alloc()
		if err != nil {
			return nil, err
		}
		lids[i] = lid
		if t.Start {
			elems[t.Elem].Start = lid
		} else {
			elems[t.Elem].End = lid
		}
	}
	// Link into the directory in order, all before lidOld.
	anchor := lidOld
	for i := len(lids) - 1; i >= 0; i-- {
		if err := l.dirInsertBefore(lids[i], anchor); err != nil {
			return nil, err
		}
		anchor = lids[i]
	}

	oldLabel, oldGap, err := l.getRecord(lidOld)
	if err != nil {
		return nil, err
	}
	n := int64(len(lids))
	if oldGap.Cmp(big.NewInt(n+1)) < 0 {
		if err := l.relabelAll(); err != nil {
			return nil, err
		}
		return elems, nil
	}
	// Evenly spread: label_j = prev + floor(gap*(j+1)/(n+1)).
	prev := new(big.Int).Sub(oldLabel, oldGap)
	lastLabel := new(big.Int).Set(prev)
	for j, lid := range lids {
		off := new(big.Int).Mul(oldGap, big.NewInt(int64(j+1)))
		off.Div(off, big.NewInt(n+1))
		lab := new(big.Int).Add(prev, off)
		g := new(big.Int).Sub(lab, lastLabel)
		if err := l.putRecord(lid, lab, g); err != nil {
			return nil, err
		}
		if lab.IsUint64() {
			l.store.Observer().HeatLabelInsert(lab.Uint64())
		}
		lastLabel.Set(lab)
	}
	newOldGap := new(big.Int).Sub(oldLabel, lastLabel)
	if err := l.putRecord(lidOld, oldLabel, newOldGap); err != nil {
		return nil, err
	}
	return elems, nil
}

// DeleteSubtree implements order.Labeler.
func (l *Labeler) DeleteSubtree(start, end order.LID) (err error) {
	if _, ok := l.dir[start]; !ok {
		return order.ErrUnknownLID
	}
	if _, ok := l.dir[end]; !ok {
		return order.ErrUnknownLID
	}
	l.store.BeginOp()
	defer l.store.EndOpInto(&err)
	// Collect the contiguous range [start, end].
	var toDelete []order.LID
	found := false
	for lid := start; lid != order.NilLID; lid = l.dir[lid].next {
		toDelete = append(toDelete, lid)
		if lid == end {
			found = true
			break
		}
	}
	if !found {
		return errors.New("naive: end does not follow start in document order")
	}
	gapSum := new(big.Int)
	succ := l.dir[end].next
	for _, lid := range toDelete {
		_, gap, err := l.getRecord(lid)
		if err != nil {
			return err
		}
		gapSum.Add(gapSum, gap)
		if err := l.file.Free(lid); err != nil {
			return err
		}
		if err := l.dirRemove(lid); err != nil {
			return err
		}
	}
	if succ != order.NilLID {
		succLabel, succGap, err := l.getRecord(succ)
		if err != nil {
			return err
		}
		succGap.Add(succGap, gapSum)
		if err := l.putRecord(succ, succLabel, succGap); err != nil {
			return err
		}
	}
	return nil
}

// CheckInvariants implements order.Labeler: labels are strictly increasing
// along document order and every gap field equals the distance to the
// previous label.
func (l *Labeler) CheckInvariants() (err error) {
	l.store.BeginOp()
	defer l.store.EndOpInto(&err)
	prev := new(big.Int).SetInt64(0)
	first := true
	count := 0
	for lid := l.head; lid != order.NilLID; lid = l.dir[lid].next {
		label, gap, err := l.getRecord(lid)
		if err != nil {
			return fmt.Errorf("naive: record %d: %w", lid, err)
		}
		if !first && label.Cmp(prev) <= 0 {
			return fmt.Errorf("naive: label of %d (%v) not greater than predecessor (%v)", lid, label, prev)
		}
		want := new(big.Int).Sub(label, prev)
		if gap.Cmp(want) != 0 {
			return fmt.Errorf("naive: gap of %d = %v, want %v", lid, gap, want)
		}
		prev.Set(label)
		first = false
		count++
	}
	if count != len(l.dir) {
		return fmt.Errorf("naive: directory walk found %d records, map holds %d", count, len(l.dir))
	}
	if uint64(count) != l.file.Count() {
		return fmt.Errorf("naive: LIDF holds %d records, directory %d", l.file.Count(), count)
	}
	return nil
}

var _ order.Labeler = (*Labeler)(nil)
