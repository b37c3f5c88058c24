package wbox

import (
	"encoding/binary"
	"fmt"

	"boxes/internal/order"
	"boxes/internal/pager"
)

// The W-BOX block codec: the layout is written once, here. decodeNode,
// writeNode, the in-place scanners scanLeaf and ordinalStep, and
// LookupPair reach a frame's bytes only through the accessors below; no
// other code does offset arithmetic on a block. Integers are
// little-endian.
//
//	header            [0,16)   type(1) count(2) level(2) pad(3) lo(8)
//	leaf record i     at 16 + i·recSize: lid(8) flags(1), and on W-BOX-O
//	                  partnerBlk(8) partnerLID(8) endCopy(8)
//	internal entry i  at 16 + i·26: child(8) weight(8) size(8) slot(2)
//
// A writer encodes every byte — header pad and the tail past the last
// record included — so a block's image depends only on the node it holds.
const (
	nodeTypeLeaf     = 1
	nodeTypeInternal = 2

	flagDeleted = 1 << 0
	flagIsStart = 1 << 1

	nodeHeaderSize   = 16
	intEntrySize     = 26
	leafRecSizeBasic = 9
	leafRecSizePair  = 33
)

var le = binary.LittleEndian

// header decodes and validates the fixed header of a raw block image. Both
// decoders go through it — decodeNode, which materialises the node, and the
// in-place scanners below — so they reject the same blocks with the same
// errors. The count bound keeps every record and entry it admits
// inside a BlockSize frame.
func (l *Labeler) header(blk pager.BlockID, buf []byte) (count int, level uint16, lo uint64, err error) {
	count, level, lo = int(le.Uint16(buf[1:])), le.Uint16(buf[3:]), le.Uint64(buf[8:])
	switch typ := buf[0]; {
	case typ == nodeTypeLeaf && level != 0:
		err = fmt.Errorf("wbox: leaf block %d at level %d", blk, level)
	case typ == nodeTypeLeaf && count > l.p.LeafCap:
		err = fmt.Errorf("wbox: leaf block %d holds %d records, cap %d", blk, count, l.p.LeafCap)
	case typ == nodeTypeInternal && level == 0:
		err = fmt.Errorf("wbox: internal block %d at level 0", blk)
	case typ == nodeTypeInternal && count > l.p.B:
		err = fmt.Errorf("wbox: internal block %d holds %d entries, fan-out %d", blk, count, l.p.B)
	case typ != nodeTypeLeaf && typ != nodeTypeInternal:
		err = fmt.Errorf("wbox: block %d has unknown node type %d", blk, typ)
	}
	return count, level, lo, err
}

func putHeader(buf []byte, typ byte, count int, level uint16, lo uint64) {
	buf[0] = typ
	le.PutUint16(buf[1:], uint16(count))
	le.PutUint16(buf[3:], level)
	clear(buf[5:8])
	le.PutUint64(buf[8:], lo)
}

// recOff and entOff are the offsets of leaf record i and internal entry i.
// The field accessors take a record's or entry's offset and read a slice of
// exactly the field's width, and the scans step the offset by the record or
// entry size: one bounds check and one load per field read.
func (l *Labeler) recOff(i int) int { return nodeHeaderSize + i*l.p.recSize }
func entOff(i int) int              { return nodeHeaderSize + i*intEntrySize }

func recLID(b []byte, o int) order.LID            { return order.LID(le.Uint64(b[o : o+8])) }
func recFlags(b []byte, o int) byte               { return b[o+8] }
func recPartnerBlk(b []byte, o int) pager.BlockID { return pager.BlockID(le.Uint64(b[o+9 : o+17])) }
func recPartnerLID(b []byte, o int) order.LID     { return order.LID(le.Uint64(b[o+17 : o+25])) }
func recEndCopy(b []byte, o int) uint64           { return le.Uint64(b[o+25 : o+33]) }

func entChild(b []byte, o int) pager.BlockID { return pager.BlockID(le.Uint64(b[o : o+8])) }
func entWeight(b []byte, o int) uint64       { return le.Uint64(b[o+8 : o+16]) }
func entSize(b []byte, o int) uint64         { return le.Uint64(b[o+16 : o+24]) }
func entSlot(b []byte, o int) uint16         { return le.Uint16(b[o+24 : o+26]) }

// scanLeaf is the one record search: on the raw image of the block the
// LIDF names for lid it finds the record, rejects a tombstone, and returns
// the leaf's range start and the live record's index.
func (l *Labeler) scanLeaf(blk pager.BlockID, buf []byte, lid order.LID) (lo uint64, idx int, err error) {
	count, level, lo, err := l.header(blk, buf)
	if err != nil {
		return 0, 0, err
	}
	if level != 0 {
		count = 0 // an internal node holds no records
	}
	for i, o := 0, nodeHeaderSize; i < count; i, o = i+1, o+l.p.recSize {
		switch {
		case recLID(buf, o) != lid:
		case recFlags(buf, o)&flagDeleted != 0:
			return 0, 0, order.ErrUnknownLID
		default:
			return lo, i, nil
		}
	}
	return 0, 0, errRecordMissing(lid, blk)
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
		for i, o := 0, nodeHeaderSize; i < idx && i < count; i, o = i+1, o+l.p.recSize {
			if recFlags(buf, o)&flagDeleted == 0 {
				left++
			}
		}
		return left, 0, true, nil
	}
	childLen, ok := l.p.rangeLen(int(level) - 1)
	if !ok {
		return 0, 0, false, order.ErrLabelOverflow
	}
	slot := (label - lo) / childLen // unused when label < lo: no entry is scanned
	for i, o := 0, nodeHeaderSize; i < count && label >= lo; i, o = i+1, o+intEntrySize {
		if uint64(entSlot(buf, o)) == slot {
			return left, entChild(buf, o), false, nil
		}
		left += entSize(buf, o)
	}
	return 0, 0, false, fmt.Errorf("wbox: label %d outside node %d range", label, blk)
}

func (l *Labeler) decodeNode(blk pager.BlockID, buf []byte) (*node, error) {
	count, level, lo, err := l.header(blk, buf)
	if err != nil {
		return nil, err
	}
	n := &node{blk: blk, level: level, lo: lo}
	if level == 0 {
		n.recs = make([]record, count)
		for i := range n.recs {
			o, x := l.recOff(i), &n.recs[i]
			x.lid, x.deleted, x.isStart = recLID(buf, o), recFlags(buf, o)&flagDeleted != 0, recFlags(buf, o)&flagIsStart != 0
			if l.p.Variant == PairOptimized {
				x.partnerBlk, x.partnerLID, x.endCopy = recPartnerBlk(buf, o), recPartnerLID(buf, o), recEndCopy(buf, o)
			}
		}
	} else {
		n.ents = make([]entry, count)
		for i := range n.ents {
			o := entOff(i)
			n.ents[i] = entry{child: entChild(buf, o), weight: entWeight(buf, o), size: entSize(buf, o), slot: entSlot(buf, o)}
		}
	}
	return n, nil
}

// writeNode encodes n into its block. Inside an operation Store.Read hands
// back the op's pinned frame, so n is encoded in place and Write only marks
// the frame dirty; outside one Read returns a copy that Write writes
// through.
func (l *Labeler) writeNode(n *node) error {
	if n.isLeaf() && len(n.recs) > l.p.LeafCap {
		return fmt.Errorf("wbox: leaf %d overflow: %d records", n.blk, len(n.recs))
	}
	if !n.isLeaf() && len(n.ents) > l.p.B {
		return fmt.Errorf("wbox: internal %d overflow: %d entries", n.blk, len(n.ents))
	}
	buf, err := l.store.Read(n.blk)
	if err != nil {
		return err
	}
	if n.isLeaf() {
		putHeader(buf, nodeTypeLeaf, len(n.recs), n.level, n.lo)
		for i := range n.recs {
			o, x := l.recOff(i), &n.recs[i]
			le.PutUint64(buf[o:o+8], uint64(x.lid))
			buf[o+8] = 0
			if x.deleted {
				buf[o+8] |= flagDeleted
			}
			if x.isStart {
				buf[o+8] |= flagIsStart
			}
			if l.p.Variant == PairOptimized {
				le.PutUint64(buf[o+9:o+17], uint64(x.partnerBlk))
				le.PutUint64(buf[o+17:o+25], uint64(x.partnerLID))
				le.PutUint64(buf[o+25:o+33], x.endCopy)
			}
		}
		clear(buf[l.recOff(len(n.recs)):])
	} else {
		putHeader(buf, nodeTypeInternal, len(n.ents), n.level, n.lo)
		for i := range n.ents {
			o, x := entOff(i), &n.ents[i]
			le.PutUint64(buf[o:o+8], uint64(x.child))
			le.PutUint64(buf[o+8:o+16], x.weight)
			le.PutUint64(buf[o+16:o+24], x.size)
			le.PutUint16(buf[o+24:o+26], x.slot)
		}
		clear(buf[entOff(len(n.ents)):])
	}
	return l.store.Write(n.blk, buf)
}
