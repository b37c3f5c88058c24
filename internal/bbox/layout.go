package bbox

import (
	"encoding/binary"
	"fmt"

	"boxes/internal/order"
	"boxes/internal/pager"
)

// The B-BOX block codec: the layout is written once, here. decodeNode,
// writeNode and the in-place scanners scanLeaf and scanInternal reach a
// frame's bytes only through the accessors below; no other code does
// offset arithmetic on a block. Integers are little-endian.
//
//	header            [0,16)   type(1) count(2) pad(5) parent(8)
//	leaf record i     at 16 + i·8: lid(8)
//	internal entry i  at 16 + i·8: child(8), or with Ordinal
//	                  at 16 + i·16: child(8) size(8)
//
// A writer encodes every byte — header pad and the tail past the last
// record included — so a block's image depends only on the node it holds.
const (
	nodeTypeLeaf     = 1
	nodeTypeInternal = 2

	nodeHeaderSize = 16
)

var le = binary.LittleEndian

// header decodes and validates the fixed header of a raw block image. Both
// decoders go through it — decodeNode, which materialises the node, and the
// in-place scanners below — so they reject the same blocks with the same
// errors. The count bound keeps every record and entry it admits inside a
// BlockSize frame.
func (l *Labeler) header(blk pager.BlockID, buf []byte) (leaf bool, count int, parent pager.BlockID, err error) {
	count, parent = int(le.Uint16(buf[1:])), pager.BlockID(le.Uint64(buf[8:]))
	switch typ := buf[0]; {
	case typ == nodeTypeLeaf && count > l.p.LeafCap:
		err = fmt.Errorf("bbox: leaf %d holds %d records, cap %d", blk, count, l.p.LeafCap)
	case typ == nodeTypeInternal && count > l.p.Fanout:
		err = fmt.Errorf("bbox: node %d holds %d entries, fan-out %d", blk, count, l.p.Fanout)
	case typ != nodeTypeLeaf && typ != nodeTypeInternal:
		err = fmt.Errorf("bbox: block %d has unknown node type %d", blk, typ)
	}
	return buf[0] == nodeTypeLeaf, count, parent, err
}

func putHeader(buf []byte, typ byte, count int, parent pager.BlockID) {
	buf[0] = typ
	le.PutUint16(buf[1:], uint16(count))
	clear(buf[3:8])
	le.PutUint64(buf[8:], uint64(parent))
}

// recOff and entOff are the offsets of leaf record i and internal entry i.
// The field accessors take a record's or entry's offset and read a slice of
// exactly the field's width, and the scans step the offset by the record or
// entry size: one bounds check and one load per field read.
func recOff(i int) int              { return nodeHeaderSize + i*8 }
func (l *Labeler) entOff(i int) int { return nodeHeaderSize + i*l.p.entStride }

func recLID(b []byte, o int) order.LID       { return order.LID(le.Uint64(b[o : o+8])) }
func entChild(b []byte, o int) pager.BlockID { return pager.BlockID(le.Uint64(b[o : o+8])) }
func entSize(b []byte, o int) uint64         { return le.Uint64(b[o+8 : o+16]) } // Ordinal only

// scanLeaf is the one record search: on the raw image of the block the
// LIDF names for lid it returns the record's index and the leaf's
// back-link.
func (l *Labeler) scanLeaf(blk pager.BlockID, buf []byte, lid order.LID) (pos int, parent pager.BlockID, err error) {
	leaf, count, parent, err := l.header(blk, buf)
	if err != nil {
		return 0, 0, err
	}
	for i, o := 0, nodeHeaderSize; i < count && leaf; i, o = i+1, o+8 {
		if recLID(buf, o) == lid {
			return i, parent, nil
		}
	}
	return 0, 0, errRecordMissing(lid, blk)
}

// scanInternal is findChild on the raw image of an internal node: the index
// of the entry pointing at child, the records below the entries left of it
// (Ordinal only; 0 otherwise) and the node's back-link.
func (l *Labeler) scanInternal(blk pager.BlockID, buf []byte, child pager.BlockID) (pos int, left uint64, parent pager.BlockID, err error) {
	leaf, count, parent, err := l.header(blk, buf)
	if err != nil {
		return 0, 0, 0, err
	}
	for i, o := 0, nodeHeaderSize; i < count && !leaf; i, o = i+1, o+l.p.entStride {
		if entChild(buf, o) == child {
			return i, left, parent, nil
		}
		if l.p.Ordinal {
			left += entSize(buf, o)
		}
	}
	return 0, 0, 0, errChildMissing(child, blk)
}

func (l *Labeler) decodeNode(blk pager.BlockID, buf []byte) (*node, error) {
	leaf, count, parent, err := l.header(blk, buf)
	if err != nil {
		return nil, err
	}
	n := &node{blk: blk, leaf: leaf, parent: parent}
	if leaf {
		n.lids = make([]order.LID, count)
		for i := range n.lids {
			n.lids[i] = recLID(buf, recOff(i))
		}
	} else {
		n.ents = make([]entry, count)
		for i := range n.ents {
			o := l.entOff(i)
			n.ents[i].child = entChild(buf, o)
			if l.p.Ordinal {
				n.ents[i].size = entSize(buf, o)
			}
		}
	}
	return n, nil
}

// writeNode encodes n into its block. Inside an operation Store.Read hands
// back the op's pinned frame, so n is encoded in place and Write only marks
// the frame dirty; outside one Read returns a copy that Write writes
// through.
func (l *Labeler) writeNode(n *node) error {
	if n.leaf && len(n.lids) > l.p.LeafCap {
		return fmt.Errorf("bbox: leaf %d overflow: %d records", n.blk, len(n.lids))
	}
	if !n.leaf && len(n.ents) > l.p.Fanout {
		return fmt.Errorf("bbox: node %d overflow: %d entries", n.blk, len(n.ents))
	}
	buf, err := l.store.Read(n.blk)
	if err != nil {
		return err
	}
	if n.leaf {
		putHeader(buf, nodeTypeLeaf, len(n.lids), n.parent)
		for i, lid := range n.lids {
			o := recOff(i)
			le.PutUint64(buf[o:o+8], uint64(lid))
		}
		clear(buf[recOff(len(n.lids)):])
	} else {
		putHeader(buf, nodeTypeInternal, len(n.ents), n.parent)
		for i := range n.ents {
			o := l.entOff(i)
			le.PutUint64(buf[o:o+8], uint64(n.ents[i].child))
			if l.p.Ordinal {
				le.PutUint64(buf[o+8:o+16], n.ents[i].size)
			}
		}
		clear(buf[l.entOff(len(n.ents)):])
	}
	return l.store.Write(n.blk, buf)
}
