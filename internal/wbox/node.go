package wbox

import (
	"encoding/binary"
	"fmt"

	"boxes/internal/order"
	"boxes/internal/pager"
)

const (
	nodeTypeLeaf     = 1
	nodeTypeInternal = 2

	flagDeleted = 1 << 0
	flagIsStart = 1 << 1
)

// record is one leaf entry: the label's LID plus, in the PairOptimized
// variant, the partner linkage and (for start records) the cached end
// label. The record's label value is implicit: leaf.lo + record index.
type record struct {
	lid     order.LID
	deleted bool
	isStart bool // PairOptimized only

	partnerBlk pager.BlockID // PairOptimized: block holding the partner record
	partnerLID order.LID     // PairOptimized: LID of the partner record
	endCopy    uint64        // PairOptimized, start records: current end label
}

// entry is one child entry of an internal node.
type entry struct {
	child  pager.BlockID
	weight uint64 // leaf records (including tombstones) below child
	size   uint64 // live leaf records below child (ordinal support)
	slot   uint16 // subrange index within the parent's range
}

// node is the in-memory image of one W-BOX block.
type node struct {
	blk   pager.BlockID
	level uint16 // 0 = leaf
	lo    uint64 // low end of the node's assigned range

	recs []record // leaf
	ents []entry  // internal
}

func (n *node) isLeaf() bool { return n.level == 0 }

// weight computes the node's weight from its contents: record count for a
// leaf, sum of entry weights for an internal node.
func (n *node) weight() uint64 {
	if n.isLeaf() {
		return uint64(len(n.recs))
	}
	var w uint64
	for i := range n.ents {
		w += n.ents[i].weight
	}
	return w
}

// size computes the number of live records below the node.
func (n *node) size() uint64 {
	if n.isLeaf() {
		var s uint64
		for i := range n.recs {
			if !n.recs[i].deleted {
				s++
			}
		}
		return s
	}
	var s uint64
	for i := range n.ents {
		s += n.ents[i].size
	}
	return s
}

// findRec returns the index of the record with the given LID, or -1.
func (n *node) findRec(lid order.LID) int {
	for i := range n.recs {
		if n.recs[i].lid == lid {
			return i
		}
	}
	return -1
}

// findTombstone returns the index of a deleted record, or -1.
func (n *node) findTombstone() int {
	for i := range n.recs {
		if n.recs[i].deleted {
			return i
		}
	}
	return -1
}

// childIndexByLabel returns the index of the entry whose assigned subrange
// contains the given label. childLen is the subrange length at this node.
func (n *node) childIndexByLabel(label uint64, childLen uint64) int {
	if label < n.lo {
		return -1
	}
	slot := (label - n.lo) / childLen
	for i := range n.ents {
		if uint64(n.ents[i].slot) == slot {
			return i
		}
	}
	return -1
}

func (l *Labeler) readNode(blk pager.BlockID) (*node, error) {
	buf, err := l.store.Read(blk)
	if err != nil {
		return nil, err
	}
	return l.decodeNode(blk, buf)
}

// header decodes and validates the fixed header of a raw block image. Both
// decoders go through it — decodeNode, which materialises the node, and the
// in-place lookups of view.go — so they reject the same blocks with the
// same errors.
func (l *Labeler) header(blk pager.BlockID, buf []byte) (count int, level uint16, lo uint64, err error) {
	count = int(binary.LittleEndian.Uint16(buf[1:3]))
	level = binary.LittleEndian.Uint16(buf[3:5])
	lo = binary.LittleEndian.Uint64(buf[8:16])
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

func (l *Labeler) decodeNode(blk pager.BlockID, buf []byte) (*node, error) {
	count, level, lo, err := l.header(blk, buf)
	if err != nil {
		return nil, err
	}
	n := &node{blk: blk, level: level, lo: lo}
	if level == 0 {
		n.recs = make([]record, count)
		off := nodeHeaderSize
		for i := 0; i < count; i++ {
			r := &n.recs[i]
			r.lid = order.LID(binary.LittleEndian.Uint64(buf[off : off+8]))
			flags := buf[off+8]
			r.deleted = flags&flagDeleted != 0
			r.isStart = flags&flagIsStart != 0
			if l.p.Variant == PairOptimized {
				r.partnerBlk = pager.BlockID(binary.LittleEndian.Uint64(buf[off+9 : off+17]))
				r.partnerLID = order.LID(binary.LittleEndian.Uint64(buf[off+17 : off+25]))
				r.endCopy = binary.LittleEndian.Uint64(buf[off+25 : off+33])
			}
			off += l.p.recSize
		}
	} else {
		n.ents = make([]entry, count)
		off := nodeHeaderSize
		for i := 0; i < count; i++ {
			e := &n.ents[i]
			e.child = pager.BlockID(binary.LittleEndian.Uint64(buf[off : off+8]))
			e.weight = binary.LittleEndian.Uint64(buf[off+8 : off+16])
			e.size = binary.LittleEndian.Uint64(buf[off+16 : off+24])
			e.slot = binary.LittleEndian.Uint16(buf[off+24 : off+26])
			off += intEntrySize
		}
	}
	return n, nil
}

func (l *Labeler) writeNode(n *node) error {
	buf := make([]byte, l.p.BlockSize)
	if n.isLeaf() {
		buf[0] = nodeTypeLeaf
		binary.LittleEndian.PutUint16(buf[1:3], uint16(len(n.recs)))
	} else {
		buf[0] = nodeTypeInternal
		binary.LittleEndian.PutUint16(buf[1:3], uint16(len(n.ents)))
	}
	binary.LittleEndian.PutUint16(buf[3:5], n.level)
	binary.LittleEndian.PutUint64(buf[8:16], n.lo)
	off := nodeHeaderSize
	if n.isLeaf() {
		if len(n.recs) > l.p.LeafCap {
			return fmt.Errorf("wbox: leaf %d overflow: %d records", n.blk, len(n.recs))
		}
		for i := range n.recs {
			r := &n.recs[i]
			binary.LittleEndian.PutUint64(buf[off:off+8], uint64(r.lid))
			var flags byte
			if r.deleted {
				flags |= flagDeleted
			}
			if r.isStart {
				flags |= flagIsStart
			}
			buf[off+8] = flags
			if l.p.Variant == PairOptimized {
				binary.LittleEndian.PutUint64(buf[off+9:off+17], uint64(r.partnerBlk))
				binary.LittleEndian.PutUint64(buf[off+17:off+25], uint64(r.partnerLID))
				binary.LittleEndian.PutUint64(buf[off+25:off+33], r.endCopy)
			}
			off += l.p.recSize
		}
	} else {
		if len(n.ents) > l.p.B {
			return fmt.Errorf("wbox: internal %d overflow: %d entries", n.blk, len(n.ents))
		}
		for i := range n.ents {
			e := &n.ents[i]
			binary.LittleEndian.PutUint64(buf[off:off+8], uint64(e.child))
			binary.LittleEndian.PutUint64(buf[off+8:off+16], e.weight)
			binary.LittleEndian.PutUint64(buf[off+16:off+24], e.size)
			binary.LittleEndian.PutUint16(buf[off+24:off+26], e.slot)
			off += intEntrySize
		}
	}
	return l.store.Write(n.blk, buf)
}

func (l *Labeler) allocNode(level uint16, lo uint64) (*node, error) {
	blk, err := l.store.Allocate()
	if err != nil {
		return nil, err
	}
	return &node{blk: blk, level: level, lo: lo}, nil
}
