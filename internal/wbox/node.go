package wbox

import (
	"boxes/internal/order"
	"boxes/internal/pager"
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

// readNode decodes block blk, read in a read op of its own: inside an
// update that is the update's pins, outside one (the health and fsck
// walks, which visit each node once) a frame released after decoding.
func (l *Labeler) readNode(blk pager.BlockID) (*node, error) {
	r := l.store.BeginRead()
	defer r.End()
	buf, err := r.View(blk)
	if err != nil {
		return nil, err
	}
	return l.decodeNode(blk, buf)
}

func (l *Labeler) allocNode(level uint16, lo uint64) (*node, error) {
	blk, err := l.store.Allocate()
	if err != nil {
		return nil, err
	}
	return &node{blk: blk, level: level, lo: lo}, nil
}
