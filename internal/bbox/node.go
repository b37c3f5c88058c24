package bbox

import (
	"boxes/internal/order"
	"boxes/internal/pager"
)

// entry is one child entry of an internal node.
type entry struct {
	child pager.BlockID
	size  uint64 // records below child (maintained only with Ordinal)
}

// node is the in-memory image of one B-BOX block.
type node struct {
	blk    pager.BlockID
	leaf   bool
	parent pager.BlockID // back-link; NilBlock at the root

	lids []order.LID // leaf records
	ents []entry     // internal entries
}

func (n *node) count() int {
	if n.leaf {
		return len(n.lids)
	}
	return len(n.ents)
}

// findChild returns the index of the entry pointing at child, or -1.
func (n *node) findChild(child pager.BlockID) int {
	for i := range n.ents {
		if n.ents[i].child == child {
			return i
		}
	}
	return -1
}

// size reports the number of records in n's subtree, from the in-memory
// image (entry size fields for internal nodes).
func (n *node) size() uint64 {
	if n.leaf {
		return uint64(len(n.lids))
	}
	var s uint64
	for i := range n.ents {
		s += n.ents[i].size
	}
	return s
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

func (l *Labeler) allocNode(leaf bool, parent pager.BlockID) (*node, error) {
	blk, err := l.store.Allocate()
	if err != nil {
		return nil, err
	}
	return &node{blk: blk, leaf: leaf, parent: parent}, nil
}
