package bbox

import (
	"encoding/binary"
	"fmt"

	"boxes/internal/order"
	"boxes/internal/pager"
)

const (
	nodeTypeLeaf     = 1
	nodeTypeInternal = 2
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

// findLID returns the index of lid in a leaf, or -1.
func (n *node) findLID(lid order.LID) int {
	for i, l := range n.lids {
		if l == lid {
			return i
		}
	}
	return -1
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

func (l *Labeler) readNode(blk pager.BlockID) (*node, error) {
	buf, err := l.store.Read(blk)
	if err != nil {
		return nil, err
	}
	return l.decodeNode(blk, buf)
}

// header decodes and validates the fixed header of a raw block image. Both
// decoders go through it — decodeNode, which materialises the node, and the
// in-place walk of view.go — so they reject the same blocks with the same
// errors.
func (l *Labeler) header(blk pager.BlockID, buf []byte) (leaf bool, count int, parent pager.BlockID, err error) {
	count = int(binary.LittleEndian.Uint16(buf[1:3]))
	parent = pager.BlockID(binary.LittleEndian.Uint64(buf[8:16]))
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

func (l *Labeler) decodeNode(blk pager.BlockID, buf []byte) (*node, error) {
	leaf, count, parent, err := l.header(blk, buf)
	if err != nil {
		return nil, err
	}
	n := &node{blk: blk, leaf: leaf, parent: parent}
	off := nodeHeaderSize
	if leaf {
		n.lids = make([]order.LID, count)
		for i := 0; i < count; i++ {
			n.lids[i] = order.LID(binary.LittleEndian.Uint64(buf[off : off+8]))
			off += 8
		}
	} else {
		n.ents = make([]entry, count)
		for i := 0; i < count; i++ {
			n.ents[i].child = pager.BlockID(binary.LittleEndian.Uint64(buf[off : off+8]))
			off += 8
			if l.p.Ordinal {
				n.ents[i].size = binary.LittleEndian.Uint64(buf[off : off+8])
				off += 8
			}
		}
	}
	return n, nil
}

func (l *Labeler) writeNode(n *node) error {
	buf := make([]byte, l.p.BlockSize)
	if n.leaf {
		buf[0] = nodeTypeLeaf
		binary.LittleEndian.PutUint16(buf[1:3], uint16(len(n.lids)))
	} else {
		buf[0] = nodeTypeInternal
		binary.LittleEndian.PutUint16(buf[1:3], uint16(len(n.ents)))
	}
	binary.LittleEndian.PutUint64(buf[8:16], uint64(n.parent))
	off := nodeHeaderSize
	if n.leaf {
		if len(n.lids) > l.p.LeafCap {
			return fmt.Errorf("bbox: leaf %d overflow: %d records", n.blk, len(n.lids))
		}
		for _, lid := range n.lids {
			binary.LittleEndian.PutUint64(buf[off:off+8], uint64(lid))
			off += 8
		}
	} else {
		if len(n.ents) > l.p.Fanout {
			return fmt.Errorf("bbox: node %d overflow: %d entries", n.blk, len(n.ents))
		}
		for i := range n.ents {
			binary.LittleEndian.PutUint64(buf[off:off+8], uint64(n.ents[i].child))
			off += 8
			if l.p.Ordinal {
				binary.LittleEndian.PutUint64(buf[off:off+8], n.ents[i].size)
				off += 8
			}
		}
	}
	return l.store.Write(n.blk, buf)
}

func (l *Labeler) allocNode(leaf bool, parent pager.BlockID) (*node, error) {
	blk, err := l.store.Allocate()
	if err != nil {
		return nil, err
	}
	return &node{blk: blk, leaf: leaf, parent: parent}, nil
}
