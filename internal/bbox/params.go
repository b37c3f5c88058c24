// Package bbox implements B-BOX, the back-linked B-tree for ordering XML
// of Section 5 of the paper, including the ordinal-labeling variant the
// experiments call B-BOX-O.
//
// A B-BOX stores no label values at all. Leaves hold only LIDs; internal
// nodes hold only child pointers (plus optional size fields) and a
// back-link to their parent. The label of a record is the vector of child
// ordinals on the root-to-leaf path, reconstructed bottom-up on demand, and
// exposed packed into a uint64 (fixed bits per component) so that labels
// obtained at the same time compare correctly as integers.
package bbox

import (
	"fmt"
)

// Params holds the structural parameters of a B-BOX.
type Params struct {
	BlockSize int
	// Ordinal maintains per-entry size fields (the paper's B-BOX-O),
	// enabling exact ordinal labels at O(log_B N) update cost.
	Ordinal bool
	// Relaxed lowers the minimum fan-out from B/2 to B/4, the Section 5
	// variant that guarantees O(1) amortized updates under mixed
	// insert/delete workloads at the price of slightly longer labels.
	Relaxed bool

	LeafCap   int // max records per leaf
	Fanout    int // max children per internal node
	MinLeaf   int // min records per non-root leaf
	MinFanout int // min children per non-root internal node

	entStride int  // bytes per internal entry: child(8), plus size(8) with Ordinal
	compBits  uint // bits per label component when packing into a uint64
}

// NewParams derives B-BOX parameters from the block size.
func NewParams(blockSize int, ordinal, relaxed bool) (Params, error) {
	leafCap := (blockSize - nodeHeaderSize) / 8
	entrySize := 8
	if ordinal {
		entrySize = 16
	}
	fanout := (blockSize - nodeHeaderSize) / entrySize
	if leafCap < 8 || fanout < 8 {
		return Params{}, fmt.Errorf("bbox: block size %d too small (leaf cap %d, fan-out %d)", blockSize, leafCap, fanout)
	}
	div := 2
	if relaxed {
		div = 4
	}
	p := Params{
		BlockSize: blockSize,
		Ordinal:   ordinal,
		Relaxed:   relaxed,
		LeafCap:   leafCap,
		Fanout:    fanout,
		MinLeaf:   leafCap / div,
		MinFanout: fanout / div,
		entStride: entrySize,
	}
	maxSlot := leafCap
	if fanout > maxSlot {
		maxSlot = fanout
	}
	for (1 << p.compBits) < maxSlot {
		p.compBits++
	}
	return p, nil
}

// maxPackedHeight is the deepest tree whose labels still pack into 64 bits.
func (p Params) maxPackedHeight() int { return 64 / int(p.compBits) }
