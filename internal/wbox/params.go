// Package wbox implements W-BOX, the weight-balanced B-tree for ordering
// XML of Section 4 of the paper, together with its W-BOX-O variant
// (optimized for retrieving start/end label pairs) and optional ordinal
// labeling support.
//
// Labels are stored implicitly: every node carries the low end of its
// assigned range, each child entry carries the subrange slot assigned to
// the child, and within a leaf the i-th record's label is lo+i (the
// "labeling within each leaf is ordinal" requirement of Section 6, which
// costs nothing and makes update logging effective). Relabeling a subtree
// therefore rewrites one word per node, but still touches every block below
// the subtree root, so the I/O costs are exactly the paper's.
package wbox

import (
	"fmt"
)

// Variant selects the leaf record format.
type Variant int

const (
	// Basic is the plain W-BOX of Section 4.
	Basic Variant = iota
	// PairOptimized is W-BOX-O: each start record additionally stores a
	// pointer to the block holding its end record and a copy of the end
	// label, so that both labels of an element are retrieved with a
	// single W-BOX I/O.
	PairOptimized
)

// Params holds the derived structural parameters of a W-BOX.
//
// Following Section 4: b is the maximum internal fan-out dictated by the
// block size; the branching parameter a is the largest value satisfying
// 2a+3+ceil(8/(a-2)) <= b; the leaf parameter k is chosen so that 2k-1 is
// the number of leaf records a block can hold. A node at level i (leaves at
// level 0) must have weight strictly less than 2·a^i·k, and (unless it is
// the root) strictly greater than a^i·k − 2·a^{i−1}·k.
type Params struct {
	BlockSize int
	Variant   Variant
	Ordinal   bool // maintain size fields for ordinal labeling

	B         int    // max internal fan-out (the paper's b)
	A         int    // branching parameter (the paper's a)
	K         int    // leaf parameter (the paper's k)
	LeafCap   int    // 2K-1, max records per leaf
	LeafRange uint64 // length of the range assigned to a leaf (= LeafCap)

	recSize int
}

// NewParams derives W-BOX parameters from the block size and variant.
func NewParams(blockSize int, variant Variant, ordinal bool) (Params, error) {
	recSize := leafRecSizeBasic
	if variant == PairOptimized {
		recSize = leafRecSizePair
	}
	b := (blockSize - nodeHeaderSize) / intEntrySize
	leafCap := (blockSize - nodeHeaderSize) / recSize
	if leafCap%2 == 0 {
		leafCap-- // LeafCap = 2K-1 must be odd
	}
	k := (leafCap + 1) / 2
	a := 0
	for cand := 3; 2*cand+3+ceilDiv(8, cand-2) <= b; cand++ {
		a = cand
	}
	if a < 3 || k < 4 {
		return Params{}, fmt.Errorf("wbox: block size %d too small (b=%d, k=%d)", blockSize, b, k)
	}
	return Params{
		BlockSize: blockSize,
		Variant:   variant,
		Ordinal:   ordinal,
		B:         b,
		A:         a,
		K:         k,
		LeafCap:   leafCap,
		LeafRange: uint64(leafCap),
		recSize:   recSize,
	}, nil
}

func ceilDiv(x, y int) int { return (x + y - 1) / y }

// weightLimit returns 2·a^level·k, the exclusive upper weight bound for a
// node at the given level. The second result is false on overflow.
func (p Params) weightLimit(level int) (uint64, bool) {
	w := uint64(2) * uint64(p.K)
	for i := 0; i < level; i++ {
		next := w * uint64(p.A)
		if next/uint64(p.A) != w {
			return 0, false
		}
		w = next
	}
	return w, true
}

// weightMin returns the exclusive lower weight bound a^level·k −
// 2·a^{level−1}·k for a non-root node at the given level (0 for leaves of
// a single-leaf tree).
func (p Params) weightMin(level int) uint64 {
	if level == 0 {
		// a^0·k − 2·a^{−1}·k = k − 2k/a.
		return uint64(p.K) - 2*uint64(p.K)/uint64(p.A)
	}
	ai1 := uint64(1) // a^{level-1}
	for i := 0; i < level-1; i++ {
		ai1 *= uint64(p.A)
	}
	return ai1*uint64(p.A)*uint64(p.K) - 2*ai1*uint64(p.K)
}

// rangeLen returns the length of the range assigned to a node at the given
// level: LeafRange · b^level. The second result is false on overflow.
func (p Params) rangeLen(level int) (uint64, bool) {
	r := p.LeafRange
	for i := 0; i < level; i++ {
		next := r * uint64(p.B)
		if next/uint64(p.B) != r {
			return 0, false
		}
		r = next
	}
	return r, true
}
