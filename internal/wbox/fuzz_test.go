package wbox

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"boxes/internal/order"
)

// FuzzNodeView feeds an arbitrary block image — W-BOX or W-BOX-O at 512 B
// blocks — to every reader of the one layout: header, decodeNode and the
// in-place scanners. Each must return a value or an error, never read out
// of range, and agree with the decoded node; a decoded node must survive
// writeNode and a second decode unchanged. The committed seeds under
// testdata/fuzz are, per variant, a leaf and the root of a 300-element
// bulk-loaded tree, with a LID and a label that lead into them.
func FuzzNodeView(f *testing.F) {
	f.Fuzz(func(t *testing.T, pair bool, image []byte, lid, label uint64, idx uint16) {
		variant := Basic
		if pair {
			variant = PairOptimized
		}
		l := newLabeler(t, 512, variant, true)
		blk, err := l.store.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, l.p.BlockSize)
		copy(buf, image)
		_, _, _, herr := l.header(blk, buf)
		n, err := l.decodeNode(blk, buf)
		if (err == nil) != (herr == nil) {
			t.Fatalf("header error %v, decodeNode error %v", herr, err)
		}
		lo, i, serr := l.scanLeaf(blk, buf, order.LID(lid))
		left, next, done, oerr := l.ordinalStep(blk, buf, label, int(idx))
		if err != nil {
			if serr == nil || oerr == nil {
				t.Fatalf("decodeNode rejects the block (%v) but a scanner accepts it", err)
			}
			return
		}

		// scanLeaf is findRec plus the tombstone check on the decoded node.
		switch j := n.findRec(order.LID(lid)); {
		case j < 0:
			if !sameErr(serr, errRecordMissing(order.LID(lid), blk)) {
				t.Fatalf("scanLeaf(%d) = %v, want record missing", lid, serr)
			}
		case n.recs[j].deleted:
			if !errors.Is(serr, order.ErrUnknownLID) {
				t.Fatalf("scanLeaf(%d) on a tombstone = %v", lid, serr)
			}
		case serr != nil || lo != n.lo || i != j:
			t.Fatalf("scanLeaf(%d) = (%d, %d, %v), decoded node says (%d, %d)", lid, lo, i, serr, n.lo, j)
		}

		// ordinalStep is one level of the materialising walk.
		if n.isLeaf() {
			var want uint64
			for j := 0; j < int(idx) && j < len(n.recs); j++ {
				if !n.recs[j].deleted {
					want++
				}
			}
			if oerr != nil || !done || left != want {
				t.Fatalf("ordinalStep on a leaf = (%d, %v, %v), want %d", left, done, oerr, want)
			}
		} else if childLen, ok := l.p.rangeLen(int(n.level) - 1); !ok {
			if !errors.Is(oerr, order.ErrLabelOverflow) {
				t.Fatalf("ordinalStep past the label space = %v", oerr)
			}
		} else if ci := n.childIndexByLabel(label, childLen); ci < 0 {
			if oerr == nil {
				t.Fatalf("ordinalStep(%d) found a child the decoded node has not", label)
			}
		} else {
			var want uint64
			for _, e := range n.ents[:ci] {
				want += e.size
			}
			if oerr != nil || done || next != n.ents[ci].child || left != want {
				t.Fatalf("ordinalStep(%d) = (%d, %d, %v, %v), want (%d, %d)", label, left, next, done, oerr, want, n.ents[ci].child)
			}
		}

		// Decode -> writeNode -> decode is the identity on nodes, and the
		// image writeNode leaves depends on the node alone, not on what the
		// frame held before.
		var images [2][]byte
		for k, fill := range []byte{0, 0xA5} {
			if err := l.store.Write(blk, bytes.Repeat([]byte{fill}, l.p.BlockSize)); err != nil {
				t.Fatal(err)
			}
			if err := l.writeNode(n); err != nil {
				t.Fatal(err)
			}
			if images[k], err = l.store.Read(blk); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(images[0], images[1]) {
			t.Fatal("writeNode left bytes of the frame's old contents behind")
		}
		again, err := l.readNode(blk)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(again, n) {
			t.Fatalf("round trip changed the node:\n got %+v\nwant %+v", again, n)
		}
	})
}
