package bbox

import (
	"bytes"
	"reflect"
	"slices"
	"testing"

	"boxes/internal/order"
	"boxes/internal/pager"
)

// FuzzNodeView feeds an arbitrary block image — B-BOX or B-BOX-O at 512 B
// blocks — to every reader of the one layout: header, decodeNode and the
// in-place scanners. Each must return a value or an error, never read out
// of range, and agree with the decoded node; a decoded node must survive
// writeNode and a second decode unchanged. The committed seeds under
// testdata/fuzz are, per variant, a leaf and the root of a bulk-loaded
// tree, with a LID and a child pointer that lead into them.
func FuzzNodeView(f *testing.F) {
	f.Fuzz(func(t *testing.T, ordinal bool, image []byte, lid, child uint64) {
		l, store := newLabeler(t, 512, ordinal, false)
		blk, err := store.Allocate()
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
		pos, parent, serr := l.scanLeaf(blk, buf, order.LID(lid))
		ipos, left, iparent, ierr := l.scanInternal(blk, buf, pager.BlockID(child))
		if err != nil {
			if serr == nil || ierr == nil {
				t.Fatalf("decodeNode rejects the block (%v) but a scanner accepts it", err)
			}
			return
		}

		// scanLeaf is a search of the decoded leaf's LIDs.
		if j := slices.Index(n.lids, order.LID(lid)); j < 0 {
			if !sameErr(serr, errRecordMissing(order.LID(lid), blk)) {
				t.Fatalf("scanLeaf(%d) = %v, want record missing", lid, serr)
			}
		} else if serr != nil || pos != j || parent != n.parent {
			t.Fatalf("scanLeaf(%d) = (%d, %d, %v), decoded node says (%d, %d)", lid, pos, parent, serr, j, n.parent)
		}

		// scanInternal is findChild plus the sizes left of it.
		if j := n.findChild(pager.BlockID(child)); j < 0 {
			if !sameErr(ierr, errChildMissing(pager.BlockID(child), blk)) {
				t.Fatalf("scanInternal(%d) = %v, want child missing", child, ierr)
			}
		} else {
			var want uint64
			for _, e := range n.ents[:j] {
				want += e.size
			}
			if ierr != nil || ipos != j || left != want || iparent != n.parent {
				t.Fatalf("scanInternal(%d) = (%d, %d, %d, %v), decoded node says (%d, %d, %d)", child, ipos, left, iparent, ierr, j, want, n.parent)
			}
		}

		// Decode -> writeNode -> decode is the identity on nodes, and the
		// image writeNode leaves depends on the node alone, not on what the
		// frame held before.
		var images [2][]byte
		for k, fill := range []byte{0, 0xA5} {
			if err := store.Write(blk, bytes.Repeat([]byte{fill}, l.p.BlockSize)); err != nil {
				t.Fatal(err)
			}
			if err := l.writeNode(n); err != nil {
				t.Fatal(err)
			}
			if images[k], err = store.Read(blk); err != nil {
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
