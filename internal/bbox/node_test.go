package bbox

import (
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"boxes/internal/order"
	"boxes/internal/pager"
)

func TestLeafSerializationRoundTrip(t *testing.T) {
	l, _ := newLabeler(t, 512, false, false)
	n, err := l.allocNode(true, 42)
	if err != nil {
		t.Fatal(err)
	}
	n.lids = []order.LID{3, 1, 4, 1, 5, 9}
	if err := l.writeNode(n); err != nil {
		t.Fatal(err)
	}
	got, err := l.readNode(n.blk)
	if err != nil {
		t.Fatal(err)
	}
	if !got.leaf || got.parent != 42 {
		t.Fatalf("header: leaf=%v parent=%d", got.leaf, got.parent)
	}
	if !reflect.DeepEqual(got.lids, n.lids) {
		t.Fatalf("lids = %v", got.lids)
	}
}

func TestInternalSerializationWithAndWithoutSizes(t *testing.T) {
	for _, ordinal := range []bool{false, true} {
		l, _ := newLabeler(t, 512, ordinal, false)
		n, err := l.allocNode(false, 7)
		if err != nil {
			t.Fatal(err)
		}
		n.ents = []entry{{child: 10, size: 100}, {child: 11, size: 200}}
		if err := l.writeNode(n); err != nil {
			t.Fatal(err)
		}
		got, err := l.readNode(n.blk)
		if err != nil {
			t.Fatal(err)
		}
		if got.leaf || got.parent != 7 || len(got.ents) != 2 {
			t.Fatalf("header: %+v", got)
		}
		for i := range n.ents {
			if got.ents[i].child != n.ents[i].child {
				t.Fatalf("child %d = %d", i, got.ents[i].child)
			}
			wantSize := n.ents[i].size
			if !ordinal {
				wantSize = 0 // size fields are not stored without Ordinal
			}
			if got.ents[i].size != wantSize {
				t.Fatalf("ordinal=%v size %d = %d, want %d", ordinal, i, got.ents[i].size, wantSize)
			}
		}
	}
}

func TestWriteNodeRejectsOverflow(t *testing.T) {
	l, _ := newLabeler(t, 512, false, false)
	n, _ := l.allocNode(true, 0)
	n.lids = make([]order.LID, l.p.LeafCap+1)
	if err := l.writeNode(n); err == nil {
		t.Fatal("overflowing leaf accepted")
	}
	m, _ := l.allocNode(false, 0)
	m.ents = make([]entry, l.p.Fanout+1)
	if err := l.writeNode(m); err == nil {
		t.Fatal("overflowing internal node accepted")
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	l, store := newLabeler(t, 512, false, false)
	blk, err := store.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Write(blk, make([]byte, 512)); err != nil {
		t.Fatal(err)
	}
	if _, err := l.readNode(blk); err == nil {
		t.Fatal("decoded a zeroed block")
	}
}

func TestQuickLeafRoundTrip(t *testing.T) {
	l, _ := newLabeler(t, 512, false, false)
	f := func(lids []uint64, parent uint32) bool {
		if len(lids) > l.p.LeafCap {
			lids = lids[:l.p.LeafCap]
		}
		n, err := l.allocNode(true, pager.BlockID(parent))
		if err != nil {
			return false
		}
		for _, v := range lids {
			n.lids = append(n.lids, order.LID(v))
		}
		if err := l.writeNode(n); err != nil {
			return false
		}
		got, err := l.readNode(n.blk)
		if err != nil {
			return false
		}
		// The in-place scan finds what a search of the decoded node finds:
		// the first match's index and the back-link, a stranger rejected.
		raw, err := l.store.Read(n.blk)
		if err != nil {
			return false
		}
		for _, lid := range append(n.lids, 1<<63+1) {
			want := slices.Index(got.lids, lid)
			pos, parent, err := l.scanLeaf(n.blk, raw, lid)
			if want < 0 {
				if !sameErr(err, errRecordMissing(lid, n.blk)) {
					return false
				}
			} else if err != nil || pos != want || parent != got.parent {
				return false
			}
		}
		if len(n.lids) == 0 {
			return len(got.lids) == 0
		}
		return reflect.DeepEqual(got.lids, n.lids) && got.parent == n.parent
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
