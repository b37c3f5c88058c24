package wbox

import (
	"reflect"
	"testing"
	"testing/quick"

	"boxes/internal/order"
	"boxes/internal/pager"
)

// roundTrip writes a node and decodes it back through the block layer.
func roundTrip(t *testing.T, l *Labeler, n *node) *node {
	t.Helper()
	if err := l.writeNode(n); err != nil {
		t.Fatal(err)
	}
	out, err := l.readNode(n.blk)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestLeafSerializationRoundTrip(t *testing.T) {
	for _, variant := range []Variant{Basic, PairOptimized} {
		l := newLabeler(t, 512, variant, true)
		n, err := l.allocNode(0, 12345)
		if err != nil {
			t.Fatal(err)
		}
		n.recs = []record{
			{lid: 7, isStart: true, partnerBlk: 9, partnerLID: 8, endCopy: 4242},
			{lid: 8, partnerBlk: 9, partnerLID: 7},
			{deleted: true}, // tombstone: lid zeroed
			{lid: 11},
		}
		got := roundTrip(t, l, n)
		if got.lo != n.lo || got.level != 0 {
			t.Fatalf("header: lo=%d level=%d", got.lo, got.level)
		}
		if len(got.recs) != len(n.recs) {
			t.Fatalf("recs = %d", len(got.recs))
		}
		for i := range n.recs {
			want := n.recs[i]
			if variant == Basic {
				// Partner fields are not stored in the basic format.
				want.partnerBlk, want.partnerLID, want.endCopy = 0, 0, 0
			}
			if !reflect.DeepEqual(got.recs[i], want) {
				t.Fatalf("variant %d rec %d = %+v, want %+v", variant, i, got.recs[i], want)
			}
		}
	}
}

func TestInternalSerializationRoundTrip(t *testing.T) {
	l := newLabeler(t, 512, Basic, true)
	n, err := l.allocNode(3, 999)
	if err != nil {
		t.Fatal(err)
	}
	n.ents = []entry{
		{child: 4, weight: 100, size: 90, slot: 0},
		{child: 5, weight: 200, size: 180, slot: 7},
		{child: 6, weight: 50, size: 50, slot: 17},
	}
	got := roundTrip(t, l, n)
	if got.level != 3 || got.lo != 999 {
		t.Fatalf("header: level=%d lo=%d", got.level, got.lo)
	}
	if !reflect.DeepEqual(got.ents, n.ents) {
		t.Fatalf("ents = %+v", got.ents)
	}
}

func TestWriteNodeRejectsOverflow(t *testing.T) {
	l := newLabeler(t, 512, Basic, false)
	n, _ := l.allocNode(0, 0)
	n.recs = make([]record, l.p.LeafCap+1)
	if err := l.writeNode(n); err == nil {
		t.Fatal("overflowing leaf accepted")
	}
	m, _ := l.allocNode(1, 0)
	m.ents = make([]entry, l.p.B+1)
	if err := l.writeNode(m); err == nil {
		t.Fatal("overflowing internal node accepted")
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	l := newLabeler(t, 512, Basic, false)
	blk, err := l.store.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	// Freshly allocated zeroed block: type byte 0 is invalid.
	if err := l.store.Write(blk, make([]byte, 512)); err != nil {
		t.Fatal(err)
	}
	if _, err := l.readNode(blk); err == nil {
		t.Fatal("decoded a zeroed block")
	}
}

// Property: arbitrary leaf contents survive the serialization round trip.
func TestQuickLeafRoundTrip(t *testing.T) {
	l := newLabeler(t, 512, PairOptimized, false)
	f := func(lids []uint64, flags []bool) bool {
		if len(lids) > l.p.LeafCap {
			lids = lids[:l.p.LeafCap]
		}
		n, err := l.allocNode(0, 77)
		if err != nil {
			return false
		}
		for i, v := range lids {
			r := record{lid: order.LID(v), deleted: v%5 == 0}
			if i < len(flags) && flags[i] {
				r.isStart = true
				r.partnerBlk = pager.BlockID(v + 1)
				r.partnerLID = order.LID(v + 2)
				r.endCopy = v + 3
			}
			n.recs = append(n.recs, r)
		}
		if err := l.writeNode(n); err != nil {
			return false
		}
		got, err := l.readNode(n.blk)
		if err != nil {
			return false
		}
		// The in-place scan finds what findRec finds on the decoded node:
		// same index for every stored LID (the first match), a tombstone
		// and a stranger rejected alike.
		raw, err := l.store.Read(n.blk)
		if err != nil {
			return false
		}
		for _, r := range append(n.recs, record{lid: 1<<63 + 1}) {
			want := got.findRec(r.lid)
			lo, idx, err := l.scanLeaf(n.blk, raw, r.lid)
			switch {
			case want < 0:
				if !sameErr(err, errRecordMissing(r.lid, n.blk)) {
					return false
				}
			case got.recs[want].deleted:
				if err != order.ErrUnknownLID {
					return false
				}
			case err != nil || idx != want || lo != got.lo:
				return false
			}
		}
		if len(n.recs) == 0 {
			return len(got.recs) == 0
		}
		return reflect.DeepEqual(got.recs, n.recs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
