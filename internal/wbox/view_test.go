package wbox

import (
	"encoding/binary"
	"errors"
	"testing"

	"boxes/internal/order"
	"boxes/internal/pager"
)

// Frame poisoning is on for every test of this package: an in-place lookup
// that reads a frame after releasing it returns garbage, not a stale label.
func init() { pager.HookPoisonFrames = true }

func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Error() == b.Error() && errors.Is(a, order.ErrUnknownLID) == errors.Is(b, order.ErrUnknownLID)
}

// refLookup is the materialising read path the in-place lookups replaced:
// leafOf (readNode + findRec + tombstone check) for the label, then descend
// and ordinalAt for the ordinal position.
func refLookup(l *Labeler, lid order.LID) (label, ord uint64, rec record, err error) {
	leaf, idx, err := l.leafOf(lid)
	if err != nil {
		return 0, 0, record{}, err
	}
	label = leaf.lo + uint64(idx)
	path, taken, err := l.descend(label)
	if err != nil {
		return 0, 0, record{}, err
	}
	return label, ordinalAt(path, taken, idx), leaf.recs[idx], nil
}

// churned returns a multi-level tree with tombstones in its leaves.
func churned(t *testing.T, variant Variant) (*Labeler, []order.ElemLIDs) {
	t.Helper()
	l := newLabeler(t, 512, variant, true)
	elems, err := l.BulkLoad(order.TagStreamFromPairs(400))
	if err != nil {
		t.Fatal(err)
	}
	var live []order.ElemLIDs
	for i, e := range elems {
		switch {
		case i == 0:
			live = append(live, e)
		case i%5 == 0:
			if err := l.Delete(e.Start); err != nil {
				t.Fatal(err)
			}
			if err := l.Delete(e.End); err != nil {
				t.Fatal(err)
			}
		case i%7 == 0:
			ne, err := l.InsertElementBefore(e.Start)
			if err != nil {
				t.Fatal(err)
			}
			live = append(live, ne, e)
		default:
			live = append(live, e)
		}
	}
	if l.Height() < 2 {
		t.Fatalf("height %d: the walk has nothing to descend", l.Height())
	}
	return l, live
}

// TestInPlaceLookupsMatchMaterialisedDecoder holds Lookup, LookupPair and
// OrdinalLookup — which scan raw borrowed frames — to the answers of the
// readNode-based path on a churned tree, for every live label.
func TestInPlaceLookupsMatchMaterialisedDecoder(t *testing.T) {
	for _, variant := range []Variant{Basic, PairOptimized} {
		l, live := churned(t, variant)
		for _, e := range live {
			ws, wso, rec, err := refLookup(l, e.Start)
			if err != nil {
				t.Fatal(err)
			}
			we, weo, _, err := refLookup(l, e.End)
			if err != nil {
				t.Fatal(err)
			}
			if got, err := l.Lookup(e.Start); err != nil || got != ws {
				t.Fatalf("variant %d: Lookup(%d) = %d, %v; readNode path says %d", variant, e.Start, got, err, ws)
			}
			if got, err := l.OrdinalLookup(e.Start); err != nil || got != wso {
				t.Fatalf("variant %d: OrdinalLookup(%d) = %d, %v; readNode path says %d", variant, e.Start, got, err, wso)
			}
			if got, err := l.OrdinalLookup(e.End); err != nil || got != weo {
				t.Fatalf("variant %d: OrdinalLookup(%d) = %d, %v; readNode path says %d", variant, e.End, got, err, weo)
			}
			gs, ge, err := l.LookupPair(e.Start, e.End)
			if err != nil || gs != ws || ge != we {
				t.Fatalf("variant %d: LookupPair(%v) = %d, %d, %v; readNode path says %d, %d", variant, e, gs, ge, err, ws, we)
			}
			if variant == PairOptimized && (!rec.isStart || rec.endCopy != we) {
				t.Fatalf("start record of %v does not cache its end label: %+v", e, rec)
			}
		}
	}
}

// TestInPlaceLookupsRejectWhatDecodeNodeRejects corrupts the leaf a label
// lives in — and an internal node above it — in every way the decoders
// check, and requires the in-place lookups to fail exactly as the
// materialising path does.
func TestInPlaceLookupsRejectWhatDecodeNodeRejects(t *testing.T) {
	for _, variant := range []Variant{Basic, PairOptimized} {
		l, live := churned(t, variant)
		e := live[len(live)/2]
		blkU, err := l.file.GetU64(e.Start)
		if err != nil {
			t.Fatal(err)
		}
		leafBlk := pager.BlockID(blkU)
		leaf, idx, err := l.leafOf(e.Start)
		if err != nil {
			t.Fatal(err)
		}
		recOff := nodeHeaderSize + idx*l.p.recSize
		cases := []struct {
			name    string
			blk     pager.BlockID
			corrupt func(buf []byte)
		}{
			{"leaf type unknown", leafBlk, func(b []byte) { b[0] = 9 }},
			{"leaf typed internal at level 0", leafBlk, func(b []byte) { b[0] = nodeTypeInternal }},
			{"leaf typed internal at level 1", leafBlk, func(b []byte) { b[0] = nodeTypeInternal; b[3] = 1; b[1], b[2] = 2, 0 }},
			{"leaf at level 3", leafBlk, func(b []byte) { b[3] = 3 }},
			{"leaf count over cap", leafBlk, func(b []byte) { binary.LittleEndian.PutUint16(b[1:3], uint16(l.p.LeafCap+1)) }},
			{"leaf emptied", leafBlk, func(b []byte) { b[1], b[2] = 0, 0 }},
			{"record missing", leafBlk, func(b []byte) { binary.LittleEndian.PutUint64(b[recOff:], 1<<40) }},
			{"record tombstoned", leafBlk, func(b []byte) { b[recOff+8] |= flagDeleted }},
			{"root type unknown", l.root, func(b []byte) { b[0] = 0 }},
			{"root typed leaf", l.root, func(b []byte) { b[0] = nodeTypeLeaf }},
			{"root at level 0", l.root, func(b []byte) { b[3], b[4] = 0, 0 }},
			{"root count over fan-out", l.root, func(b []byte) { binary.LittleEndian.PutUint16(b[1:3], uint16(l.p.B+1)) }},
			{"root emptied", l.root, func(b []byte) { b[1], b[2] = 0, 0 }},
		}
		for _, c := range cases {
			orig, err := l.store.Read(c.blk)
			if err != nil {
				t.Fatal(err)
			}
			bad := append([]byte(nil), orig...)
			c.corrupt(bad)
			if err := l.store.Write(c.blk, bad); err != nil {
				t.Fatal(err)
			}
			_, _, _, want := refLookup(l, e.Start)
			if want == nil {
				t.Fatalf("%s: the materialising path accepted the block", c.name)
			}
			if c.blk == leafBlk {
				if _, err := l.Lookup(e.Start); !sameErr(err, want) {
					t.Errorf("variant %d, %s: Lookup says %v, readNode path %v", variant, c.name, err, want)
				}
				if _, _, err := l.LookupPair(e.Start, e.End); !sameErr(err, want) {
					t.Errorf("variant %d, %s: LookupPair says %v, readNode path %v", variant, c.name, err, want)
				}
			}
			if _, err := l.OrdinalLookup(e.Start); !sameErr(err, want) {
				t.Errorf("variant %d, %s: OrdinalLookup says %v, readNode path %v", variant, c.name, err, want)
			}
			if err := l.store.Write(c.blk, orig); err != nil {
				t.Fatal(err)
			}
		}
		if got, err := l.Lookup(e.Start); err != nil || got != leaf.lo+uint64(idx) {
			t.Fatalf("restored tree: Lookup = %d, %v", got, err)
		}
		// The LIDF live flag is checked before any tree block is read.
		if err := l.file.Free(e.Start); err != nil {
			t.Fatal(err)
		}
		if _, err := l.Lookup(e.Start); !errors.Is(err, order.ErrUnknownLID) {
			t.Fatalf("lookup of a freed LIDF record: %v", err)
		}
	}
}
