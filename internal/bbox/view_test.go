package bbox

import (
	"encoding/binary"
	"testing"

	"boxes/internal/order"
	"boxes/internal/pager"
)

// Frame poisoning is on for every test of this package: an in-place walk
// that reads a frame after releasing it returns garbage, not a stale label.
func init() { pager.HookPoisonFrames = true }

func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Error() == b.Error()
}

// refLookup is the materialising read path the in-place walk replaced:
// pathOf (readNode + findLID/findChild per level), packSteps for the label
// and the size fields left of the path for the ordinal position.
func refLookup(l *Labeler, lid order.LID) (label order.Label, ord uint64, err error) {
	steps, err := l.pathOf(lid)
	if err != nil {
		return 0, 0, err
	}
	ord = uint64(steps[0].pos)
	for _, s := range steps[1:] {
		for j := 0; j < s.pos; j++ {
			ord += s.n.ents[j].size
		}
	}
	label, err = l.packSteps(steps)
	return label, ord, err
}

// churned returns a three-level tree that has seen deletes and inserts.
func churned(t *testing.T, ordinal, relaxed bool) (*Labeler, []order.ElemLIDs) {
	t.Helper()
	l, _ := newLabeler(t, 512, ordinal, relaxed)
	elems, err := l.BulkLoad(order.TagStreamFromPairs(2500))
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
	if l.Height() < 3 {
		t.Fatalf("height %d: want a walk through two internal levels", l.Height())
	}
	return l, live
}

// TestInPlaceLookupsMatchMaterialisedDecoder holds Lookup, LookupPair and
// OrdinalLookup — which climb through raw borrowed frames, one at a time —
// to the answers of the readNode-based path, for every live label.
func TestInPlaceLookupsMatchMaterialisedDecoder(t *testing.T) {
	variants(t, func(t *testing.T, l0 *Labeler, _ *pager.Store) {
		l, live := churned(t, l0.p.Ordinal, l0.p.Relaxed)
		for _, e := range live {
			ws, wso, err := refLookup(l, e.Start)
			if err != nil {
				t.Fatal(err)
			}
			we, _, err := refLookup(l, e.End)
			if err != nil {
				t.Fatal(err)
			}
			if got, err := l.Lookup(e.Start); err != nil || got != ws {
				t.Fatalf("Lookup(%d) = %d, %v; readNode path says %d", e.Start, got, err, ws)
			}
			gs, ge, err := l.LookupPair(e.Start, e.End)
			if err != nil || gs != ws || ge != we {
				t.Fatalf("LookupPair(%v) = %d, %d, %v; readNode path says %d, %d", e, gs, ge, err, ws, we)
			}
			if !l.p.Ordinal {
				continue
			}
			if got, err := l.OrdinalLookup(e.Start); err != nil || got != wso {
				t.Fatalf("OrdinalLookup(%d) = %d, %v; readNode path says %d", e.Start, got, err, wso)
			}
		}
	})
}

// TestInPlaceLookupsRejectWhatDecodeNodeRejects corrupts the leaf a label
// lives in and the internal node above it in every way the decoders check,
// and requires the in-place walk to fail exactly as pathOf does.
func TestInPlaceLookupsRejectWhatDecodeNodeRejects(t *testing.T) {
	variants(t, func(t *testing.T, l0 *Labeler, _ *pager.Store) {
		l, live := churned(t, l0.p.Ordinal, l0.p.Relaxed)
		e := live[len(live)/2]
		steps, err := l.pathOf(e.Start)
		if err != nil {
			t.Fatal(err)
		}
		leafBlk, parentBlk := steps[0].n.blk, steps[1].n.blk
		recOff := nodeHeaderSize + steps[0].pos*8
		stride := 8
		if l.p.Ordinal {
			stride = 16
		}
		entOff := nodeHeaderSize + steps[1].pos*stride
		cases := []struct {
			name    string
			blk     pager.BlockID
			corrupt func(buf []byte)
		}{
			{"leaf type unknown", leafBlk, func(b []byte) { b[0] = 0 }},
			{"leaf typed internal", leafBlk, func(b []byte) { b[0] = nodeTypeInternal; b[1], b[2] = 2, 0 }},
			{"leaf count over cap", leafBlk, func(b []byte) { binary.LittleEndian.PutUint16(b[1:3], uint16(l.p.LeafCap+1)) }},
			{"leaf emptied", leafBlk, func(b []byte) { b[1], b[2] = 0, 0 }},
			{"record missing", leafBlk, func(b []byte) { binary.LittleEndian.PutUint64(b[recOff:], 1<<40) }},
			{"parent type unknown", parentBlk, func(b []byte) { b[0] = 7 }},
			{"parent typed leaf", parentBlk, func(b []byte) { b[0] = nodeTypeLeaf }},
			{"parent count over fan-out", parentBlk, func(b []byte) { binary.LittleEndian.PutUint16(b[1:3], uint16(l.p.Fanout+1)) }},
			{"parent emptied", parentBlk, func(b []byte) { b[1], b[2] = 0, 0 }},
			{"child pointer missing", parentBlk, func(b []byte) { binary.LittleEndian.PutUint64(b[entOff:], 1<<40) }},
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
			_, _, want := refLookup(l, e.Start)
			if want == nil {
				t.Fatalf("%s: the materialising path accepted the block", c.name)
			}
			if _, err := l.Lookup(e.Start); !sameErr(err, want) {
				t.Errorf("%s: Lookup says %v, readNode path %v", c.name, err, want)
			}
			if _, _, err := l.LookupPair(e.Start, e.End); !sameErr(err, want) {
				t.Errorf("%s: LookupPair says %v, readNode path %v", c.name, err, want)
			}
			if _, err := l.OrdinalLookup(e.Start); l.p.Ordinal && !sameErr(err, want) {
				t.Errorf("%s: OrdinalLookup says %v, readNode path %v", c.name, err, want)
			}
			if err := l.store.Write(c.blk, orig); err != nil {
				t.Fatal(err)
			}
		}
		want, _, _ := refLookup(l, e.Start)
		if got, err := l.Lookup(e.Start); err != nil || got != want {
			t.Fatalf("restored tree: Lookup = %d, %v, want %d", got, err, want)
		}
	})
}
