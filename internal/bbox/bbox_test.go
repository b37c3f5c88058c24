package bbox

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"boxes/internal/order"
	"boxes/internal/pager"
	"boxes/internal/xmlgen"
)

func newLabeler(t *testing.T, blockSize int, ordinal, relaxed bool) (*Labeler, *pager.Store) {
	t.Helper()
	store := pager.NewMemStore(blockSize)
	p, err := NewParams(blockSize, ordinal, relaxed)
	if err != nil {
		t.Fatal(err)
	}
	l, err := New(store, p)
	if err != nil {
		t.Fatal(err)
	}
	return l, store
}

func variants(t *testing.T, f func(t *testing.T, l *Labeler, store *pager.Store)) {
	t.Helper()
	cases := []struct {
		name             string
		ordinal, relaxed bool
	}{
		{"basic", false, false},
		{"ordinal", true, false},
		{"relaxed", false, true},
		{"ordinal-relaxed", true, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			l, store := newLabeler(t, 512, c.ordinal, c.relaxed)
			f(t, l, store)
		})
	}
}

func loadAndTrack(t *testing.T, l *Labeler, tags []order.Tag) ([]order.ElemLIDs, *order.Oracle) {
	t.Helper()
	elems, err := l.BulkLoad(tags)
	if err != nil {
		t.Fatal(err)
	}
	lids := make([]order.LID, len(tags))
	for i, tg := range tags {
		if tg.Start {
			lids[i] = elems[tg.Elem].Start
		} else {
			lids[i] = elems[tg.Elem].End
		}
	}
	o := order.NewOracle()
	o.Load(lids)
	return elems, o
}

func TestParamsDerivation(t *testing.T) {
	p, err := NewParams(8192, false, false)
	if err != nil {
		t.Fatal(err)
	}
	if p.LeafCap != (8192-16)/8 {
		t.Errorf("leaf cap = %d", p.LeafCap)
	}
	if p.Fanout != p.LeafCap {
		t.Errorf("fan-out %d != leaf cap %d without ordinal", p.Fanout, p.LeafCap)
	}
	po, _ := NewParams(8192, true, false)
	if po.Fanout != p.Fanout/2 {
		t.Errorf("ordinal fan-out %d, want %d (size fields halve it)", po.Fanout, p.Fanout/2)
	}
	pr, _ := NewParams(8192, false, true)
	if pr.MinFanout != p.Fanout/4 {
		t.Errorf("relaxed min fan-out %d, want B/4=%d", pr.MinFanout, p.Fanout/4)
	}
	if _, err := NewParams(32, false, false); err == nil {
		t.Error("tiny block accepted")
	}
}

func TestInsertFirstElement(t *testing.T) {
	variants(t, func(t *testing.T, l *Labeler, _ *pager.Store) {
		e, err := l.InsertFirstElement()
		if err != nil {
			t.Fatal(err)
		}
		s, err := l.Lookup(e.Start)
		if err != nil {
			t.Fatal(err)
		}
		en, err := l.Lookup(e.End)
		if err != nil {
			t.Fatal(err)
		}
		if s >= en {
			t.Fatalf("start %d >= end %d", s, en)
		}
		if _, err := l.InsertFirstElement(); !errors.Is(err, order.ErrNotEmpty) {
			t.Fatalf("err = %v", err)
		}
		if err := l.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestBulkLoadXMark(t *testing.T) {
	variants(t, func(t *testing.T, l *Labeler, _ *pager.Store) {
		tags := xmlgen.XMark(600, 1).TagStream()
		_, o := loadAndTrack(t, l, tags)
		if err := l.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		if err := o.CheckAgainst(l, l.p.Ordinal); err != nil {
			t.Fatal(err)
		}
		if l.Height() < 2 {
			t.Fatalf("height = %d, want >= 2 for %d labels", l.Height(), len(tags))
		}
	})
}

func TestConcentratedInsertion(t *testing.T) {
	variants(t, func(t *testing.T, l *Labeler, _ *pager.Store) {
		tags := order.TagStreamFromPairs(50)
		elems, o := loadAndTrack(t, l, tags)
		sub, err := l.InsertElementBefore(elems[0].End)
		if err != nil {
			t.Fatal(err)
		}
		if err := o.InsertElementBefore(sub, elems[0].End); err != nil {
			t.Fatal(err)
		}
		right := sub.End
		for i := 0; i < 200; i++ {
			left, err := l.InsertElementBefore(right)
			if err != nil {
				t.Fatalf("pair %d: %v", i, err)
			}
			if err := o.InsertElementBefore(left, right); err != nil {
				t.Fatal(err)
			}
			r, err := l.InsertElementBefore(right)
			if err != nil {
				t.Fatalf("pair %d: %v", i, err)
			}
			if err := o.InsertElementBefore(r, right); err != nil {
				t.Fatal(err)
			}
			right = r.Start
		}
		if err := l.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		if err := o.CheckAgainst(l, l.p.Ordinal); err != nil {
			t.Fatal(err)
		}
	})
}

func TestLookupCostIsHeightPlusOne(t *testing.T) {
	l, store := newLabeler(t, 512, false, false)
	elems, err := l.BulkLoad(order.TagStreamFromPairs(4000))
	if err != nil {
		t.Fatal(err)
	}
	h := l.Height()
	if h < 3 {
		t.Fatalf("height %d too small for the test", h)
	}
	for _, lid := range []order.LID{elems[0].Start, elems[2000].Start, elems[3999].End} {
		before := store.Stats()
		if _, err := l.Lookup(lid); err != nil {
			t.Fatal(err)
		}
		d := store.Stats().Sub(before)
		if int(d.Total()) != h+1 {
			t.Fatalf("lookup cost = %v, want height+1 = %d", d, h+1)
		}
	}
}

func TestCompareLIDs(t *testing.T) {
	l, _ := newLabeler(t, 512, false, false)
	tags := xmlgen.XMark(500, 9).TagStream()
	elems, o := loadAndTrack(t, l, tags)
	lids := o.LIDs()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		a := rng.Intn(len(lids))
		b := rng.Intn(len(lids))
		got, err := l.CompareLIDs(lids[a], lids[b])
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		if a < b {
			want = -1
		} else if a > b {
			want = 1
		}
		if got != want {
			t.Fatalf("CompareLIDs(pos %d, pos %d) = %d, want %d", a, b, got, want)
		}
	}
	_ = elems
}

func TestCompareCheaperThanTwoLookups(t *testing.T) {
	l, store := newLabeler(t, 512, false, false)
	elems, err := l.BulkLoad(order.TagStreamFromPairs(4000))
	if err != nil {
		t.Fatal(err)
	}
	// Adjacent labels share a leaf: comparison should stop at the leaf.
	a, b := elems[100].Start, elems[100].End
	before := store.Stats()
	if _, err := l.CompareLIDs(a, b); err != nil {
		t.Fatal(err)
	}
	cmp := store.Stats().Sub(before).Total()
	before = store.Stats()
	if _, err := l.Lookup(a); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Lookup(b); err != nil {
		t.Fatal(err)
	}
	two := store.Stats().Sub(before).Total()
	if cmp >= two {
		t.Fatalf("LCA comparison cost %d not below two lookups %d", cmp, two)
	}
}

func TestDeleteWithUnderflow(t *testing.T) {
	variants(t, func(t *testing.T, l *Labeler, _ *pager.Store) {
		tags := order.TagStreamFromPairs(600)
		elems, o := loadAndTrack(t, l, tags)
		// Delete a large contiguous batch one label at a time to force
		// borrows, merges, and height collapse.
		for i := 100; i < 550; i++ {
			for _, lid := range []order.LID{elems[i].Start, elems[i].End} {
				if err := l.Delete(lid); err != nil {
					t.Fatalf("elem %d: %v", i, err)
				}
				if err := o.Delete(lid); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := l.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		if err := o.CheckAgainst(l, l.p.Ordinal); err != nil {
			t.Fatal(err)
		}
	})
}

func TestDeleteToEmpty(t *testing.T) {
	l, _ := newLabeler(t, 512, false, false)
	e, err := l.InsertFirstElement()
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Delete(e.Start); err != nil {
		t.Fatal(err)
	}
	if err := l.Delete(e.End); err != nil {
		t.Fatal(err)
	}
	if l.Count() != 0 || l.Height() != 0 {
		t.Fatalf("count=%d height=%d after emptying", l.Count(), l.Height())
	}
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// And the structure is reusable.
	if _, err := l.InsertFirstElement(); err != nil {
		t.Fatal(err)
	}
}

func TestOrdinalLookup(t *testing.T) {
	l, _ := newLabeler(t, 512, true, false)
	tags := xmlgen.XMark(400, 2).TagStream()
	_, o := loadAndTrack(t, l, tags)
	if err := o.CheckAgainst(l, true); err != nil {
		t.Fatal(err)
	}
}

func TestOrdinalUnsupported(t *testing.T) {
	l, _ := newLabeler(t, 512, false, false)
	e, _ := l.InsertFirstElement()
	if _, err := l.OrdinalLookup(e.Start); !errors.Is(err, order.ErrNoOrdinal) {
		t.Fatalf("err = %v", err)
	}
}

func TestSubtreeInsertRip(t *testing.T) {
	variants(t, func(t *testing.T, l *Labeler, _ *pager.Store) {
		tags := order.TagStreamFromPairs(3000) // tall enough host
		elems, o := loadAndTrack(t, l, tags)
		sub := xmlgen.XMark(80, 3).TagStream() // short T': uses the rip path
		newElems, err := l.InsertSubtreeBefore(elems[1500].Start, sub)
		if err != nil {
			t.Fatal(err)
		}
		newLids := make([]order.LID, len(sub))
		for i, tg := range sub {
			if tg.Start {
				newLids[i] = newElems[tg.Elem].Start
			} else {
				newLids[i] = newElems[tg.Elem].End
			}
		}
		if err := o.InsertSliceBefore(newLids, elems[1500].Start); err != nil {
			t.Fatal(err)
		}
		if err := l.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		if err := o.CheckAgainst(l, l.p.Ordinal); err != nil {
			t.Fatal(err)
		}
	})
}

func TestSubtreeInsertAtEveryBoundary(t *testing.T) {
	// Rip insertion at the very first tag, at a leaf boundary, and at the
	// last tag.
	l, _ := newLabeler(t, 512, false, false)
	tags := order.TagStreamFromPairs(3000)
	elems, o := loadAndTrack(t, l, tags)
	anchors := []order.LID{
		elems[0].Start, // document start (whole path leftmost)
		elems[31].End,  // likely interior
		elems[0].End,   // document end tag
	}
	for _, anchor := range anchors {
		sub := order.TagStreamFromPairs(40)
		newElems, err := l.InsertSubtreeBefore(anchor, sub)
		if err != nil {
			t.Fatalf("anchor %d: %v", anchor, err)
		}
		newLids := make([]order.LID, len(sub))
		for i, tg := range sub {
			if tg.Start {
				newLids[i] = newElems[tg.Elem].Start
			} else {
				newLids[i] = newElems[tg.Elem].End
			}
		}
		if err := o.InsertSliceBefore(newLids, anchor); err != nil {
			t.Fatal(err)
		}
		if err := l.CheckInvariants(); err != nil {
			t.Fatalf("anchor %d: %v", anchor, err)
		}
		if err := o.CheckAgainst(l, false); err != nil {
			t.Fatalf("anchor %d: %v", anchor, err)
		}
	}
}

func TestSubtreeInsertTallFallsBackToRebuild(t *testing.T) {
	l, _ := newLabeler(t, 512, false, false)
	tags := order.TagStreamFromPairs(100)
	elems, o := loadAndTrack(t, l, tags)
	sub := xmlgen.TwoLevel(2000).TagStream() // taller than host
	newElems, err := l.InsertSubtreeBefore(elems[50].Start, sub)
	if err != nil {
		t.Fatal(err)
	}
	newLids := make([]order.LID, len(sub))
	for i, tg := range sub {
		if tg.Start {
			newLids[i] = newElems[tg.Elem].Start
		} else {
			newLids[i] = newElems[tg.Elem].End
		}
	}
	if err := o.InsertSliceBefore(newLids, elems[50].Start); err != nil {
		t.Fatal(err)
	}
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := o.CheckAgainst(l, false); err != nil {
		t.Fatal(err)
	}
}

func TestSubtreeDelete(t *testing.T) {
	variants(t, func(t *testing.T, l *Labeler, _ *pager.Store) {
		tags := xmlgen.XMark(900, 4).TagStream()
		elems, o := loadAndTrack(t, l, tags)
		if err := l.DeleteSubtree(elems[1].Start, elems[1].End); err != nil {
			t.Fatal(err)
		}
		if err := o.DeleteRange(elems[1].Start, elems[1].End); err != nil {
			t.Fatal(err)
		}
		if err := l.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		if err := o.CheckAgainst(l, l.p.Ordinal); err != nil {
			t.Fatal(err)
		}
	})
}

func TestSubtreeDeleteAll(t *testing.T) {
	l, _ := newLabeler(t, 512, false, false)
	tags := order.TagStreamFromPairs(800)
	elems, _ := loadAndTrack(t, l, tags)
	if err := l.DeleteSubtree(elems[0].Start, elems[0].End); err != nil {
		t.Fatal(err)
	}
	if l.Count() != 0 || l.Height() != 0 {
		t.Fatalf("count=%d height=%d", l.Count(), l.Height())
	}
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestLabelBitsBound(t *testing.T) {
	// Theorem 5.1: a B-BOX label takes no more than
	// log N + 1 + (log N - 1)/(log B - 1) bits.
	l, _ := newLabeler(t, 512, false, false)
	if _, err := l.BulkLoad(order.TagStreamFromPairs(30000)); err != nil {
		t.Fatal(err)
	}
	n := 60000.0
	logN := 0.0
	for v := n; v >= 2; v /= 2 {
		logN++
	}
	logB := 0.0
	for v := float64(l.p.LeafCap + 1); v >= 2; v /= 2 {
		logB++
	}
	bound := logN + 1 + (logN-1)/(logB-1)
	if got := float64(l.LabelBits()); got > bound+1 {
		t.Fatalf("label bits %v exceed Theorem 5.1 bound %v", got, bound)
	}
}

func TestQuickRandomOps(t *testing.T) {
	f := func(seed int64, sel uint8) bool {
		ordinal := sel%2 == 1
		relaxed := (sel/2)%2 == 1
		store := pager.NewMemStore(512)
		p, err := NewParams(512, ordinal, relaxed)
		if err != nil {
			return false
		}
		l, err := New(store, p)
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		o := order.NewOracle()
		e, err := l.InsertFirstElement()
		if err != nil {
			return false
		}
		if err := o.InsertFirstElement(e); err != nil {
			return false
		}
		live := []order.ElemLIDs{e}
		for i := 0; i < 200; i++ {
			switch {
			case len(live) > 1 && rng.Intn(3) == 0:
				idx := 1 + rng.Intn(len(live)-1)
				v := live[idx]
				if err := l.Delete(v.Start); err != nil {
					t.Logf("delete: %v", err)
					return false
				}
				if err := l.Delete(v.End); err != nil {
					t.Logf("delete: %v", err)
					return false
				}
				if o.Delete(v.Start) != nil || o.Delete(v.End) != nil {
					return false
				}
				live = append(live[:idx], live[idx+1:]...)
			default:
				target := live[rng.Intn(len(live))]
				anchor := target.Start
				if rng.Intn(2) == 0 {
					anchor = target.End
				}
				ne, err := l.InsertElementBefore(anchor)
				if err != nil {
					t.Logf("insert: %v", err)
					return false
				}
				if err := o.InsertElementBefore(ne, anchor); err != nil {
					return false
				}
				live = append(live, ne)
			}
		}
		if err := l.CheckInvariants(); err != nil {
			t.Logf("invariants: %v", err)
			return false
		}
		if err := o.CheckAgainst(l, ordinal); err != nil {
			t.Logf("oracle: %v", err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestRestoreMetaRejectsTruncatedLIDFMeta cuts the last bytes off a saved
// metadata blob, so its LIDF length prefix promises more bytes than remain:
// RestoreMeta must refuse it as corrupt rather than zero-pad the LIDF
// extent table.
func TestRestoreMetaRejectsTruncatedLIDFMeta(t *testing.T) {
	l, _ := newLabeler(t, 512, false, false)
	if _, err := l.BulkLoad(xmlgen.TwoLevel(200).TagStream()); err != nil {
		t.Fatal(err)
	}
	meta := l.MarshalMeta()
	l2, _ := newLabeler(t, 512, false, false)
	if err := l2.RestoreMeta(meta[:len(meta)-5]); !errors.Is(err, pager.ErrCorrupt) {
		t.Fatalf("truncated LIDF metadata: err = %v, want ErrCorrupt", err)
	}
}
