package wbox

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"boxes/internal/order"
	"boxes/internal/pager"
	"boxes/internal/xmlgen"
)

func newLabeler(t *testing.T, blockSize int, variant Variant, ordinal bool) *Labeler {
	t.Helper()
	store := pager.NewMemStore(blockSize)
	p, err := NewParams(blockSize, variant, ordinal)
	if err != nil {
		t.Fatal(err)
	}
	l, err := New(store, p)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func allVariants(t *testing.T, f func(t *testing.T, l *Labeler)) {
	t.Helper()
	cases := []struct {
		name    string
		variant Variant
		ordinal bool
	}{
		{"basic", Basic, false},
		{"ordinal", Basic, true},
		{"pair", PairOptimized, false},
		{"pair-ordinal", PairOptimized, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			f(t, newLabeler(t, 512, c.variant, c.ordinal))
		})
	}
}

func TestParamsDerivation(t *testing.T) {
	p, err := NewParams(8192, Basic, false)
	if err != nil {
		t.Fatal(err)
	}
	if p.B < 300 || p.B > 320 {
		t.Errorf("b = %d, want ~314 for 8KB blocks", p.B)
	}
	if 2*p.A+3+ceilDiv(8, p.A-2) > p.B {
		t.Errorf("a = %d inconsistent with b = %d", p.A, p.B)
	}
	if 2*(p.A+1)+3+ceilDiv(8, p.A-1) <= p.B {
		t.Errorf("a = %d is not maximal for b = %d", p.A, p.B)
	}
	if p.LeafCap != 2*p.K-1 {
		t.Errorf("leaf cap %d != 2k-1 (k=%d)", p.LeafCap, p.K)
	}
	if _, err := NewParams(64, Basic, false); err == nil {
		t.Error("tiny block size accepted")
	}
}

func TestWeightBounds(t *testing.T) {
	p, _ := NewParams(512, Basic, false)
	lim0, _ := p.weightLimit(0)
	if lim0 != uint64(2*p.K) {
		t.Errorf("leaf limit = %d, want %d", lim0, 2*p.K)
	}
	lim1, _ := p.weightLimit(1)
	if lim1 != uint64(2*p.A*p.K) {
		t.Errorf("level-1 limit = %d, want %d", lim1, 2*p.A*p.K)
	}
	if p.weightMin(1) != uint64(p.A*p.K-2*p.K) {
		t.Errorf("level-1 min = %d, want %d", p.weightMin(1), p.A*p.K-2*p.K)
	}
	if p.weightMin(0) >= uint64(p.K) {
		t.Errorf("leaf min %d should be below k=%d", p.weightMin(0), p.K)
	}
}

func TestInsertFirstElement(t *testing.T) {
	allVariants(t, func(t *testing.T, l *Labeler) {
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
			t.Fatalf("second InsertFirstElement err = %v", err)
		}
		if err := l.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}

// loadAndTrack bulk loads tags and returns an oracle tracking LID order.
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

func TestBulkLoadXMark(t *testing.T) {
	allVariants(t, func(t *testing.T, l *Labeler) {
		tags := xmlgen.XMark(400, 1).TagStream()
		_, o := loadAndTrack(t, l, tags)
		if err := l.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		if err := o.CheckAgainst(l, l.p.Ordinal); err != nil {
			t.Fatal(err)
		}
		if l.Count() != uint64(len(tags)) {
			t.Fatalf("count = %d, want %d", l.Count(), len(tags))
		}
	})
}

func TestBulkLoadRejectsNonEmpty(t *testing.T) {
	l := newLabeler(t, 512, Basic, false)
	if _, err := l.BulkLoad(order.TagStreamFromPairs(3)); err != nil {
		t.Fatal(err)
	}
	if _, err := l.BulkLoad(order.TagStreamFromPairs(3)); !errors.Is(err, order.ErrNotEmpty) {
		t.Fatalf("err = %v", err)
	}
}

// squeeze performs the paper's concentrated insertion sequence: pairs of
// elements repeatedly inserted at the centre of a growing sibling list.
func squeeze(t *testing.T, l *Labeler, o *order.Oracle, anchor order.LID, pairs int) {
	t.Helper()
	right := anchor
	for i := 0; i < pairs; i++ {
		left, err := l.InsertElementBefore(right)
		if err != nil {
			t.Fatalf("pair %d left: %v", i, err)
		}
		if err := o.InsertElementBefore(left, right); err != nil {
			t.Fatal(err)
		}
		rightE, err := l.InsertElementBefore(right)
		if err != nil {
			t.Fatalf("pair %d right: %v", i, err)
		}
		if err := o.InsertElementBefore(rightE, right); err != nil {
			t.Fatal(err)
		}
		right = rightE.Start
	}
}

func TestConcentratedInsertion(t *testing.T) {
	allVariants(t, func(t *testing.T, l *Labeler) {
		tags := order.TagStreamFromPairs(50)
		elems, o := loadAndTrack(t, l, tags)
		// Insert a subtree root as last child of the document root, then
		// squeeze pairs into its centre.
		sub, err := l.InsertElementBefore(elems[0].End)
		if err != nil {
			t.Fatal(err)
		}
		if err := o.InsertElementBefore(sub, elems[0].End); err != nil {
			t.Fatal(err)
		}
		squeeze(t, l, o, sub.End, 150)
		if err := l.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		if err := o.CheckAgainst(l, l.p.Ordinal); err != nil {
			t.Fatal(err)
		}
		if l.Height() < 2 {
			t.Fatalf("height = %d; squeeze should have grown the tree", l.Height())
		}
	})
}

func TestLookupCostIsTwoIOs(t *testing.T) {
	store := pager.NewMemStore(512)
	p, _ := NewParams(512, Basic, false)
	l, err := New(store, p)
	if err != nil {
		t.Fatal(err)
	}
	tags := order.TagStreamFromPairs(2000)
	elems, err := l.BulkLoad(tags)
	if err != nil {
		t.Fatal(err)
	}
	if l.Height() < 3 {
		t.Fatalf("height %d too small for a meaningful test", l.Height())
	}
	for _, e := range []order.LID{elems[0].Start, elems[999].Start, elems[1999].End} {
		before := store.Stats()
		if _, err := l.Lookup(e); err != nil {
			t.Fatal(err)
		}
		d := store.Stats().Sub(before)
		if d.Total() != 2 {
			t.Fatalf("lookup cost = %v, want exactly 2 I/Os regardless of height", d)
		}
	}
}

func TestLookupPairCostWBoxO(t *testing.T) {
	store := pager.NewMemStore(512)
	p, _ := NewParams(512, PairOptimized, false)
	l, err := New(store, p)
	if err != nil {
		t.Fatal(err)
	}
	elems, err := l.BulkLoad(order.TagStreamFromPairs(500))
	if err != nil {
		t.Fatal(err)
	}
	e := elems[250]
	before := store.Stats()
	s, en, err := l.LookupPair(e.Start, e.End)
	if err != nil {
		t.Fatal(err)
	}
	d := store.Stats().Sub(before)
	if d.Total() != 2 {
		t.Fatalf("pair lookup cost = %v, want 2 I/Os", d)
	}
	gotS, _ := l.Lookup(e.Start)
	gotE, _ := l.Lookup(e.End)
	if s != gotS || en != gotE {
		t.Fatalf("pair lookup (%d,%d) != lookups (%d,%d)", s, en, gotS, gotE)
	}
}

func TestDeleteAndReclaim(t *testing.T) {
	allVariants(t, func(t *testing.T, l *Labeler) {
		tags := order.TagStreamFromPairs(40)
		elems, o := loadAndTrack(t, l, tags)
		victim := elems[7]
		if err := l.Delete(victim.Start); err != nil {
			t.Fatal(err)
		}
		if err := l.Delete(victim.End); err != nil {
			t.Fatal(err)
		}
		if err := o.Delete(victim.Start); err != nil {
			t.Fatal(err)
		}
		if err := o.Delete(victim.End); err != nil {
			t.Fatal(err)
		}
		if _, err := l.Lookup(victim.Start); !errors.Is(err, order.ErrUnknownLID) {
			t.Fatalf("deleted lookup err = %v", err)
		}
		// The next insertion into that leaf must reclaim a tombstone
		// (elems[6].End sits in the same leaf as the tombstones for every
		// variant's leaf capacity).
		dead := l.dead
		ne, err := l.InsertElementBefore(elems[6].End)
		if err != nil {
			t.Fatal(err)
		}
		if err := o.InsertElementBefore(ne, elems[6].End); err != nil {
			t.Fatal(err)
		}
		if l.dead >= dead {
			t.Fatalf("tombstones %d -> %d; insertion should have reclaimed", dead, l.dead)
		}
		if err := l.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		if err := o.CheckAgainst(l, l.p.Ordinal); err != nil {
			t.Fatal(err)
		}
	})
}

func TestGlobalRebuildAfterManyDeletes(t *testing.T) {
	allVariants(t, func(t *testing.T, l *Labeler) {
		tags := order.TagStreamFromPairs(300)
		elems, o := loadAndTrack(t, l, tags)
		// Delete two thirds of the elements; the structure must rebuild
		// (dead >= live) and stay valid.
		for i := 1; i < 201; i++ {
			for _, lid := range []order.LID{elems[i].Start, elems[i].End} {
				if err := l.Delete(lid); err != nil {
					t.Fatal(err)
				}
				if err := o.Delete(lid); err != nil {
					t.Fatal(err)
				}
			}
		}
		if l.dead >= l.live {
			t.Fatalf("rebuild never triggered: dead=%d live=%d", l.dead, l.live)
		}
		if err := l.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		if err := o.CheckAgainst(l, l.p.Ordinal); err != nil {
			t.Fatal(err)
		}
	})
}

func TestOrdinalLookup(t *testing.T) {
	l := newLabeler(t, 512, Basic, true)
	tags := xmlgen.XMark(300, 2).TagStream()
	_, o := loadAndTrack(t, l, tags)
	if err := o.CheckAgainst(l, true); err != nil {
		t.Fatal(err)
	}
}

func TestOrdinalUnsupported(t *testing.T) {
	l := newLabeler(t, 512, Basic, false)
	e, err := l.InsertFirstElement()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.OrdinalLookup(e.Start); !errors.Is(err, order.ErrNoOrdinal) {
		t.Fatalf("err = %v", err)
	}
}

func TestInsertBeforeRejectedOnPairVariant(t *testing.T) {
	l := newLabeler(t, 512, PairOptimized, false)
	e, err := l.InsertFirstElement()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.InsertBefore(e.End); !errors.Is(err, ErrPairVariant) {
		t.Fatalf("err = %v", err)
	}
}

func TestSubtreeInsert(t *testing.T) {
	allVariants(t, func(t *testing.T, l *Labeler) {
		tags := order.TagStreamFromPairs(200)
		elems, o := loadAndTrack(t, l, tags)
		sub := xmlgen.XMark(120, 3).TagStream()
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
		if err := o.CheckAgainst(l, l.p.Ordinal); err != nil {
			t.Fatal(err)
		}
	})
}

func TestSubtreeInsertLarge(t *testing.T) {
	// Forces the whole-tree rebuild path: the subtree outweighs every
	// ancestor's remaining capacity.
	allVariants(t, func(t *testing.T, l *Labeler) {
		tags := order.TagStreamFromPairs(100)
		elems, o := loadAndTrack(t, l, tags)
		sub := xmlgen.TwoLevel(3000).TagStream()
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
		if err := o.CheckAgainst(l, l.p.Ordinal); err != nil {
			t.Fatal(err)
		}
	})
}

func TestSubtreeDelete(t *testing.T) {
	allVariants(t, func(t *testing.T, l *Labeler) {
		tree := xmlgen.XMark(500, 4)
		tags := tree.TagStream()
		elems, o := loadAndTrack(t, l, tags)
		// Element 1 is "regions", a large subtree.
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

func TestSubtreeDeleteEverythingButRoot(t *testing.T) {
	l := newLabeler(t, 512, Basic, false)
	tags := order.TagStreamFromPairs(500)
	elems, o := loadAndTrack(t, l, tags)
	// Delete elements 1..499 one subtree at a time (they are siblings).
	for i := 1; i < 500; i++ {
		if err := l.DeleteSubtree(elems[i].Start, elems[i].End); err != nil {
			t.Fatalf("subtree %d: %v", i, err)
		}
		if err := o.DeleteRange(elems[i].Start, elems[i].End); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := o.CheckAgainst(l, false); err != nil {
		t.Fatal(err)
	}
	if l.Count() != 2 {
		t.Fatalf("count = %d, want 2", l.Count())
	}
}

func TestLabelBitsBound(t *testing.T) {
	// Theorem 4.4: a W-BOX label needs no more than
	// log N + 1 + ceil(log(2+4/a)·log_a(N/k) + log b) bits.
	l := newLabeler(t, 512, Basic, false)
	tags := order.TagStreamFromPairs(5000)
	elems, _ := loadAndTrack(t, l, tags)
	// Stress with concentrated inserts to grow the range.
	right := elems[0].End
	for i := 0; i < 2000; i++ {
		e, err := l.InsertElementBefore(right)
		if err != nil {
			t.Fatal(err)
		}
		right = e.Start
	}
	n := float64(l.Count())
	a, k, b := float64(l.p.A), float64(l.p.K), float64(l.p.B)
	bound := log2(n) + 1 + ceilF(log2(2+4/a)*(log2(n/k)/log2(a))+log2(b))
	if got := float64(l.LabelBits()); got > bound {
		t.Fatalf("label bits %v exceed Theorem 4.4 bound %v", got, bound)
	}
}

func log2(x float64) float64 {
	// crude but dependency-free log2 via math is fine; tests only
	l := 0.0
	for x >= 2 {
		x /= 2
		l++
	}
	// linear interpolation for the fractional part
	return l + (x - 1)
}

func ceilF(x float64) float64 {
	i := float64(int64(x))
	if x > i {
		return i + 1
	}
	return i
}

// Property: random element insert/delete sequences keep the labeling valid
// and all invariants intact, across variants.
func TestQuickRandomOps(t *testing.T) {
	f := func(seed int64, sel uint8) bool {
		variant := Basic
		if sel%2 == 1 {
			variant = PairOptimized
		}
		ordinal := (sel/2)%2 == 1
		store := pager.NewMemStore(512)
		p, err := NewParams(512, variant, ordinal)
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
		for i := 0; i < 150; i++ {
			switch {
			case len(live) > 1 && rng.Intn(4) == 0:
				idx := 1 + rng.Intn(len(live)-1)
				v := live[idx]
				if err := l.Delete(v.Start); err != nil {
					return false
				}
				if err := l.Delete(v.End); err != nil {
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
	l := newLabeler(t, 512, Basic, false)
	if _, err := l.BulkLoad(xmlgen.TwoLevel(200).TagStream()); err != nil {
		t.Fatal(err)
	}
	meta := l.MarshalMeta()
	l2 := newLabeler(t, 512, Basic, false)
	if err := l2.RestoreMeta(meta[:len(meta)-5]); !errors.Is(err, pager.ErrCorrupt) {
		t.Fatalf("truncated LIDF metadata: err = %v, want ErrCorrupt", err)
	}
}
