package core

import (
	"testing"

	"boxes/internal/order"
	"boxes/internal/query"
	"boxes/internal/xmlgen"
)

func allSchemes() []Options {
	return []Options{
		{Scheme: SchemeWBox, BlockSize: 512},
		{Scheme: SchemeWBoxO, BlockSize: 512},
		{Scheme: SchemeBBox, BlockSize: 512},
		{Scheme: SchemeBBox, BlockSize: 512, Ordinal: true},
		{Scheme: SchemeWBox, BlockSize: 512, Ordinal: true},
		{Scheme: SchemeNaive, BlockSize: 512, NaiveK: 8},
	}
}

func TestOpenRejectsBadOptions(t *testing.T) {
	if _, err := Open(Options{Scheme: SchemeNaive}); err == nil {
		t.Error("naive without K accepted")
	}
	if _, err := Open(Options{Scheme: Scheme(99)}); err == nil {
		t.Error("unknown scheme accepted")
	}
	if _, err := Open(Options{Scheme: SchemeWBox, BlockSize: 100}); err == nil {
		t.Error("tiny block size accepted")
	}
}

func TestLoadAndSpansAcrossSchemes(t *testing.T) {
	tree := xmlgen.XMark(400, 3)
	for _, opt := range allSchemes() {
		t.Run(opt.Scheme.String(), func(t *testing.T) {
			st, err := Open(opt)
			if err != nil {
				t.Fatal(err)
			}
			doc, err := st.Load(tree)
			if err != nil {
				t.Fatal(err)
			}
			if st.Count() != uint64(2*tree.Elements()) {
				t.Fatalf("count = %d", st.Count())
			}
			if opt.Scheme == SchemeNaive {
				return // naive labels may exceed uint64 for large k; k=8 is fine though
			}
			elems, err := doc.LabeledElems()
			if err != nil {
				t.Fatal(err)
			}
			// Root must contain everything.
			root := elems[0]
			for _, e := range elems[1:] {
				if !root.Span.Contains(e.Span) {
					t.Fatalf("root does not contain %q %v", e.Name, e.Span)
				}
			}
			if err := st.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestContainmentJoinThroughStore(t *testing.T) {
	tree := xmlgen.XMark(500, 4)
	st, err := Open(Options{Scheme: SchemeBBox, BlockSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := st.Load(tree)
	if err != nil {
		t.Fatal(err)
	}
	anc, err := doc.SpansOf("open_auction")
	if err != nil {
		t.Fatal(err)
	}
	desc, err := doc.SpansOf("increase")
	if err != nil {
		t.Fatal(err)
	}
	pairs := query.ContainmentJoin(anc, desc)
	// Every increase lives inside exactly one open_auction in XMark.
	if len(pairs) != len(desc) {
		t.Fatalf("join found %d pairs for %d increases", len(pairs), len(desc))
	}
}

func TestEditingThroughStore(t *testing.T) {
	for _, opt := range allSchemes() {
		t.Run(opt.Scheme.String(), func(t *testing.T) {
			st, err := Open(opt)
			if err != nil {
				t.Fatal(err)
			}
			doc, err := st.Load(xmlgen.TwoLevel(100))
			if err != nil {
				t.Fatal(err)
			}
			// New last child of the root.
			ne, err := st.InsertElementBefore(doc.Elems[0].End)
			if err != nil {
				t.Fatal(err)
			}
			// Subtree insert before it.
			sub := xmlgen.TwoLevel(30)
			subElems, err := st.InsertSubtreeBefore(ne.Start, sub)
			if err != nil {
				t.Fatal(err)
			}
			if len(subElems) != 30 {
				t.Fatalf("subtree elems = %d", len(subElems))
			}
			// And delete that subtree again.
			if err := st.DeleteSubtree(subElems[0]); err != nil {
				t.Fatal(err)
			}
			if err := st.DeleteElement(ne); err != nil {
				t.Fatal(err)
			}
			if st.Count() != 200 {
				t.Fatalf("count = %d, want 200", st.Count())
			}
			if err := st.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestOrdinalThroughStore(t *testing.T) {
	st, err := Open(Options{Scheme: SchemeBBox, BlockSize: 512, Ordinal: true})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := st.Load(xmlgen.TwoLevel(50))
	if err != nil {
		t.Fatal(err)
	}
	ord, err := st.OrdinalLookup(doc.Elems[0].Start)
	if err != nil {
		t.Fatal(err)
	}
	if ord != 0 {
		t.Fatalf("root start ordinal = %d", ord)
	}
	ordEnd, err := st.OrdinalLookup(doc.Elems[0].End)
	if err != nil {
		t.Fatal(err)
	}
	if ordEnd != 99 {
		t.Fatalf("root end ordinal = %d, want 99", ordEnd)
	}
}

func TestWBoxOPairLookupCost(t *testing.T) {
	st, err := Open(Options{Scheme: SchemeWBoxO, BlockSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := st.Load(xmlgen.TwoLevel(2000))
	if err != nil {
		t.Fatal(err)
	}
	st.ResetStats()
	before := st.Stats()
	if _, err := st.LookupSpan(doc.Elems[1000]); err != nil {
		t.Fatal(err)
	}
	if d := st.Stats().Sub(before); d.Total() != 2 {
		t.Fatalf("W-BOX-O span lookup = %v, want 2 I/Os", d)
	}
}

func TestStatsAccumulate(t *testing.T) {
	st, err := Open(Options{Scheme: SchemeWBox, BlockSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := st.Load(xmlgen.TwoLevel(500))
	if err != nil {
		t.Fatal(err)
	}
	if st.Stats().Writes == 0 {
		t.Fatal("bulk load wrote nothing?")
	}
	st.ResetStats()
	if _, err := st.Lookup(doc.Elems[100].Start); err != nil {
		t.Fatal(err)
	}
	if st.Stats().Reads == 0 {
		t.Fatal("lookup read nothing?")
	}
	if st.Blocks() == 0 {
		t.Fatal("no blocks allocated?")
	}
}

func TestBootstrapFromEmpty(t *testing.T) {
	for _, opt := range allSchemes() {
		st, err := Open(opt)
		if err != nil {
			t.Fatal(err)
		}
		e, err := st.InsertFirstElement()
		if err != nil {
			t.Fatalf("%v: %v", opt.Scheme, err)
		}
		if _, err := st.InsertElementBefore(e.End); err != nil {
			t.Fatalf("%v: %v", opt.Scheme, err)
		}
		if st.Count() != 4 {
			t.Fatalf("%v: count = %d", opt.Scheme, st.Count())
		}
	}
}

var _ = order.NilLID

func TestCompareAcrossSchemes(t *testing.T) {
	tree := xmlgen.XMark(300, 6)
	for _, opt := range allSchemes() {
		if opt.Scheme == SchemeNaive {
			continue // naive labels may exceed uint64 for big k; k=8 here is fine but skip for symmetry with Lookup semantics
		}
		t.Run(opt.Scheme.String(), func(t *testing.T) {
			st, err := Open(opt)
			if err != nil {
				t.Fatal(err)
			}
			doc, err := st.Load(tree)
			if err != nil {
				t.Fatal(err)
			}
			// Tag order follows element preorder for start tags.
			cases := [][2]order.LID{
				{doc.Elems[0].Start, doc.Elems[1].Start},
				{doc.Elems[10].Start, doc.Elems[10].End},
				{doc.Elems[50].End, doc.Elems[50].Start},
				{doc.Elems[7].Start, doc.Elems[7].Start},
			}
			want := []int{-1, -1, 1, 0}
			for i, c := range cases {
				got, err := st.Compare(c[0], c[1])
				if err != nil {
					t.Fatal(err)
				}
				if got != want[i] {
					t.Errorf("case %d: Compare = %d, want %d", i, got, want[i])
				}
			}
		})
	}
}
