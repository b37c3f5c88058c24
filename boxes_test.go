package boxes

import (
	"path/filepath"
	"strings"
	"testing"
)

func TestPublicAPIRoundTrip(t *testing.T) {
	for _, scheme := range []Scheme{WBox, WBoxO, BBox} {
		t.Run(scheme.String(), func(t *testing.T) {
			st, err := Open(Options{Scheme: scheme})
			if err != nil {
				t.Fatal(err)
			}
			doc, err := st.Load(GenerateXMark(2000, 1))
			if err != nil {
				t.Fatal(err)
			}
			root, err := st.LookupSpan(doc.Elems[0])
			if err != nil {
				t.Fatal(err)
			}
			child, err := st.LookupSpan(doc.Elems[1])
			if err != nil {
				t.Fatal(err)
			}
			if !root.Contains(child) {
				t.Fatal("root does not contain its child")
			}
			if err := st.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestPublicParseXML(t *testing.T) {
	tree, err := ParseXML(strings.NewReader("<a><b/><c><d/></c></a>"))
	if err != nil {
		t.Fatal(err)
	}
	if tree.Elements() != 4 {
		t.Fatalf("elements = %d", tree.Elements())
	}
	st, err := Open(Options{Scheme: BBox})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Load(tree); err != nil {
		t.Fatal(err)
	}
}

func TestPublicJoinAndTwig(t *testing.T) {
	st, err := Open(Options{Scheme: WBoxO})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := st.Load(GenerateXMark(3000, 2))
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
	pairs := ContainmentJoin(anc, desc)
	if len(pairs) != len(desc) {
		t.Fatalf("%d pairs for %d increases", len(pairs), len(desc))
	}
	elems, err := doc.LabeledElems()
	if err != nil {
		t.Fatal(err)
	}
	if got := MatchTwig(elems, ParseTwig("//open_auction//increase")); len(got) != len(desc) {
		t.Fatalf("twig matched %d, want %d", len(got), len(desc))
	}
}

func TestPublicFileBackend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "labels.box")
	fb, err := CreateFileBackend(path, 4096)
	if err != nil {
		t.Fatal(err)
	}
	st, err := Open(Options{Scheme: WBox, BlockSize: 4096, Backend: fb})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := st.Load(GenerateTwoLevel(500))
	if err != nil {
		t.Fatal(err)
	}
	span, err := st.LookupSpan(doc.Elems[250])
	if err != nil {
		t.Fatal(err)
	}
	if span.Start >= span.End {
		t.Fatalf("bad span %v", span)
	}
	if err := st.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
