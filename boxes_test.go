package boxes

import (
	"encoding/binary"
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"boxes/internal/pager"
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

// savedBlobHead saves a small W-BOX store on b and returns the head block
// of its metadata blob. The store is left open: closing it would close b.
func savedBlobHead(t *testing.T, b pager.Backend) pager.BlockID {
	t.Helper()
	st, err := Open(Options{Scheme: WBox, BlockSize: b.BlockSize(), Backend: b})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Load(GenerateTwoLevel(20)); err != nil {
		t.Fatal(err)
	}
	if err := st.Save(); err != nil {
		t.Fatal(err)
	}
	head, err := b.(pager.MetaRooter).MetaRoot()
	if err != nil || head == pager.NilBlock {
		t.Fatalf("meta root = %d, %v", head, err)
	}
	return head
}

// pointBlobAt overwrites the next pointer in blob block id with next.
func pointBlobAt(t *testing.T, b pager.Backend, id, next pager.BlockID) {
	t.Helper()
	buf := make([]byte, b.BlockSize())
	if err := b.ReadBlock(id, buf); err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint64(buf[0:8], uint64(next))
	if err := b.WriteBlock(id, buf); err != nil {
		t.Fatal(err)
	}
}

// wantCorruptAt fails unless err is ErrCorrupt naming block id.
func wantCorruptAt(t *testing.T, err error, id pager.BlockID) {
	t.Helper()
	var ce *pager.CorruptError
	if !errors.Is(err, ErrCorrupt) || !errors.As(err, &ce) || ce.Block != id {
		t.Fatalf("OpenExisting: err = %v, want ErrCorrupt naming block %d", err, id)
	}
}

// TestOpenExistingBadBlobPointerIsCorrupt: a metadata blob whose next
// pointer names no block the backend holds fails OpenExisting as
// ErrCorrupt naming the block that holds the pointer, on both backends.
func TestOpenExistingBadBlobPointerIsCorrupt(t *testing.T) {
	const pastBound = pager.BlockID(1 << 30)
	t.Run("mem/past-bound", func(t *testing.T) {
		b := pager.NewMemBackend(512)
		head := savedBlobHead(t, b)
		pointBlobAt(t, b, head, pastBound)
		_, err := OpenExisting(b, Options{})
		wantCorruptAt(t, err, head)
	})
	t.Run("mem/unallocated", func(t *testing.T) {
		b := pager.NewMemBackend(512)
		head := savedBlobHead(t, b)
		freed, err := b.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Free(freed); err != nil {
			t.Fatal(err)
		}
		pointBlobAt(t, b, head, freed)
		_, err = OpenExisting(b, Options{})
		wantCorruptAt(t, err, head)
	})
	t.Run("file/past-bound", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "labels.box")
		fb, err := CreateFileBackend(path, 512)
		if err != nil {
			t.Fatal(err)
		}
		head := savedBlobHead(t, fb)
		pointBlobAt(t, fb, head, pastBound)
		if err := fb.Close(); err != nil {
			t.Fatal(err)
		}
		if fb, err = OpenFileBackend(path); err != nil {
			t.Fatal(err)
		}
		defer fb.Close()
		_, err = OpenExisting(fb, Options{})
		wantCorruptAt(t, err, head)
	})
}
