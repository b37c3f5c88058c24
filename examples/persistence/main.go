// Persistence: build a labeling on a file-backed store, checkpoint it,
// simulate a process restart by closing and reopening the file, and keep
// working — the immutable LIDs recorded before the restart still resolve.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"boxes"
)

func main() {
	dir, err := os.MkdirTemp("", "boxes-persist")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "labels.box")

	// --- First "process": build, edit, checkpoint, close. --------------
	fb, err := boxes.CreateFileBackend(path, 8192)
	if err != nil {
		log.Fatal(err)
	}
	st, err := boxes.Open(boxes.Options{Scheme: boxes.WBox, Backend: fb})
	if err != nil {
		log.Fatal(err)
	}
	doc, err := st.Load(boxes.GenerateXMark(20_000, 11))
	if err != nil {
		log.Fatal(err)
	}
	// Record some LIDs the way an index would.
	kept := []boxes.ElemLIDs{doc.Elems[0], doc.Elems[777], doc.Elems[4242]}
	spans := make([]boxes.Span, len(kept))
	for i, e := range kept {
		spans[i], err = st.LookupSpan(e)
		if err != nil {
			log.Fatal(err)
		}
	}
	if _, err := st.InsertElementBefore(kept[1].Start); err != nil {
		log.Fatal(err)
	}
	if err := st.Save(); err != nil {
		log.Fatal(err)
	}
	if err := fb.Close(); err != nil {
		log.Fatal(err)
	}
	info, _ := os.Stat(path)
	fmt.Printf("checkpointed %d labels into %s (%d KiB) and closed the file\n",
		st.Count(), filepath.Base(path), info.Size()/1024)

	// --- Second "process": reopen and continue. ------------------------
	fb2, err := boxes.OpenFileBackend(path)
	if err != nil {
		log.Fatal(err)
	}
	st2, err := boxes.OpenExisting(fb2, boxes.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reopened: scheme=%v count=%d height=%d\n", st2.Scheme(), st2.Count(), st2.Height())

	for i, e := range kept {
		span, err := st2.LookupSpan(e)
		if err != nil {
			log.Fatalf("LID pair %v did not survive the restart: %v", e, err)
		}
		note := "unchanged"
		if span != spans[i] {
			note = fmt.Sprintf("relabeled from %v (expected: an element was inserted nearby)", spans[i])
		}
		fmt.Printf("  kept element %d -> span %v (%s)\n", i, span, note)
	}

	// The reopened store supports the full operation set.
	ne, err := st2.InsertElementBefore(kept[2].Start)
	if err != nil {
		log.Fatal(err)
	}
	if err := st2.DeleteElement(ne); err != nil {
		log.Fatal(err)
	}
	if err := st2.CheckInvariants(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("edits after reopen succeed; all invariants hold")
}
