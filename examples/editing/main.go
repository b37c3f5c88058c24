// Editing: dynamic document maintenance — bulk subtree insertion and
// deletion, and adversarial (concentrated) single-element insertions.
package main

import (
	"fmt"
	"log"

	"boxes"
)

func main() {
	// W-BOX-O: start and end labels of an element share one structure
	// I/O.
	st, err := boxes.Open(boxes.Options{Scheme: boxes.WBoxO})
	if err != nil {
		log.Fatal(err)
	}
	doc, err := st.Load(boxes.GenerateXMark(30_000, 3))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("base document: %d labels, height %d\n", st.Count(), st.Height())

	// --- Bulk subtree insertion -------------------------------------
	// Attach a whole generated fragment as the last child of <regions>
	// (element 1) in one operation; far cheaper than element-at-a-time.
	st.ResetStats()
	fragment := boxes.GenerateXMark(2_000, 9)
	subElems, err := st.InsertSubtreeBefore(doc.Elems[1].End, fragment)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("bulk insert of %d elements: %v\n", fragment.Elements(), st.Stats())

	// --- Adversarial single-element insertions -----------------------
	// Squeeze pairs into one spot — the pattern that breaks gap-based
	// labeling — and watch the amortized cost stay low.
	st.ResetStats()
	right := subElems[0].End
	const pairs = 2_000
	for i := 0; i < pairs; i++ {
		if _, err := st.InsertElementBefore(right); err != nil {
			log.Fatal(err)
		}
		r, err := st.InsertElementBefore(right)
		if err != nil {
			log.Fatal(err)
		}
		right = r.Start
	}
	ios := st.Stats()
	fmt.Printf("%d concentrated element inserts: %v (%.2f I/Os each)\n",
		2*pairs, ios, float64(ios.Total())/(2*pairs))

	// --- Bulk subtree deletion ---------------------------------------
	st.ResetStats()
	if err := st.DeleteSubtree(subElems[0]); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("bulk delete of the fragment: %v; %d labels remain\n", st.Stats(), st.Count())

	if err := st.CheckInvariants(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("all structural invariants hold after the editing session")
}
