package core

import (
	"errors"
	"sync"
	"testing"

	"boxes/internal/order"
	"boxes/internal/xmlgen"
)

// readOps are the four read operations, each applied to target i of a
// sample of elements (Compare pairs it with the next sample).
var readOps = []struct {
	name string
	run  func(st *Store, es []order.ElemLIDs, i int) error
}{
	{"Lookup", func(st *Store, es []order.ElemLIDs, i int) error {
		_, err := st.Lookup(es[i].Start)
		return err
	}},
	{"LookupSpan", func(st *Store, es []order.ElemLIDs, i int) error {
		_, err := st.LookupSpan(es[i])
		return err
	}},
	{"Compare", func(st *Store, es []order.ElemLIDs, i int) error {
		_, err := st.Compare(es[i].Start, es[(i+1)%len(es)].End)
		return err
	}},
	{"OrdinalLookup", func(st *Store, es []order.ElemLIDs, i int) error {
		_, err := st.OrdinalLookup(es[i].End)
		return err
	}},
}

// readsFor runs op once per sample, split over the given number of
// goroutines, and returns the block reads counted.
func readsFor(st *Store, es []order.ElemLIDs, run func(*Store, []order.ElemLIDs, int) error, goroutines int) (uint64, error) {
	before := st.Stats()
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(es); i += goroutines {
				if err := run(st, es, i); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		return 0, err
	}
	return st.Stats().Sub(before).Reads, nil
}

// pinnedReads are the block reads of each read op over the sample of
// TestReadCountsIndependentOfCaller (309 elements: every 13th of a seeded
// 4,000-element XMark), as the cost gates count them: a block once per op.
// W-BOX reads 2 blocks per lookup, B-BOX height + 1 = 3, naive-8 one LIDF
// record; a B-BOX LookupSpan's second climb and Compare's shared ancestors
// are free, and so is a W-BOX-O pair's end label. Missing entries are
// schemes without ordinal support.
var pinnedReads = map[string]map[string]uint64{
	"wbox":    {"Lookup": 618, "LookupSpan": 622, "Compare": 1236, "OrdinalLookup": 927},
	"wbox-o":  {"Lookup": 618, "LookupSpan": 618, "Compare": 1236, "OrdinalLookup": 927},
	"bbox":    {"Lookup": 927, "LookupSpan": 930, "Compare": 645},
	"bbox-o":  {"Lookup": 927, "LookupSpan": 930, "Compare": 645, "OrdinalLookup": 927},
	"naive-8": {"Lookup": 309, "LookupSpan": 618, "Compare": 618},
}

// TestReadCountsIndependentOfCaller holds the served read path to the
// paper's accounting: a block counts once per operation however many times
// the operation revisits it, and however many goroutines share the store.
// On every scheme, Lookup, LookupSpan, Compare and OrdinalLookup must count
// the pinned reads from one goroutine and from four.
func TestReadCountsIndependentOfCaller(t *testing.T) {
	tree := xmlgen.XMark(4000, 1)
	for _, sc := range lookupSchemes {
		t.Run(sc.name, func(t *testing.T) {
			st, err := Open(sc.opts)
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			doc, err := st.Load(tree)
			if err != nil {
				t.Fatal(err)
			}
			var es []order.ElemLIDs
			for i := 0; i < len(doc.Elems); i += 13 {
				es = append(es, doc.Elems[i])
			}
			for _, op := range readOps {
				want, ok := pinnedReads[sc.name][op.name]
				for _, g := range []int{1, 4} {
					n, err := readsFor(st, es, op.run, g)
					if !ok && errors.Is(err, order.ErrNoOrdinal) {
						break
					}
					if err != nil {
						t.Fatalf("%s from %d goroutines: %v", op.name, g, err)
					}
					if n != want {
						t.Errorf("%s from %d goroutines: %d reads (%.3f/op), pinned %d (%.3f/op)",
							op.name, g, n, float64(n)/float64(len(es)), want, float64(want)/float64(len(es)))
					}
				}
			}
		})
	}
}
