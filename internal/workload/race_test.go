package workload_test

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"boxes/internal/core"
	"boxes/internal/order"
	"boxes/internal/pager"
	"boxes/internal/workload"
	"boxes/internal/xmlgen"
)

// Frame poisoning is on for every test of this package: a reader that uses
// a borrowed frame after releasing it sees garbage, deterministically.
func init() { pager.HookPoisonFrames = true }

// syncDoc adapts a core.Store to workload.View for the single writer
// goroutine: elems is writer-private state (never shared), and every label
// read goes through the store's read lock.
type syncDoc struct {
	st    *core.Store
	elems []order.ElemLIDs // start-tag document order, writer-only
}

func (d *syncDoc) Len() int { return len(d.elems) }

func (d *syncDoc) Label(pos int) (order.Label, error) {
	return d.st.Lookup(d.elems[pos].Start)
}

func (d *syncDoc) EndLabel(pos int) (order.Label, error) {
	return d.st.Lookup(d.elems[pos].End)
}

func (d *syncDoc) apply(op workload.Op) error {
	n := len(d.elems)
	pos := op.Pos
	if n > 0 {
		pos %= n
		if pos < 0 {
			pos += n
		}
	}
	switch op.Kind {
	case workload.Insert:
		if n == 0 {
			e, err := d.st.InsertFirstElement()
			if err != nil {
				return err
			}
			d.elems = append(d.elems, e)
			return nil
		}
		e, err := d.st.InsertElementBefore(d.elems[pos].Start)
		if err != nil {
			return err
		}
		d.elems = append(d.elems, order.ElemLIDs{})
		copy(d.elems[pos+1:], d.elems[pos:])
		d.elems[pos] = e
		return nil
	case workload.Delete:
		if n == 0 {
			return nil
		}
		if err := d.st.DeleteElement(d.elems[pos]); err != nil {
			return err
		}
		d.elems = append(d.elems[:pos], d.elems[pos+1:]...)
		return nil
	case workload.Lookup:
		if n == 0 {
			return nil
		}
		_, err := d.st.Lookup(d.elems[pos].Start)
		return err
	}
	return fmt.Errorf("unknown op kind %d", op.Kind)
}

// TestSyncStoreZipfReadersVsChurnWriter races zipfian-skewed reader
// goroutines against a churn writer on a durable file-backed Store,
// with one durable close/reopen in the middle. Under -race this exercises
// the read/write lock split while the writer repeatedly crosses the
// tombstone-heavy delete bursts of the churn source (the regime that
// triggers W-BOX redistributions, so readers race whole-document
// relabels, not just point updates). Readers work from a published
// snapshot of the element set; a concurrently deleted element surfaces as
// order.ErrUnknownLID (or ErrLabelOverflow from a tombstoned label slot),
// and a live element's Compare(start, end) must report start < end no
// matter how the labels are being rewritten underneath. A reader judges the
// order only when no snapshot was published across its Compare: the LIDF
// free list is LIFO, so a delete followed by an insert can reissue a
// snapshot element's two LIDs swapped to a newer element, and that ABA is
// the test's, not the store's.
//
// The lru-on run repeats it with the pager's LRU enabled: reader views are
// then the cache's resident frames, which every writer flush replaces.
func TestSyncStoreZipfReadersVsChurnWriter(t *testing.T) {
	if testing.Short() {
		t.Skip("concurrency soak is not short")
	}
	t.Run("lru-off", func(t *testing.T) { zipfReadersVsChurnWriter(t, 0) })
	t.Run("lru-on", func(t *testing.T) { zipfReadersVsChurnWriter(t, 8) })
}

func zipfReadersVsChurnWriter(t *testing.T, cacheBlocks int) {
	path := filepath.Join(t.TempDir(), "zoo.boxes")
	fb, err := pager.CreateFileOpts(path, pager.FileOptions{BlockSize: 512, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	st, err := core.Open(core.Options{
		Scheme: core.SchemeWBox, BlockSize: 512,
		Backend: fb, Durable: true, CacheBlocks: cacheBlocks,
		Durability: &pager.Durability{Every: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := st.Load(xmlgen.TwoLevel(96))
	if err != nil {
		t.Fatal(err)
	}
	d := &syncDoc{st: st, elems: append([]order.ElemLIDs(nil), doc.Elems...)}

	// published holds the reader-visible element snapshot; only the writer
	// stores, readers only load. Every store is a fresh pointer, so pointer
	// identity is the publish generation.
	var published atomic.Pointer[[]order.ElemLIDs]
	publish := func() {
		snap := append([]order.ElemLIDs(nil), d.elems...)
		published.Store(&snap)
	}
	publish()

	const (
		readers      = 4
		opsPerPhase  = 300
		churnTarget  = 96
		readerChecks = 2000
	)
	src := workload.NewChurn(7, churnTarget)

	phase := func(t *testing.T) {
		done := make(chan struct{})
		errCh := make(chan error, readers+1)
		var wg sync.WaitGroup

		wg.Add(1)
		go func() { // churn writer
			defer wg.Done()
			defer close(done)
			for i := 0; i < opsPerPhase; i++ {
				op, err := src.Next(d)
				if err != nil {
					errCh <- fmt.Errorf("writer: op %d: %w", i, err)
					return
				}
				if err := d.apply(op); err != nil {
					errCh <- fmt.Errorf("writer: op %d (%s @%d): %w", i, op.Kind, op.Pos, err)
					return
				}
				publish()
			}
		}()

		for g := 0; g < readers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(1000 + g)))
				zipf := rand.NewZipf(rng, 1.2, 1, 1<<20)
				for i := 0; i < readerChecks; i++ {
					select {
					case <-done:
						return
					default:
					}
					snap := published.Load()
					elems := *snap
					if len(elems) == 0 {
						continue
					}
					e := elems[int(zipf.Uint64())%len(elems)]
					// Compare start vs end under one read lock: atomic
					// against relabels. A deleted element answers
					// ErrUnknownLID / ErrLabelOverflow; anything else must
					// order correctly.
					c, err := st.Compare(e.Start, e.End)
					if err != nil {
						if errors.Is(err, order.ErrUnknownLID) || errors.Is(err, order.ErrLabelOverflow) {
							continue
						}
						errCh <- fmt.Errorf("reader %d: compare: %w", g, err)
						return
					}
					// At most the one unpublished op ran since snap: it
					// cannot both free and reissue a snapshot element's LIDs.
					if c >= 0 && published.Load() == snap {
						errCh <- fmt.Errorf("reader %d: start !< end (cmp=%d)", g, c)
						return
					}
					if _, err := st.Lookup(e.Start); err != nil && !errors.Is(err, order.ErrUnknownLID) && !errors.Is(err, order.ErrLabelOverflow) {
						errCh <- fmt.Errorf("reader %d: lookup: %w", g, err)
						return
					}
				}
			}(g)
		}

		wg.Wait()
		close(errCh)
		for err := range errCh {
			t.Fatal(err)
		}
	}

	phase(t)

	// Durable reopen mid-run: everything the writer returned from is on
	// disk, so the reopened store must hold exactly the writer's element
	// count, and the second phase continues the same churn source on it.
	if err := st.Save(); err != nil {
		t.Fatal(err)
	}
	if err := fb.Close(); err != nil {
		t.Fatal(err)
	}
	fb2, err := pager.OpenFileOpts(path, pager.FileOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer fb2.Close()
	re, err := core.OpenExisting(fb2, core.Options{Durable: true, CacheBlocks: cacheBlocks, Durability: &pager.Durability{Every: 8}})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := re.Count(), uint64(2*len(d.elems)); got != want {
		t.Fatalf("reopened count = %d, want %d (%d live elements)", got, want, len(d.elems))
	}
	st = re
	d.st = st
	for pos := range d.elems { // labels survived the reopen in order
		if pos == 0 {
			continue
		}
		prev, err := d.Label(pos - 1)
		if err != nil {
			t.Fatal(err)
		}
		cur, err := d.Label(pos)
		if err != nil {
			t.Fatal(err)
		}
		if prev >= cur {
			t.Fatalf("reopened labels out of order at position %d: %d >= %d", pos, prev, cur)
		}
	}
	publish()

	phase(t)

	if err := st.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := st.Save(); err != nil {
		t.Fatal(err)
	}
}
