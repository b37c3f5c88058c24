package core

import (
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"boxes/internal/order"
	"boxes/internal/pager"
	"boxes/internal/xmlgen"
)

// TestSyncStoreConcurrentUse hammers a Store from several goroutines; run
// under -race this verifies the store lock and the readers' own pin sets.
func TestSyncStoreConcurrentUse(t *testing.T) {
	st, err := Open(Options{Scheme: SchemeBBox, BlockSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := st.Load(xmlgen.TwoLevel(500))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				switch (g + i) % 3 {
				case 0:
					if _, err := st.Lookup(doc.Elems[(g*53+i)%500].Start); err != nil {
						errCh <- err
						return
					}
				case 1:
					if _, err := st.LookupSpan(doc.Elems[(g*31+i)%500]); err != nil {
						errCh <- err
						return
					}
				default:
					e, err := st.InsertElementBefore(doc.Elems[(g*17+i)%500].Start)
					if err != nil {
						errCh <- err
						return
					}
					if err := st.DeleteElement(e); err != nil {
						errCh <- err
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if st.Count() != 1000 {
		t.Fatalf("count = %d, want 1000", st.Count())
	}
	if err := st.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSyncStoreConcurrentBatchReaders is the group-commit concurrency
// property test: one writer streams ApplyBatch transactions into a durable
// file-backed Store while reader goroutines race it with lookups. Under
// -race this exercises the store lock, the readers' own pin sets, and the
// WAL group-commit overlay (readers may observe blocks whose
// group is still being flushed). Readers assert order invariants that must
// hold at every batch boundary: spans never invert and an element's start
// ordinal precedes its end ordinal.
//
// The lru-on run repeats it with the pager's LRU enabled: reader views are
// then the cache's resident frames, which every writer flush replaces.
func TestSyncStoreConcurrentBatchReaders(t *testing.T) {
	t.Run("lru-off", func(t *testing.T) { concurrentBatchReaders(t, 0) })
	t.Run("lru-on", func(t *testing.T) { concurrentBatchReaders(t, 8) })
}

func concurrentBatchReaders(t *testing.T, cacheBlocks int) {
	path := filepath.Join(t.TempDir(), "conc.boxes")
	fb, err := pager.CreateFileOpts(path, pager.FileOptions{BlockSize: 512, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	st, err := Open(Options{
		Scheme: SchemeWBox, Ordinal: true, BlockSize: 512,
		Backend: fb, Durable: true, CacheBlocks: cacheBlocks,
		Durability: &pager.Durability{Every: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := st.Load(xmlgen.TwoLevel(200))
	if err != nil {
		t.Fatal(err)
	}

	// The writer publishes the grown element set; readers only ever touch a
	// published snapshot, so every element they see is live (the writer
	// never deletes).
	var published atomic.Value
	published.Store(append([]order.ElemLIDs(nil), doc.Elems...))

	const (
		readers    = 4
		batches    = 40
		insertsPer = 4
	)
	done := make(chan struct{})
	errCh := make(chan error, readers+1)
	var wg sync.WaitGroup

	wg.Add(1)
	go func() { // writer
		defer wg.Done()
		defer close(done)
		elems := append([]order.ElemLIDs(nil), doc.Elems...)
		for i := 0; i < batches; i++ {
			ops := make([]Op, 0, 2*insertsPer)
			for j := 0; j < insertsPer; j++ {
				at := elems[(i*37+j*11)%len(elems)]
				ops = append(ops,
					Op{Kind: OpInsertBefore, LID: at.End},
					Op{Kind: OpLookupSpan, Elem: at},
				)
			}
			results, err := st.ApplyBatch(ops)
			if err != nil {
				errCh <- err
				return
			}
			for k, op := range ops {
				if op.Kind == OpInsertBefore {
					elems = append(elems, results[k].Elem)
				}
			}
			published.Store(append([]order.ElemLIDs(nil), elems...))
		}
	}()

	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				elems := published.Load().([]order.ElemLIDs)
				e := elems[(g*101+i*13)%len(elems)]
				sp, err := st.LookupSpan(e)
				if err != nil {
					errCh <- fmt.Errorf("reader %d: lookup-span: %w", g, err)
					return
				}
				if sp.Start >= sp.End {
					errCh <- fmt.Errorf("reader %d: inverted span [%d, %d]", g, sp.Start, sp.End)
					return
				}
				os, err := st.OrdinalLookup(e.Start)
				if err != nil {
					errCh <- fmt.Errorf("reader %d: ordinal start: %w", g, err)
					return
				}
				oe, err := st.OrdinalLookup(e.End)
				if err != nil {
					errCh <- fmt.Errorf("reader %d: ordinal end: %w", g, err)
					return
				}
				if os >= oe {
					errCh <- fmt.Errorf("reader %d: ordinal(start)=%d >= ordinal(end)=%d", g, os, oe)
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

	want := uint64(2 * (200 + batches*insertsPer))
	if got := st.Count(); got != want {
		t.Fatalf("count = %d, want %d", got, want)
	}
	if err := st.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := st.Save(); err != nil {
		t.Fatal(err)
	}
	if err := fb.Close(); err != nil {
		t.Fatal(err)
	}

	// The whole history must be recoverable from disk: every ApplyBatch
	// ticket resolved before its caller returned, so the reopened store
	// holds exactly the final count.
	fb2, err := pager.OpenFileOpts(path, pager.FileOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	re, err := OpenExisting(fb2, Options{Durable: true})
	if err != nil {
		t.Fatal(err)
	}
	defer fb2.Close()
	if got := re.Count(); got != want {
		t.Fatalf("reopened count = %d, want %d", got, want)
	}
	if err := re.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
