package core

import (
	"errors"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"boxes/internal/order"
	"boxes/internal/pager"
	"boxes/internal/xmlgen"
)

// openDurableBatch creates a durable file-backed WBox store for the batch
// tests and bootstraps one element.
func openDurableBatch(t *testing.T, dur *pager.Durability) (*Store, *pager.FileBackend, order.ElemLIDs) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "batch.boxes")
	fb, err := pager.CreateFileOpts(path, pager.FileOptions{BlockSize: 512, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	st, err := Open(Options{
		Scheme: SchemeWBox, BlockSize: 512,
		Backend: fb, Durable: true, Durability: dur,
	})
	if err != nil {
		t.Fatal(err)
	}
	root, err := st.InsertFirstElement()
	if err != nil {
		t.Fatal(err)
	}
	return st, fb, root
}

// TestApplyBatchOneTransaction verifies the point of the batch API: N
// mutations commit as ONE WAL transaction — one commit record, one
// durability point, and no other fsync or in-place write — instead of N.
func TestApplyBatchOneTransaction(t *testing.T) {
	st, fb, root := openDurableBatch(t, nil)
	defer fb.Close()

	before := fb.WALStats()
	ops := []Op{
		{Kind: OpInsertBefore, LID: root.End},
		{Kind: OpInsertBefore, LID: root.End},
		{Kind: OpInsertBefore, LID: root.End},
		{Kind: OpLookupSpan, Elem: root},
		{Kind: OpInsertBefore, LID: root.Start},
	}
	results, err := st.ApplyBatch(ops)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(ops) {
		t.Fatalf("got %d results, want %d", len(results), len(ops))
	}
	if sp := results[3].Span; sp.Start >= sp.End {
		t.Fatalf("inverted span %+v", sp)
	}
	after := fb.WALStats()
	if got := after.Commits - before.Commits; got != 1 {
		t.Fatalf("batch of %d ops used %d WAL commits, want 1", len(ops), got)
	}
	if got := after.Syncs - before.Syncs; got != 1 {
		t.Fatalf("batch of %d ops used %d WAL fsyncs, want 1", len(ops), got)
	}
	if after.DataSyncs != before.DataSyncs || after.HeaderWrites != before.HeaderWrites || after.DataBytes != before.DataBytes {
		t.Fatalf("the batch's commit touched the data file (a checkpoint's job): before %+v, after %+v", before, after)
	}
	if got, want := st.Count(), uint64(2*5); got != want {
		t.Fatalf("count = %d, want %d", got, want)
	}
	if err := st.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestApplyBatchAtomicOnFailure verifies abort-on-error: when an op inside
// a batch fails, nothing of the batch reaches the backend — a reopened
// store shows the exact pre-batch state.
func TestApplyBatchAtomicOnFailure(t *testing.T) {
	st, fb, root := openDurableBatch(t, nil)
	countBefore := st.Count()

	ops := []Op{
		{Kind: OpInsertBefore, LID: root.End},
		{Kind: OpInsertBefore, LID: root.End},
		{Kind: OpLookup, LID: order.LID(1 << 40)}, // unknown LID: fails
		{Kind: OpInsertBefore, LID: root.End},
	}
	_, err := st.ApplyBatch(ops)
	if err == nil {
		t.Fatal("batch with a bad op succeeded")
	}
	var be *BatchError
	if !errors.As(err, &be) {
		t.Fatalf("error %v is not a BatchError", err)
	}
	if be.Index != 2 || be.Kind != OpLookup {
		t.Fatalf("BatchError pinpoints op %d (%s), want op 2 (lookup)", be.Index, be.Kind)
	}

	// The failed batch must not have committed its prefix: reopen from disk
	// and verify the pre-batch state.
	path := fb.Path()
	if err := fb.Close(); err != nil {
		t.Fatal(err)
	}
	fb2, err := pager.OpenFileOpts(path, pager.FileOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer fb2.Close()
	re, err := OpenExisting(fb2, Options{Durable: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := re.Count(); got != countBefore {
		t.Fatalf("reopened count = %d, want pre-batch %d", got, countBefore)
	}
	if err := re.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if _, err := re.LookupSpan(root); err != nil {
		t.Fatalf("pre-batch element lost: %v", err)
	}
}

// TestApplyBatchGroupPrefix verifies group-commit crash semantics at the
// core level: several batches queued into one held group recover as a
// clean prefix of batches after the group is cut — never a partial batch.
func TestApplyBatchGroupPrefix(t *testing.T) {
	st, fb, root := openDurableBatch(t, &pager.Durability{Every: 8})

	// Queue three batches into one held group.
	before := fb.WALStats()
	for i, err := range queueBehindHold(t, fb, 3, func(int) error {
		_, err := st.ApplyBatch([]Op{
			{Kind: OpInsertBefore, LID: root.End},
			{Kind: OpInsertBefore, LID: root.Start},
		})
		return err
	}) {
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}

	stats := fb.WALStats()
	if g, n := stats.GroupCommits-before.GroupCommits, stats.GroupedTxns-before.GroupedTxns; g != 1 || n != 3 {
		t.Fatalf("3 held batches flushed as %d groups of %d txns, want 1 group of 3", g, n)
	}
	if got, want := st.Count(), uint64(2+3*4); got != want {
		t.Fatalf("count = %d, want %d", got, want)
	}
	path := fb.Path()
	if err := fb.Close(); err != nil {
		t.Fatal(err)
	}
	fb2, err := pager.OpenFileOpts(path, pager.FileOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer fb2.Close()
	re, err := OpenExisting(fb2, Options{Durable: true})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := re.Count(), uint64(2+3*4); got != want {
		t.Fatalf("reopened count = %d, want %d", got, want)
	}
	if err := re.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// queueBehindHold runs n writes from goroutines while the group committer
// is held, waits until all n transactions sit in its queue (each writer
// then waits for its ticket outside the store lock), releases the
// committer and returns the writes' errors.
func queueBehindHold(t *testing.T, fb *pager.FileBackend, n int, write func(i int) error) []error {
	t.Helper()
	fb.HoldGroupCommit(true)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = write(i)
		}(i)
	}
	deadline := time.Now().Add(10 * time.Second)
	queued := 0
	for queued < n && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
		queued = fb.GroupQueueStats().QueueDepth
	}
	fb.HoldGroupCommit(false)
	wg.Wait()
	if queued < n {
		t.Fatalf("only %d of %d writes reached the held commit queue in 10 s", queued, n)
	}
	return errs
}

// TestLoadBatchedCoalesces checks that a sequential LoadBatched over a
// group-committing store still shares fsyncs: it waits only for its last
// batch's ticket, so the committer groups the stream.
func TestLoadBatchedCoalesces(t *testing.T) {
	fb, err := pager.CreateFileOpts(filepath.Join(t.TempDir(), "load.boxes"), pager.FileOptions{BlockSize: 512, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	st, err := Open(Options{
		Scheme: SchemeWBox, BlockSize: 512,
		Backend: fb, Durable: true, Durability: &pager.Durability{Every: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	before := fb.WALStats()
	if _, err := st.LoadBatched(xmlgen.TwoLevel(400), 4); err != nil {
		t.Fatal(err)
	}
	ws := fb.WALStats()
	commits, groups := ws.Commits-before.Commits, ws.GroupCommits-before.GroupCommits
	if groups == 0 || groups >= commits {
		t.Fatalf("%d batch commits flushed in %d groups, want fewer groups than commits", commits, groups)
	}
	if err := st.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestLoadBatchedMatchesLoad verifies that the incremental batch loader
// produces the same labeled document as the bulk loader: same element
// count, same relative label order, and working span queries.
func TestLoadBatchedMatchesLoad(t *testing.T) {
	tree := xmlgen.TwoLevel(60)

	bulk, err := Open(Options{Scheme: SchemeBBox, BlockSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	bulkDoc, err := bulk.Load(tree)
	if err != nil {
		t.Fatal(err)
	}

	for _, batch := range []int{1, 7, 64} {
		st, err := Open(Options{Scheme: SchemeWBox, BlockSize: 512})
		if err != nil {
			t.Fatal(err)
		}
		doc, err := st.LoadBatched(tree, batch)
		if err != nil {
			t.Fatalf("batch=%d: %v", batch, err)
		}
		if got, want := st.Count(), bulk.Count(); got != want {
			t.Fatalf("batch=%d: count = %d, want %d", batch, got, want)
		}
		if err := st.CheckInvariants(); err != nil {
			t.Fatalf("batch=%d: %v", batch, err)
		}
		if len(doc.Elems) != len(bulkDoc.Elems) {
			t.Fatalf("batch=%d: %d elems, want %d", batch, len(doc.Elems), len(bulkDoc.Elems))
		}
		// Every element's span must enclose its children's spans exactly as
		// in the bulk-loaded document: compare the preorder sequence of
		// start/end ordinal ranks.
		for i, e := range doc.Elems {
			sp, err := st.LookupSpan(e)
			if err != nil {
				t.Fatalf("batch=%d elem %d: %v", batch, i, err)
			}
			if sp.Start >= sp.End {
				t.Fatalf("batch=%d elem %d: inverted span %+v", batch, i, sp)
			}
		}
		// Root must enclose everything.
		rootSp, err := st.LookupSpan(doc.Elems[0])
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(doc.Elems); i++ {
			sp, _ := st.LookupSpan(doc.Elems[i])
			if sp.Start <= rootSp.Start || sp.End >= rootSp.End {
				t.Fatalf("batch=%d elem %d: span %+v escapes root %+v", batch, i, sp, rootSp)
			}
		}
	}
}
