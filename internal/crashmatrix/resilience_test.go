// Resilience acceptance tests over the crash-matrix harness: the same
// scripted workload and oracle, but instead of cutting power the device
// misbehaves while the process keeps running — transient write faults that
// must abort their op cleanly and leave the store writable, a permanent
// write fault that must flip the
// store into read-only degraded mode with lookups still serving the
// committed prefix, a hot backup taken while a writer is mid-workload,
// and checksum corruption surfacing as typed errors under concurrent
// readers.
package crashmatrix

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"boxes/internal/core"
	"boxes/internal/faults"
	"boxes/internal/fsck"
	"boxes/internal/obs"
	"boxes/internal/order"
	"boxes/internal/pager"
)

// TestTransientFaultSweep injects a transient fault into every k-th raw
// block write, for a sweep of k, on every scheme. Nothing inside the store
// retries: each fault fails its op with an error that classifies
// Transient, the op aborts cleanly to the committed state (counted by
// core_op_aborts_total) and the store stays writable, so re-issuing the
// same op — as serve.Client does — succeeds. The re-issue runs with the
// schedule paused: an op writes several blocks, so at small k every
// attempt on the flaky device would take a fault of its own. The final
// labels must match the oracle exactly.
func TestTransientFaultSweep(t *testing.T) {
	for _, cfg := range matrix() {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			base := filepath.Join(dir, "base.box")
			baseLIDs, baseElems := buildBase(t, base, cfg)

			totalInjected := 0
			for _, k := range []int{2, 3, 5, 7, 13} {
				tag := fmt.Sprintf("%s/k=%d", cfg.name, k)
				work := filepath.Join(dir, fmt.Sprintf("k%d.box", k))
				copyStore(t, base, work)

				fb, err := pager.OpenFileOpts(work, pager.FileOptions{NoSync: true})
				if err != nil {
					t.Fatalf("%s: open: %v", tag, err)
				}
				sched := faults.NewSchedule(int64(k))
				sched.FailEveryKth(k, faults.ModeTransient, faults.OpWrite)
				rt := runtimeOpts()
				rt.Metrics = obs.NewRegistry()
				st, err := core.OpenExisting(pager.NewFaultBackend(fb, sched), rt)
				if err != nil {
					t.Fatalf("%s: OpenExisting: %v", tag, err)
				}
				w := rebuildWorld(st, baseLIDs, baseElems)
				failed := 0
				for j := 0; j < scriptOps; j++ {
					err := scriptOp(w, j)
					if err == nil {
						continue
					}
					failed++
					if !errors.Is(err, pager.ErrInjected) || faults.Classify(err) != faults.Transient {
						t.Fatalf("%s: op %d failed with %v, want an injected transient fault", tag, j, err)
					}
					if st.Degraded() {
						t.Fatalf("%s: op %d: a transient fault flipped degraded mode (cause: %v)",
							tag, j, st.DegradedCause())
					}
					if got := rt.Metrics.Counter(obs.CtrCoreOpAborts); got != uint64(failed) {
						t.Fatalf("%s: op %d: core_op_aborts_total = %d after %d failed ops", tag, j, got, failed)
					}
					sched.FailEveryKth(0, faults.ModeTransient)
					if err := scriptOp(w, j); err != nil {
						t.Fatalf("%s: re-issued op %d: %v", tag, j, err)
					}
					sched.FailEveryKth(k, faults.ModeTransient, faults.OpWrite)
				}
				if st.Degraded() {
					t.Fatalf("%s: transient faults must not flip degraded mode (cause: %v)",
						tag, st.DegradedCause())
				}
				if err := st.CheckInvariants(); err != nil {
					t.Fatalf("%s: invariants: %v", tag, err)
				}
				if err := w.oracle.CheckAgainst(st.Labeler(), cfg.ordinal); err != nil {
					t.Fatalf("%s: final labels diverge from the oracle: %v", tag, err)
				}
				var prev order.Label
				for i, lid := range w.oracle.LIDs() {
					lab, err := st.Lookup(lid)
					if err != nil {
						t.Fatalf("%s: lookup of %d: %v", tag, lid, err)
					}
					if i > 0 && lab <= prev {
						t.Fatalf("%s: lookups out of order at %d", tag, i)
					}
					prev = lab
				}
				// A scheme whose script performs fewer than k writes cannot
				// trip the every-k-th rule; the aggregate check below keeps
				// the sweep honest.
				if sched.Injected() == 0 && sched.Writes() >= k {
					t.Fatalf("%s: %d writes ran but no fault ever fired", tag, sched.Writes())
				}
				if sched.Injected() > 0 && failed == 0 {
					t.Fatalf("%s: %d faults fired but no op failed", tag, sched.Injected())
				}
				totalInjected += sched.Injected()
				if err := st.Close(); err != nil {
					t.Fatalf("%s: close: %v", tag, err)
				}
				os.Remove(work)
				os.Remove(work + ".crc")
				os.Remove(work + ".wal")
			}
			if totalInjected == 0 {
				t.Fatal("no fault fired at any k; the sweep is vacuous")
			}
		})
	}
}

// TestPermanentWriteFaultDegrades lands a permanent fault on a raw write
// in the middle of the workload. The failing operation must surface the
// injected error, the store must flip into read-only degraded mode —
// mutations rejected with the typed ErrReadOnly — while lookups keep
// answering exactly the committed prefix; and after ClearDegraded over a
// healed device the script resumes to the full oracle state.
func TestPermanentWriteFaultDegrades(t *testing.T) {
	for _, cfg := range matrix() {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			base := filepath.Join(dir, "base.box")
			baseLIDs, baseElems := buildBase(t, base, cfg)

			// Probe pass: count the script's raw writes on an identical
			// copy, so the fault lands mid-workload deterministically.
			probe := filepath.Join(dir, "probe.box")
			copyStore(t, base, probe)
			pfb, err := pager.OpenFileOpts(probe, pager.FileOptions{NoSync: true})
			if err != nil {
				t.Fatal(err)
			}
			psched := faults.NewSchedule(1) // no rules: pure pass-through counter
			pst, err := core.OpenExisting(pager.NewFaultBackend(pfb, psched), runtimeOpts())
			if err != nil {
				t.Fatal(err)
			}
			pw := rebuildWorld(pst, baseLIDs, baseElems)
			for j := 0; j < scriptOps; j++ {
				if err := scriptOp(pw, j); err != nil {
					t.Fatalf("probe op %d: %v", j, err)
				}
			}
			totalWrites := psched.Writes()
			if err := pst.Close(); err != nil {
				t.Fatal(err)
			}
			if totalWrites < 4 {
				t.Fatalf("script performs only %d writes; a mid-workload fault cannot land", totalWrites)
			}
			failAt := totalWrites / 2

			work := filepath.Join(dir, "degraded.box")
			copyStore(t, base, work)
			fb, err := pager.OpenFileOpts(work, pager.FileOptions{NoSync: true})
			if err != nil {
				t.Fatal(err)
			}
			sched := faults.NewSchedule(7)
			sched.FailEveryKth(failAt, faults.ModePermanent, faults.OpWrite)
			rt := runtimeOpts()
			rt.Metrics = obs.NewRegistry()
			st, err := core.OpenExisting(pager.NewFaultBackend(fb, sched), rt)
			if err != nil {
				t.Fatal(err)
			}
			w := rebuildWorld(st, baseLIDs, baseElems)
			opsDone := 0
			var opErr error
			for j := 0; j < scriptOps; j++ {
				if err := scriptOp(w, j); err != nil {
					opErr = err
					break
				}
				opsDone++
			}
			if opErr == nil {
				t.Fatalf("fault armed at write %d of %d never surfaced", failAt, totalWrites)
			}
			if !errors.Is(opErr, pager.ErrInjected) {
				t.Fatalf("failing op returned %v, want the injected fault", opErr)
			}
			if !st.Degraded() {
				t.Fatal("permanent write fault did not flip degraded mode")
			}
			if st.DegradedCause() == nil {
				t.Fatal("degraded mode reports no cause")
			}
			if got := rt.Metrics.Counter(obs.CtrCoreDegraded); got != 1 {
				t.Fatalf("degraded counter = %d, want 1", got)
			}

			// Mutations are rejected with the typed sentinel...
			if _, err := st.InsertElementBefore(w.elems[0].End); !errors.Is(err, core.ErrReadOnly) {
				t.Fatalf("mutation in degraded mode returned %v, want ErrReadOnly", err)
			}
			if err := st.Save(); !errors.Is(err, core.ErrReadOnly) {
				t.Fatalf("Save in degraded mode returned %v, want ErrReadOnly", err)
			}

			// ...while lookups keep serving exactly the committed prefix:
			// the oracle mirror holds the opsDone completed operations.
			if err := w.oracle.CheckAgainst(st.Labeler(), cfg.ordinal); err != nil {
				t.Fatalf("degraded lookups diverge from the %d-op oracle: %v", opsDone, err)
			}
			var prev order.Label
			for i, lid := range w.oracle.LIDs() {
				lab, err := st.Lookup(lid)
				if err != nil {
					t.Fatalf("degraded lookup of %d: %v", lid, err)
				}
				if i > 0 && lab <= prev {
					t.Fatalf("degraded lookups out of order at %d", i)
				}
				prev = lab
			}

			// Heal the device and resume: the failed op and the rest of the
			// script must complete from the committed prefix.
			sched.FailEveryKth(0, faults.ModePermanent, faults.OpWrite)
			st.ClearDegraded()
			for j := opsDone; j < scriptOps; j++ {
				if err := scriptOp(w, j); err != nil {
					t.Fatalf("op %d after recovery: %v", j, err)
				}
			}
			if err := st.CheckInvariants(); err != nil {
				t.Fatalf("invariants after recovery: %v", err)
			}
			if err := w.oracle.CheckAgainst(st.Labeler(), cfg.ordinal); err != nil {
				t.Fatalf("labels after recovery diverge from the oracle: %v", err)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// syncWorld mirrors world over a SyncStore, for scripts driven from a
// writer goroutine while other goroutines read or back up.
type syncWorld struct {
	ss     *core.SyncStore
	oracle *order.Oracle
	elems  []order.ElemLIDs
}

// syncScriptOp is scriptOp routed through the SyncStore's locked mutators.
func syncScriptOp(w *syncWorld, j int) error {
	if j == 3 {
		e := w.elems[len(w.elems)-1]
		if err := w.ss.DeleteElement(e); err != nil {
			return err
		}
		w.elems = w.elems[:len(w.elems)-1]
		w.oracle.Delete(e.Start)
		w.oracle.Delete(e.End)
		return nil
	}
	at := w.elems[(j*3)%4]
	ne, err := w.ss.InsertElementBefore(at.End)
	if err != nil {
		return err
	}
	if err := w.oracle.InsertElementBefore(ne, at.End); err != nil {
		return err
	}
	w.elems = append(w.elems, ne)
	return nil
}

// TestHotBackupDuringWorkload snapshots the store while a writer is in the
// middle of the script. The backup must verify fsck-clean, open without
// any WAL replay, and hold exactly the labels of some operation boundary
// between the last op known finished before the copy and the first known
// after it.
func TestHotBackupDuringWorkload(t *testing.T) {
	for _, cfg := range matrix() {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			base := filepath.Join(dir, "base.box")
			baseLIDs, baseElems := buildBase(t, base, cfg)

			// LID allocation is deterministic, so a clean replay on a copy
			// yields the oracle state after every op boundary.
			golden := filepath.Join(dir, "golden.box")
			copyStore(t, base, golden)
			snapshots, _ := goldenRun(t, golden, cfg, baseLIDs, baseElems)

			work := filepath.Join(dir, "work.box")
			copyStore(t, base, work)
			fb, err := pager.OpenFileOpts(work, pager.FileOptions{NoSync: true})
			if err != nil {
				t.Fatal(err)
			}
			st, err := core.OpenExisting(fb, runtimeOpts())
			if err != nil {
				t.Fatal(err)
			}
			ss := core.NewSyncStore(st)

			var done atomic.Int32
			werrc := make(chan error, 1)
			go func() {
				defer close(werrc)
				w := &syncWorld{ss: ss, oracle: order.NewOracle()}
				w.oracle.Load(baseLIDs)
				w.elems = append(w.elems, baseElems...)
				for j := 0; j < scriptOps; j++ {
					if err := syncScriptOp(w, j); err != nil {
						werrc <- fmt.Errorf("writer op %d: %w", j, err)
						return
					}
					done.Add(1)
					time.Sleep(time.Millisecond)
				}
			}()

			for done.Load() < 2 {
				time.Sleep(100 * time.Microsecond)
			}
			lo := int(done.Load())
			backup := filepath.Join(dir, "backup.box")
			if err := ss.Backup(backup); err != nil {
				t.Fatalf("hot backup: %v", err)
			}
			hi := int(done.Load())
			if err, ok := <-werrc; ok && err != nil {
				t.Fatal(err)
			}
			if err := ss.Close(); err != nil {
				t.Fatal(err)
			}

			rep, err := fsck.Check(backup, fsck.Options{})
			if err != nil {
				t.Fatalf("fsck over the backup: %v", err)
			}
			if !rep.Clean() {
				t.Fatalf("backup is fsck-unclean: %v", rep.Problems)
			}
			bfb, err := pager.OpenFile(backup)
			if err != nil {
				t.Fatalf("open backup: %v", err)
			}
			defer bfb.Close()
			if rec := bfb.RecoveryInfo(); rec.Replayed || rec.DiscardedBytes > 0 {
				t.Fatalf("backup needed WAL recovery: %+v", rec)
			}
			bst, err := core.OpenExisting(bfb, runtimeOpts())
			if err != nil {
				t.Fatalf("OpenExisting over backup: %v", err)
			}
			if err := bst.CheckInvariants(); err != nil {
				t.Fatalf("backup invariants: %v", err)
			}

			// The copy ran between operations (mutators are excluded), so it
			// must sit at an exact boundary in [lo, hi+1]: the counter is
			// bumped after an op returns, so op hi+1 may have committed
			// before the copy started.
			hiK := hi + 1
			if hiK > scriptOps {
				hiK = scriptOps
			}
			var errs []string
			matched := -1
			for k := lo; k <= hiK; k++ {
				o := order.NewOracle()
				o.Load(snapshots[k])
				if err := o.CheckAgainst(bst.Labeler(), cfg.ordinal); err != nil {
					errs = append(errs, fmt.Sprintf("k=%d: %v", k, err))
					continue
				}
				matched = k
				break
			}
			if matched < 0 {
				t.Fatalf("backup matches no op boundary in [%d, %d]: %v", lo, hiK, errs)
			}
		})
	}
}

// TestCorruptReadsTypedUnderConcurrentReaders corrupts every data block
// under a live SyncStore and hammers it from concurrent readers: every
// lookup must either return the exact pre-corruption label or fail with
// the typed pager.ErrCorrupt — never a wrong or partial label. A mutation
// racing the readers hits the corruption on its write path and must flip
// the store into degraded mode. Run under -race in CI.
func TestCorruptReadsTypedUnderConcurrentReaders(t *testing.T) {
	cfg := matrix()[0] // wbox: every lookup does real block I/O
	dir := t.TempDir()
	path := filepath.Join(dir, "store.box")
	baseLIDs, baseElems := buildBase(t, path, cfg)

	fb, err := pager.OpenFileOpts(path, pager.FileOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer fb.Close()
	// Caching off and no block LRU: reads must reach the (corrupt) disk.
	st, err := core.OpenExisting(fb, core.Options{Durable: true})
	if err != nil {
		t.Fatal(err)
	}
	ss := core.NewSyncStore(st)

	// Expected labels before corruption; no mutation succeeds afterwards,
	// so they stay the only admissible lookup answers.
	expected := make(map[order.LID]order.Label, len(baseLIDs))
	for _, lid := range baseLIDs {
		lab, err := ss.Lookup(lid)
		if err != nil {
			t.Fatal(err)
		}
		expected[lid] = lab
	}

	// Rot every data block through a separate descriptor, under the open
	// store's feet (block 0 is the header; checksums live in the sidecar,
	// so the mismatch is detectable on every read).
	raw, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	junk := bytes.Repeat([]byte{0xAA}, blockSize)
	for id := pager.BlockID(1); id < fb.Bound(); id++ {
		if _, err := raw.WriteAt(junk, int64(id)*int64(blockSize)); err != nil {
			t.Fatal(err)
		}
	}
	if err := raw.Close(); err != nil {
		t.Fatal(err)
	}

	var corrupt atomic.Int64
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for pass := 0; pass < 25; pass++ {
				for _, lid := range baseLIDs {
					lab, err := ss.Lookup(lid)
					if err != nil {
						if !errors.Is(err, pager.ErrCorrupt) {
							t.Errorf("lookup of %d: error is not typed ErrCorrupt: %v", lid, err)
						}
						corrupt.Add(1)
						continue
					}
					if lab != expected[lid] {
						t.Errorf("lookup of %d: wrong label %v (want %v) instead of a typed error",
							lid, lab, expected[lid])
					}
				}
			}
		}()
	}

	// A mutation races the readers, hits the corruption on its write path,
	// and flips the store read-only; the readers above keep running.
	if _, err := ss.InsertElementBefore(baseElems[0].End); !errors.Is(err, pager.ErrCorrupt) {
		t.Fatalf("mutation over corrupt blocks returned %v, want ErrCorrupt", err)
	}
	if !ss.Degraded() {
		t.Fatal("write-path corruption did not flip degraded mode")
	}
	if _, err := ss.InsertElementBefore(baseElems[0].End); !errors.Is(err, core.ErrReadOnly) {
		t.Fatalf("mutation in degraded mode returned %v, want ErrReadOnly", err)
	}
	wg.Wait()
	if corrupt.Load() == 0 {
		t.Fatal("no corrupt read was ever observed; the sweep is vacuous")
	}
}
