package crashmatrix

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"boxes/internal/core"
	"boxes/internal/order"
	"boxes/internal/pager"
)

const batchScriptOps = 4

// batchScriptOp applies the j-th scripted ApplyBatch (two inserts and a
// read per batch) and mirrors it into the oracle. Targets depend only on j
// and the element list, so crashed and golden runs perform identical work.
func batchScriptOp(w *world, j int) error {
	at1 := w.elems[(j*3)%4]
	at2 := w.elems[(j*5+1)%4]
	ops := []core.Op{
		{Kind: core.OpInsertBefore, LID: at1.End},
		{Kind: core.OpInsertBefore, LID: at2.End},
		{Kind: core.OpLookupSpan, Elem: at1},
	}
	results, err := w.st.ApplyBatch(ops)
	if err != nil {
		return err
	}
	for k, op := range ops {
		if op.Kind != core.OpInsertBefore {
			continue
		}
		e := results[k].Elem
		if err := w.oracle.InsertElementBefore(e, op.LID); err != nil {
			return fmt.Errorf("oracle mirror: %w", err)
		}
		w.elems = append(w.elems, e)
	}
	return nil
}

// goldenGroupRun replays the batch script without crashing, counting raw
// write points and snapshotting the oracle after every batch. snapshots[k]
// is the oracle LID order after k complete batches.
func goldenGroupRun(t *testing.T, path string, baseLIDs []order.LID, baseElems []order.ElemLIDs) (snapshots [][]order.LID, writePoints int) {
	t.Helper()
	ctrl := powerCut(0, false)
	fb, err := pager.OpenFileOpts(path, pager.FileOptions{NoSync: true, DiskControl: ctrl})
	if err != nil {
		t.Fatal(err)
	}
	st, err := core.OpenExisting(fb, runtimeOpts())
	if err != nil {
		t.Fatal(err)
	}
	w := rebuildWorld(st, baseLIDs, baseElems)
	snapshots = append(snapshots, append([]order.LID(nil), w.oracle.LIDs()...))
	if done, err := runScript(fb, batchScriptOps, func(j int) error {
		err := batchScriptOp(w, j)
		snapshots = append(snapshots, append([]order.LID(nil), w.oracle.LIDs()...))
		return err
	}); err != nil {
		t.Fatalf("golden run after batch %d: %v", done, err)
	}
	if err := fb.Close(); err != nil {
		t.Fatal(err)
	}
	return snapshots, ctrl.Writes()
}

// TestCrashMatrixGroupCommit extends the crash matrix to ApplyBatch, the
// one layer that groups operations into a commit: every scheme, a scripted
// workload of multi-op batches committed inline, power cut at every write
// point of the commits and of the checkpoints, mid-script and at Close —
// full cuts and torn half-writes. The recovered store must sit at an exact
// BATCH boundary — all completed batches plus possibly the in-flight one if its
// commit record was durable — never at a partial batch: a batch's
// mutations share one WAL transaction, so recovery replays all of it or
// none of it.
func TestCrashMatrixGroupCommit(t *testing.T) {
	if testing.Short() {
		t.Skip("crash matrix sweep is not short")
	}
	for _, cfg := range matrix() {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			base := filepath.Join(dir, "base.box")
			baseLIDs, baseElems := buildBase(t, base, cfg)

			golden := filepath.Join(dir, "golden.box")
			copyStore(t, base, golden)
			snapshots, writePoints := goldenGroupRun(t, golden, baseLIDs, baseElems)
			checkPinned(t, "group", cfg.name, writePoints)

			for _, torn := range []bool{false, true} {
				for at := 1; at <= writePoints; at++ {
					tag := fmt.Sprintf("%s/group/at=%d/torn=%v", cfg.name, at, torn)
					crash := filepath.Join(dir, fmt.Sprintf("gcrash-%d-%v.box", at, torn))
					copyStore(t, base, crash)

					ctrl := powerCut(at, torn)
					fb, err := pager.OpenFileOpts(crash, pager.FileOptions{NoSync: true, DiskControl: ctrl})
					if err != nil {
						t.Fatalf("%s: open: %v", tag, err)
					}
					st, err := core.OpenExisting(fb, runtimeOpts())
					if err != nil {
						t.Fatalf("%s: OpenExisting: %v", tag, err)
					}
					w := rebuildWorld(st, baseLIDs, baseElems)
					opsDone, err := runScript(fb, batchScriptOps, func(j int) error { return batchScriptOp(w, j) })
					if err != nil && !errors.Is(err, pager.ErrCrashed) {
						t.Fatalf("%s: script failed after batch %d with a non-crash error: %v", tag, opsDone, err)
					}
					fb.Close() // errors expected after a cut; descriptors still close
					if !ctrl.Crashed() {
						t.Fatalf("%s: the cut never fired (%d batches done)", tag, opsDone)
					}
					checkRecovered(t, crash, cfg, snapshots, opsDone, tag)
					os.Remove(crash)
					os.Remove(crash + ".crc")
					os.Remove(crash + ".wal")
				}
			}
		})
	}
}
