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

// removeStore deletes a store file and its sidecars.
func removeStore(path string) {
	for _, suffix := range []string{"", ".crc", ".wal"} {
		os.Remove(path + suffix)
	}
}

// TestDoubleCrashMatrix cuts power a second time during recovery itself:
// for every raw write point of the scripted workload, crash there, then
// sweep every raw write point of the WAL redo that the reopen performs —
// full cuts and torn half-writes — and require that a third, unharassed
// reopen still lands fsck-clean on an exact operation boundary. Redo is
// idempotent physical replay, so no prefix of it, torn or not, may change
// which boundaries are admissible.
func TestDoubleCrashMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("double-crash sweep is not short")
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
			snapshots, writePoints := goldenRun(t, golden, cfg, baseLIDs, baseElems)
			checkPinned(t, "matrix", cfg.name, writePoints)

			redoCuts := 0
			for at := 1; at <= writePoints; at++ {
				crash := filepath.Join(dir, fmt.Sprintf("crash-%d.box", at))
				copyStore(t, base, crash)
				opsDone, crashed := runUntilCrash(t, crash, cfg, at, baseLIDs, baseElems)
				if !crashed {
					removeStore(crash)
					continue
				}

				// Probe how many raw writes the redo of this cut performs,
				// with a count-only controller on a scratch copy.
				probe := filepath.Join(dir, "probe.box")
				copyStore(t, crash, probe)
				dc := pager.NewDiskController()
				fb, err := pager.OpenFileOpts(probe, pager.FileOptions{NoSync: true, DiskControl: dc})
				if err != nil {
					t.Fatalf("at=%d: probe reopen: %v", at, err)
				}
				redoWrites := dc.Writes()
				fb.Close()
				removeStore(probe)

				for q := 1; q <= redoWrites; q++ {
					for _, torn := range []bool{false, true} {
						tag := fmt.Sprintf("%s/at=%d/redo=%d/torn=%v", cfg.name, at, q, torn)
						dbl := filepath.Join(dir, "double.box")
						copyStore(t, crash, dbl)

						kind := pager.DiskCrash
						if torn {
							kind = pager.DiskTornCrash
						}
						dc2 := pager.NewDiskController()
						dc2.PlanWrite(q, kind)
						fb2, err := pager.OpenFileOpts(dbl, pager.FileOptions{NoSync: true, DiskControl: dc2})
						if err == nil {
							// The cut landed after redo finished its writes
							// (e.g. in the WAL truncate the open tolerates);
							// the file is simply recovered.
							fb2.Close()
						} else if !errors.Is(err, pager.ErrCrashed) {
							t.Fatalf("%s: second reopen failed with a non-crash error: %v", tag, err)
						}
						redoCuts++

						// Third open runs undisturbed and must recover to the
						// same admissible boundary as a single crash would.
						checkRecovered(t, dbl, cfg, snapshots, opsDone, tag)
						removeStore(dbl)
					}
				}
				removeStore(crash)
			}
			checkPinned(t, "double/redo", cfg.name, redoCuts)
		})
	}
}

// runUntilCrash replays the script over a copy of the base store with a
// power cut planned at raw write point `at`, returning how many ops fully
// completed and whether the cut fired.
func runUntilCrash(t *testing.T, path string, cfg schemeConfig, at int, baseLIDs []order.LID, baseElems []order.ElemLIDs) (opsDone int, crashed bool) {
	t.Helper()
	ctrl := powerCut(at, false)
	fb, err := pager.OpenFileOpts(path, pager.FileOptions{NoSync: true, DiskControl: ctrl})
	if err != nil {
		t.Fatalf("at=%d: open: %v", at, err)
	}
	st, err := core.OpenExisting(fb, runtimeOpts())
	if err != nil {
		t.Fatalf("at=%d: OpenExisting: %v", at, err)
	}
	w := rebuildWorld(st, baseLIDs, baseElems)
	opsDone, err = runScript(fb, scriptOps, func(j int) error { return scriptOp(w, j) })
	if err != nil && !errors.Is(err, pager.ErrCrashed) {
		t.Fatalf("at=%d: script failed after op %d with a non-crash error: %v", at, opsDone, err)
	}
	fb.Close()
	return opsDone, ctrl.Crashed()
}

// TestDoubleCrashLongRedo cuts power during the redo of a log that holds
// every commit since the last checkpoint — 40 of them, none applied — at
// every raw write point of that redo, full and torn: the reopen after the
// second cut must still return all 40 acknowledged ops. Before commits
// stopped applying in place a redo covered one transaction; now it is the
// longest write sequence the store performs.
func TestDoubleCrashLongRedo(t *testing.T) {
	if testing.Short() {
		t.Skip("double-crash sweep is not short")
	}
	const longOps = 40
	for _, cfg := range matrix() {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			live := filepath.Join(dir, "live.box")
			baseLIDs, baseElems := buildBase(t, live, cfg)
			fb, err := pager.OpenFileOpts(live, pager.FileOptions{NoSync: true})
			if err != nil {
				t.Fatal(err)
			}
			st, err := core.OpenExisting(fb, runtimeOpts())
			if err != nil {
				t.Fatal(err)
			}
			w := rebuildWorld(st, baseLIDs, baseElems)
			for j := 0; j < longOps; j++ {
				if err := scriptOp(w, j); err != nil {
					t.Fatalf("op %d: %v", j, err)
				}
			}
			if ws := fb.WALStats(); ws.Commits != longOps || ws.Checkpoints != 0 {
				t.Fatalf("the log should hold %d unapplied commits, stats %+v", longOps, ws)
			}
			// The power cut: the files as they are, with the store still open.
			crash := filepath.Join(dir, "crash.box")
			copyStore(t, live, crash)
			snapshots := make([][]order.LID, longOps+1)
			snapshots[longOps] = append([]order.LID(nil), w.oracle.LIDs()...)
			fb.Close()

			probe := filepath.Join(dir, "probe.box")
			copyStore(t, crash, probe)
			dc := pager.NewDiskController()
			pfb, err := pager.OpenFileOpts(probe, pager.FileOptions{NoSync: true, DiskControl: dc})
			if err != nil {
				t.Fatalf("probe reopen: %v", err)
			}
			redoWrites := dc.Writes()
			if rec := pfb.RecoveryInfo(); rec.ReplayedTxns != longOps {
				t.Fatalf("redo replayed %d transactions, want %d", rec.ReplayedTxns, longOps)
			}
			pfb.Close()

			for q := 1; q <= redoWrites; q++ {
				for _, torn := range []bool{false, true} {
					tag := fmt.Sprintf("%s/redo=%d/torn=%v", cfg.name, q, torn)
					dbl := filepath.Join(dir, "double.box")
					copyStore(t, crash, dbl)
					fb2, err := pager.OpenFileOpts(dbl, pager.FileOptions{NoSync: true, DiskControl: powerCut(q, torn)})
					if err == nil {
						fb2.Close() // the cut fell on the log truncation the open tolerates losing
					} else if !errors.Is(err, pager.ErrCrashed) {
						t.Fatalf("%s: second reopen failed with a non-crash error: %v", tag, err)
					}
					checkRecovered(t, dbl, cfg, snapshots, longOps, tag)
					removeStore(dbl)
				}
			}
		})
	}
}
