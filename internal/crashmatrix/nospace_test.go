package crashmatrix

import (
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"boxes/internal/core"
	"boxes/internal/fsck"
	"boxes/internal/order"
	"boxes/internal/pager"
)

// TestNoSpaceMatrix fails exactly one raw write with ENOSPC at every
// write point of the scripted workload — its log appends, its mid-script
// checkpoint and its Close — and checks the full-disk contract (DESIGN.md
// §13): if the device filled during a log append, before the commit record
// became durable, the operation aborts cleanly to the pre-op state — the
// store is NOT read-only degraded, and retrying the op once space returns
// succeeds, ending in the exact golden final state. If the device filled
// inside a checkpoint, after every durability point, the backend is
// poisoned and a reopen recovers every acknowledged transaction from the
// WAL. Either way the file stays fsck-clean.
func TestNoSpaceMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("ENOSPC sweep is not short")
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
			if writePoints == 0 {
				t.Fatal("script performed no writes; sweep is vacuous")
			}

			aborts, poisons := 0, 0
			for at := 1; at <= writePoints; at++ {
				tag := fmt.Sprintf("%s/at=%d", cfg.name, at)
				work := filepath.Join(dir, "work.box")
				copyStore(t, base, work)

				dc := pager.NewDiskController()
				dc.PlanWrite(at, pager.DiskNoSpace)
				fb, err := pager.OpenFileOpts(work, pager.FileOptions{NoSync: true, DiskControl: dc})
				if err != nil {
					t.Fatalf("%s: open: %v", tag, err)
				}
				st, err := core.OpenExisting(fb, runtimeOpts())
				if err != nil {
					t.Fatalf("%s: OpenExisting: %v", tag, err)
				}
				w := rebuildWorld(st, baseLIDs, baseElems)

				opsDone := 0
				poisoned := false
				// checkpoint mirrors the golden run's mid-script Sync and the
				// checkpoint its Close ran, so the write points line up. A full
				// device inside one is past every durability point: typed, and
				// the backend poisoned.
				checkpoint := func() {
					if err := fb.Sync(); err != nil {
						if !errors.Is(err, pager.ErrNoSpace) || fb.Poisoned() == nil {
							t.Fatalf("%s: ENOSPC inside a checkpoint surfaced as %v (poison: %v)", tag, err, fb.Poisoned())
						}
						poisoned = true
						poisons++
					}
				}
				for j := 0; j < scriptOps && !poisoned; j++ {
					if j == scriptOps/2 {
						if checkpoint(); poisoned {
							break
						}
					}
					err := scriptOp(w, j)
					if err == nil {
						opsDone++
						continue
					}
					if !errors.Is(err, pager.ErrNoSpace) && !errors.Is(err, pager.ErrPoisoned) {
						t.Fatalf("%s: op %d failed with a non-ENOSPC error: %v", tag, j, err)
					}
					if fb.Poisoned() != nil {
						// Only a commit that itself ran a checkpoint can fill
						// the device after its own durability point; the
						// scripted log never grows that far.
						t.Fatalf("%s: op %d poisoned the backend: %v", tag, j, err)
					}
					// Clean abort: the one full write must not latch
					// read-only mode, and the op must succeed when retried
					// now that the (one-shot) device space is back.
					if st.Degraded() {
						t.Fatalf("%s: ENOSPC before the durability point degraded the store: %v", tag, st.DegradedCause())
					}
					if !errors.Is(err, pager.ErrNoSpace) {
						t.Fatalf("%s: clean abort surfaced as %v, want ErrNoSpace", tag, err)
					}
					if err := scriptOp(w, j); err != nil {
						t.Fatalf("%s: retry of op %d after ENOSPC failed: %v", tag, j, err)
					}
					aborts++
					opsDone++
				}
				if !poisoned {
					checkpoint()
				}

				if poisoned {
					fb.Close()
					checkRecovered(t, work, cfg, snapshots, opsDone, tag)
					removeStore(work)
					continue
				}
				if opsDone != scriptOps {
					t.Fatalf("%s: only %d/%d ops completed without a poison", tag, opsDone, scriptOps)
				}
				// The full script ran (with at most one mid-script abort
				// and retry): the store must sit at the golden final state.
				o := order.NewOracle()
				o.Load(snapshots[scriptOps])
				if err := o.CheckAgainst(st.Labeler(), cfg.ordinal); err != nil {
					t.Fatalf("%s: final state diverged from golden: %v", tag, err)
				}
				if err := st.CheckInvariants(); err != nil {
					t.Fatalf("%s: invariants: %v", tag, err)
				}
				if err := fb.Close(); err != nil {
					// The planned fault can land in Close's WAL truncate;
					// recovery must still be clean.
					if !errors.Is(err, pager.ErrNoSpace) && !errors.Is(err, pager.ErrPoisoned) {
						t.Fatalf("%s: close: %v", tag, err)
					}
				}
				rep, err := fsck.Check(work, fsck.Options{})
				if err != nil {
					t.Fatalf("%s: fsck: %v", tag, err)
				}
				if !rep.Clean() || len(rep.Orphans) != 0 {
					t.Fatalf("%s: fsck unclean after ENOSPC run: %v (orphans %d)", tag, rep.Problems, len(rep.Orphans))
				}
				removeStore(work)
			}
			if aborts == 0 {
				t.Fatal("no write point produced a clean ENOSPC abort; sweep is vacuous")
			}
			t.Logf("%s: %d clean aborts, %d post-durability poisons over %d write points", cfg.name, aborts, poisons, writePoints)
		})
	}
}
