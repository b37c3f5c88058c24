package crashmatrix

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"boxes/internal/core"
	"boxes/internal/order"
	"boxes/internal/pager"
	"boxes/internal/workload"
)

// The zoo crash sweep: instead of the fixed script of TestCrashMatrix,
// the operations come from the adaptive workload sources of
// internal/workload — steady-state churn (tombstone-heavy deletes) and
// the BKS bisection adversary (min-gap hammering) — and power is cut at
// every raw write point of each. The sources are deterministic functions
// of their seed and the labels they observe, and the store's state is
// deterministic up to the cut, so the crashed run performs exactly the
// golden run's op prefix and checkRecovered can hold it to an exact op
// boundary.

// zooWorld adapts the crash-matrix world to workload.View: docOrder maps
// start-tag document-order positions to element indices (elems itself is
// append-only; deletes only remove the docOrder entry).
type zooWorld struct {
	w        *world
	docOrder []int
}

// newZooWorld rebuilds the script state and recovers document order by
// sorting the base elements by their current start labels (labels are
// deterministic across replays of the same base file).
func newZooWorld(st *core.Store, baseLIDs []order.LID, baseElems []order.ElemLIDs) (*zooWorld, error) {
	z := &zooWorld{w: rebuildWorld(st, baseLIDs, baseElems)}
	labels := make([]order.Label, len(z.w.elems))
	for i, e := range z.w.elems {
		lab, err := st.Lookup(e.Start)
		if err != nil {
			return nil, fmt.Errorf("zoo world: label of base element %d: %w", i, err)
		}
		labels[i] = lab
		z.docOrder = append(z.docOrder, i)
	}
	sort.Slice(z.docOrder, func(a, b int) bool { return labels[z.docOrder[a]] < labels[z.docOrder[b]] })
	return z, nil
}

func (z *zooWorld) Len() int { return len(z.docOrder) }

func (z *zooWorld) Label(pos int) (order.Label, error) {
	return z.w.st.Lookup(z.w.elems[z.docOrder[pos]].Start)
}

func (z *zooWorld) EndLabel(pos int) (order.Label, error) {
	return z.w.st.Lookup(z.w.elems[z.docOrder[pos]].End)
}

// apply performs one positional operation on the store, mirroring it into
// the oracle only after the store succeeded (a crashed op leaves the
// oracle at the last completed boundary).
func (z *zooWorld) apply(op workload.Op) error {
	n := len(z.docOrder)
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
			e, err := z.w.st.InsertFirstElement()
			if err != nil {
				return err
			}
			z.w.oracle.InsertFirstElement(e)
			z.w.elems = append(z.w.elems, e)
			z.docOrder = append(z.docOrder[:0], len(z.w.elems)-1)
			return nil
		}
		at := z.w.elems[z.docOrder[pos]]
		ne, err := z.w.st.InsertElementBefore(at.Start)
		if err != nil {
			return err
		}
		if err := z.w.oracle.InsertElementBefore(ne, at.Start); err != nil {
			return err
		}
		z.w.elems = append(z.w.elems, ne)
		ni := len(z.w.elems) - 1
		z.docOrder = append(z.docOrder, 0)
		copy(z.docOrder[pos+1:], z.docOrder[pos:])
		z.docOrder[pos] = ni
		return nil
	case workload.Delete:
		if n == 0 {
			return nil
		}
		e := z.w.elems[z.docOrder[pos]]
		if err := z.w.st.DeleteElement(e); err != nil {
			return err
		}
		z.w.oracle.Delete(e.Start)
		z.w.oracle.Delete(e.End)
		z.docOrder = append(z.docOrder[:pos], z.docOrder[pos+1:]...)
		return nil
	case workload.Lookup:
		if n == 0 {
			return nil
		}
		_, err := z.w.st.Lookup(z.w.elems[z.docOrder[pos]].Start)
		return err
	}
	return fmt.Errorf("zoo world: unknown op kind %d", op.Kind)
}

const zooOps = 6

// next draws the source's next op and applies it.
func (z *zooWorld) next(src workload.Source) error {
	op, err := src.Next(z)
	if err != nil {
		return err
	}
	if err := z.apply(op); err != nil {
		return fmt.Errorf("%s op (%s @%d): %w", src.Name(), op.Kind, op.Pos, err)
	}
	return nil
}

// zooSource is one workload column of the sweep. Constructors, not
// values: every golden and crashed run needs a fresh source replaying the
// same decisions.
type zooSource struct {
	name string
	mk   func() workload.Source
}

func zooSources() []zooSource {
	return []zooSource{
		// Churn with target below the base size: a burst of tombstoning
		// deletes down to the low-water mark, then refill.
		{"churn", func() workload.Source { return workload.NewChurn(3, 6) }},
		// The bisection adversary: every insert lands in the tightest
		// label gap the labeler currently exposes.
		{"bisect", func() workload.Source { return workload.NewBisect(4) }},
	}
}

// zooGoldenRun replays the full zoo workload without crashing, counting
// raw write points and snapshotting the oracle after every op.
func zooGoldenRun(t *testing.T, path string, src workload.Source, baseLIDs []order.LID, baseElems []order.ElemLIDs) (snapshots [][]order.LID, writePoints int) {
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
	z, err := newZooWorld(st, baseLIDs, baseElems)
	if err != nil {
		t.Fatal(err)
	}
	snapshots = append(snapshots, append([]order.LID(nil), z.w.oracle.LIDs()...))
	if done, err := runScript(fb, zooOps, func(int) error {
		err := z.next(src)
		snapshots = append(snapshots, append([]order.LID(nil), z.w.oracle.LIDs()...))
		return err
	}); err != nil {
		t.Fatalf("golden %s run after op %d: %v", src.Name(), done, err)
	}
	if err := fb.Close(); err != nil {
		t.Fatal(err)
	}
	return snapshots, ctrl.Writes()
}

// TestZooCrashSweep cuts power at every raw write point of the churn and
// adversary workloads, on every scheme, with full cuts and torn writes,
// and holds the recovered store to an exact op boundary of the golden
// run.
func TestZooCrashSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("zoo crash sweep is not short")
	}
	for _, cfg := range matrix() {
		for _, zs := range zooSources() {
			cfg, zs := cfg, zs
			t.Run(cfg.name+"/"+zs.name, func(t *testing.T) {
				t.Parallel()
				dir := t.TempDir()
				base := filepath.Join(dir, "base.box")
				baseLIDs, baseElems := buildBase(t, base, cfg)

				golden := filepath.Join(dir, "golden.box")
				copyStore(t, base, golden)
				snapshots, writePoints := zooGoldenRun(t, golden, zs.mk(), baseLIDs, baseElems)
				checkPinned(t, "zoo/"+zs.name, cfg.name, writePoints)

				for _, torn := range []bool{false, true} {
					for at := 1; at <= writePoints; at++ {
						tag := fmt.Sprintf("%s/%s/at=%d/torn=%v", cfg.name, zs.name, at, torn)
						crash := filepath.Join(dir, fmt.Sprintf("crash-%d-%v.box", at, torn))
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
						z, err := newZooWorld(st, baseLIDs, baseElems)
						if err != nil {
							t.Fatalf("%s: %v", tag, err)
						}
						src := zs.mk()
						opsDone, err := runScript(fb, zooOps, func(int) error { return z.next(src) })
						if err != nil && !errors.Is(err, pager.ErrCrashed) {
							t.Fatalf("%s: script failed after op %d with a non-crash error: %v", tag, opsDone, err)
						}
						fb.Close() // errors expected after a cut
						if !ctrl.Crashed() {
							t.Fatalf("%s: the cut never fired (%d ops done)", tag, opsDone)
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
}
