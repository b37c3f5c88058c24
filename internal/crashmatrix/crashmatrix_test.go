// Package crashmatrix is the end-to-end crash harness of the durability
// work: for every labeling scheme (block LRU on) it runs a
// scripted update workload over a durable file-backed store, cuts power at
// every raw write point — full cuts and torn half-writes — reopens the
// file through normal recovery, and checks that boxfsck-level
// verification passes and that every label and its order matches the
// no-crash oracle at an exact operation boundary (the k ops that finished
// before the cut, or k+1 when the commit record was already durable).
package crashmatrix

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"boxes/internal/core"
	"boxes/internal/fsck"
	"boxes/internal/order"
	"boxes/internal/pager"
)

const blockSize = 512

// powerCut returns a disk controller that cuts power at the at-th raw write
// point (0 = never: it only counts, which is how a sweep discovers its
// range), persisting only the first half of the fatal write when torn.
func powerCut(at int, torn bool) *pager.DiskController {
	dc := pager.NewDiskController()
	if at > 0 {
		kind := pager.DiskCrash
		if torn {
			kind = pager.DiskTornCrash
		}
		dc.PlanWrite(at, kind)
	}
	return dc
}

// schemeConfig is one row of the crash matrix.
type schemeConfig struct {
	name    string
	opts    core.Options // structural options for the initial build
	ordinal bool         // check ordinal labels against oracle positions
}

func matrix() []schemeConfig {
	return []schemeConfig{
		{"wbox", core.Options{Scheme: core.SchemeWBox}, false},
		{"wbox-o", core.Options{Scheme: core.SchemeWBoxO, Ordinal: true}, true},
		{"bbox", core.Options{Scheme: core.SchemeBBox}, false},
		{"bbox-o", core.Options{Scheme: core.SchemeBBox, Ordinal: true}, true},
		{"naive-8", core.Options{Scheme: core.SchemeNaive, NaiveK: 8}, false},
	}
}

// pinnedPoints is the number of raw write points each sweep's golden run
// performs — its log appends, its mid-script checkpoint, and the checkpoint
// and log truncation of its Close — per scheme — and, for the double-crash sweep, the total number
// of redo cuts those points fan out into. The sweeps discover their range
// dynamically, so a protocol change that added, dropped or merged a write
// point would otherwise pass by re-discovering a different range; the
// literal table makes the raw write order part of the contract.
var pinnedPoints = map[string]map[string]int{
	"matrix":      {"wbox": 41, "wbox-o": 60, "bbox": 41, "bbox-o": 41, "naive-8": 31},
	"group":       {"wbox": 33, "wbox-o": 52, "bbox": 33, "bbox-o": 33, "naive-8": 25},
	"zoo/churn":   {"wbox": 41, "wbox-o": 57, "bbox": 41, "bbox-o": 41, "naive-8": 31},
	"zoo/bisect":  {"wbox": 41, "wbox-o": 57, "bbox": 41, "bbox-o": 41, "naive-8": 31},
	"double/redo": {"wbox": 1088, "wbox-o": 2396, "bbox": 1088, "bbox-o": 1088, "naive-8": 600},
}

// checkPinned fails the sweep when its discovered count left the table.
func checkPinned(t *testing.T, sweep, scheme string, got int) {
	t.Helper()
	if want := pinnedPoints[sweep][scheme]; got != want {
		t.Fatalf("%s/%s: %d raw write points, pinned %d", sweep, scheme, got, want)
	}
}

// Frame poisoning is on for every sweep of this package: a read path that
// uses a borrowed frame after releasing it returns garbage, not the stale
// bytes a recycled frame would usually still hold.
func init() { pager.HookPoisonFrames = true }

// runtimeOpts are the runtime options every reopen uses: durable commits
// and a small block LRU — the harness must prove recovery correct with the
// block cache in play, not around it.
func runtimeOpts() core.Options {
	return core.Options{
		Durable:     true,
		CacheBlocks: 8,
	}
}

// world is the deterministic script state: the store under test, the
// in-memory oracle, and the element list the script picks targets from.
type world struct {
	st     *core.Store
	oracle *order.Oracle
	elems  []order.ElemLIDs
}

// buildBase creates a durable store at path, inserts a small document, and
// closes it cleanly. It returns the oracle LID order of the base document
// and its element list; LID allocation is deterministic, so both are valid
// for every crashed or golden replay of the same base file.
func buildBase(t *testing.T, path string, cfg schemeConfig) ([]order.LID, []order.ElemLIDs) {
	t.Helper()
	fb, err := pager.CreateFileOpts(path, pager.FileOptions{BlockSize: blockSize, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	opts := cfg.opts
	opts.BlockSize = blockSize
	opts.Backend = fb
	opts.Durable = true
	st, err := core.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	w := &world{st: st, oracle: order.NewOracle()}
	e, err := st.InsertFirstElement()
	if err != nil {
		t.Fatal(err)
	}
	w.oracle.InsertFirstElement(e)
	w.elems = append(w.elems, e)
	for i := 0; i < 7; i++ {
		at := w.elems[i%len(w.elems)]
		ne, err := st.InsertElementBefore(at.End)
		if err != nil {
			t.Fatal(err)
		}
		w.oracle.InsertElementBefore(ne, at.End)
		w.elems = append(w.elems, ne)
	}
	if err := fb.Close(); err != nil {
		t.Fatal(err)
	}
	return append([]order.LID(nil), w.oracle.LIDs()...), append([]order.ElemLIDs(nil), w.elems...)
}

// rebuildWorld reconstructs the script state over a reopened store from
// the deterministic base bookkeeping.
func rebuildWorld(st *core.Store, baseLIDs []order.LID, baseElems []order.ElemLIDs) *world {
	w := &world{st: st, oracle: order.NewOracle()}
	w.oracle.Load(baseLIDs)
	w.elems = append(w.elems, baseElems...)
	return w
}

const scriptOps = 6

// scriptOp applies the j-th (0-based) scripted operation to the store and
// mirrors it into the oracle. Targets depend only on j and the element
// list, so crashed and golden runs perform identical work.
func scriptOp(w *world, j int) error {
	if j == 3 {
		// Delete the element inserted by op 2; nothing was inserted inside
		// it, so it is a leaf and DeleteElement is legal.
		e := w.elems[len(w.elems)-1]
		if err := w.st.DeleteElement(e); err != nil {
			return err
		}
		w.elems = w.elems[:len(w.elems)-1]
		w.oracle.Delete(e.Start)
		w.oracle.Delete(e.End)
		return nil
	}
	at := w.elems[(j*3)%4] // early elements only, so op 2's insert stays a leaf
	ne, err := w.st.InsertElementBefore(at.End)
	if err != nil {
		return err
	}
	if err := w.oracle.InsertElementBefore(ne, at.End); err != nil {
		return err
	}
	w.elems = append(w.elems, ne)
	return nil
}

// runScript runs the n ops of a scripted workload, checkpointing (Sync)
// halfway, and reports how many ops completed before the first error. With
// the checkpoint in the script — and the sweeps counting write points
// through Close, which checkpoints again and truncates the log — every
// sweep built on it cuts not only the log appends but every write of a
// checkpoint's apply, its header write and its log reset, and the appends
// that then overwrite the reused log in place. A cut inside a checkpoint
// leaves done at the acknowledged ops, which recovery must return exactly.
func runScript(fb *pager.FileBackend, n int, op func(j int) error) (done int, err error) {
	for j := 0; j < n; j++ {
		if err := op(j); err != nil {
			return done, err
		}
		done++
		if done == n/2 {
			if err := fb.Sync(); err != nil {
				return done, err
			}
		}
	}
	return done, nil
}

// copyStore clones the data file and its WAL/checksum companions.
func copyStore(t *testing.T, from, to string) {
	t.Helper()
	for _, suffix := range []string{"", ".crc", ".wal"} {
		data, err := os.ReadFile(from + suffix)
		if err != nil {
			if errors.Is(err, os.ErrNotExist) {
				continue
			}
			t.Fatal(err)
		}
		if err := os.WriteFile(to+suffix, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// goldenRun replays the full script without crashing, counting raw write
// points and snapshotting the oracle after every op. snapshots[k] is the
// oracle LID order after k script ops.
func goldenRun(t *testing.T, path string, cfg schemeConfig, baseLIDs []order.LID, baseElems []order.ElemLIDs) (snapshots [][]order.LID, writePoints int) {
	t.Helper()
	ctrl := powerCut(0, false)
	fb, err := pager.OpenFileOpts(path, pager.FileOptions{NoSync: true, DiskControl: ctrl})
	if err != nil {
		t.Fatal(err)
	}
	rt := runtimeOpts()
	st, err := core.OpenExisting(fb, rt)
	if err != nil {
		t.Fatal(err)
	}
	w := rebuildWorld(st, baseLIDs, baseElems)
	snapshots = append(snapshots, append([]order.LID(nil), w.oracle.LIDs()...))
	if done, err := runScript(fb, scriptOps, func(j int) error {
		err := scriptOp(w, j)
		snapshots = append(snapshots, append([]order.LID(nil), w.oracle.LIDs()...))
		return err
	}); err != nil {
		t.Fatalf("golden run after op %d: %v", done, err)
	}
	if err := fb.Close(); err != nil {
		t.Fatal(err)
	}
	return snapshots, ctrl.Writes()
}

// checkRecovered opens the crashed file through normal recovery and
// verifies it matches the oracle after opsDone or opsDone+1 script ops.
func checkRecovered(t *testing.T, path string, cfg schemeConfig, snapshots [][]order.LID, opsDone int, tag string) {
	t.Helper()

	// boxfsck-level verification first: checksums, free list, invariants,
	// reachability. A crash must never leak or corrupt a block.
	rep, err := fsck.Check(path, fsck.Options{})
	if err != nil {
		t.Fatalf("%s: fsck: %v", tag, err)
	}
	if !rep.Clean() {
		t.Fatalf("%s: fsck unclean: %v", tag, rep.Problems)
	}
	if len(rep.Orphans) != 0 {
		t.Fatalf("%s: fsck found %d orphans: %v", tag, len(rep.Orphans), rep.Orphans)
	}

	fb, err := pager.OpenFileOpts(path, pager.FileOptions{NoSync: true})
	if err != nil {
		t.Fatalf("%s: reopen: %v", tag, err)
	}
	defer fb.Close()
	st, err := core.OpenExisting(fb, runtimeOpts())
	if err != nil {
		t.Fatalf("%s: OpenExisting: %v", tag, err)
	}
	if err := st.CheckInvariants(); err != nil {
		t.Fatalf("%s: invariants: %v", tag, err)
	}

	// The recovered state must sit at an exact op boundary: all of the
	// opsDone completed ops, plus possibly the in-flight op if its commit
	// record hit the disk before the cut.
	var errs []string
	for _, k := range []int{opsDone, opsDone + 1} {
		if k >= len(snapshots) {
			continue
		}
		o := order.NewOracle()
		o.Load(snapshots[k])
		if err := o.CheckAgainst(st.Labeler(), cfg.ordinal); err != nil {
			errs = append(errs, fmt.Sprintf("k=%d: %v", k, err))
			continue
		}
		// Same order check through the Store's lookup path, which reads
		// through the block LRU the runtime options enable.
		var prev order.Label
		for i, lid := range snapshots[k] {
			lab, err := st.Lookup(lid)
			if err != nil {
				t.Fatalf("%s: lookup of %d: %v", tag, lid, err)
			}
			if i > 0 && lab <= prev {
				t.Fatalf("%s: lookups out of order at %d", tag, i)
			}
			prev = lab
		}
		return // matched an admissible boundary
	}
	t.Fatalf("%s: recovered store (count %d) matches neither %d nor %d completed ops: %v",
		tag, st.Count(), opsDone, opsDone+1, errs)
}

// TestCrashMatrix is the full sweep: every scheme, every write point of
// the scripted workload, its mid-script checkpoint and its Close, full cuts
// and torn writes.
func TestCrashMatrix(t *testing.T) {
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
			snapshots, writePoints := goldenRun(t, golden, cfg, baseLIDs, baseElems)
			checkPinned(t, "matrix", cfg.name, writePoints)

			for _, torn := range []bool{false, true} {
				for at := 1; at <= writePoints; at++ {
					tag := fmt.Sprintf("%s/at=%d/torn=%v", cfg.name, at, torn)
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
					w := rebuildWorld(st, baseLIDs, baseElems)
					opsDone, err := runScript(fb, scriptOps, func(j int) error { return scriptOp(w, j) })
					if err != nil && !errors.Is(err, pager.ErrCrashed) {
						t.Fatalf("%s: script failed after op %d with a non-crash error: %v", tag, opsDone, err)
					}
					fb.Close() // errors expected after a cut; descriptors still close
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
