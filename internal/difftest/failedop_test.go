package difftest

import (
	"errors"
	"path/filepath"
	"testing"

	"boxes/internal/core"
	"boxes/internal/faults"
	"boxes/internal/fsck"
	"boxes/internal/order"
	"boxes/internal/pager"
	"boxes/internal/xmlgen"
)

// nthRead is a single-shot injector: armed with n, the n-th block read from
// then on fails permanently and the injector disarms itself, so the
// rollback that follows the failed op reads a healthy device.
type nthRead struct{ left int }

func (f *nthRead) Decide(op faults.Op) faults.Decision {
	if op != faults.OpRead || f.left == 0 {
		return faults.Decision{}
	}
	f.left--
	return faults.Decision{Fail: f.left == 0, Mode: faults.ModePermanent}
}

// failedOpStore is one durable file-backed store of the matrix with its
// oracle mirror, reopenable in place.
type failedOpStore struct {
	t      *testing.T
	cfg    Config
	path   string
	inj    *nthRead
	st     *core.Store
	oracle *order.Oracle
	elems  []order.ElemLIDs
}

func (f *failedOpStore) insertBefore(at order.LID) {
	f.t.Helper()
	e, err := f.st.InsertElementBefore(at)
	if err != nil {
		f.t.Fatalf("insert before %d: %v", at, err)
	}
	if err := f.oracle.InsertElementBefore(e, at); err != nil {
		f.t.Fatal(err)
	}
	f.elems = append(f.elems, e)
}

// check holds the store to the contract after a failed mutator: it stayed
// writable, every lookup equals the oracle, and the structure is sound.
func (f *failedOpStore) check(when string) {
	f.t.Helper()
	if f.st.Degraded() {
		f.t.Fatalf("%s: store degraded: %v", when, f.st.DegradedCause())
	}
	if err := f.oracle.CheckAgainst(f.st.Labeler(), f.cfg.Ordinal); err != nil {
		f.t.Fatalf("%s: lookups diverge from the oracle: %v", when, err)
	}
	if got, want := f.st.Count(), uint64(f.oracle.Len()); got != want {
		f.t.Fatalf("%s: store counts %d labels, oracle %d", when, got, want)
	}
	if err := f.st.CheckInvariants(); err != nil {
		f.t.Fatalf("%s: invariants: %v", when, err)
	}
}

// reopen closes the store, checks the files offline, and resumes from what
// was committed: a failed op must be as absent there as it is in memory.
func (f *failedOpStore) reopen(when string) {
	f.t.Helper()
	if err := f.st.Close(); err != nil {
		f.t.Fatalf("%s: close: %v", when, err)
	}
	rep, err := fsck.Check(f.path, fsck.Options{})
	if err != nil {
		f.t.Fatalf("%s: fsck: %v", when, err)
	}
	if !rep.Clean() {
		f.t.Fatalf("%s: fsck unclean: %v", when, rep.Problems)
	}
	fb, err := pager.OpenFileOpts(f.path, pager.FileOptions{NoSync: true})
	if err != nil {
		f.t.Fatalf("%s: reopen: %v", when, err)
	}
	f.st, err = core.OpenExisting(pager.NewFaultBackend(fb, f.inj), core.Options{Durable: true})
	if err != nil {
		f.t.Fatalf("%s: OpenExisting: %v", when, err)
	}
	f.check(when + ", reopened")
}

// sweepReadFault runs op with a permanent fault on its k-th block read, for
// k = 1, 2, ... until the op has no k-th read and succeeds. Reads interleave
// with the op's staged writes, so the later k fail an op that has already
// modified pinned blocks. It returns how many k made the op fail.
func (f *failedOpStore) sweepReadFault(name string, op func() error) int {
	f.t.Helper()
	for k := 1; ; k++ {
		f.inj.left = k
		err := op()
		f.inj.left = 0
		if err == nil {
			return k - 1
		}
		if !errors.Is(err, pager.ErrInjected) {
			f.t.Fatalf("%s, read %d: got %v, want the injected fault", name, k, err)
		}
		f.check(name + ", read fault")
		if k > 200 {
			f.t.Fatalf("%s: still failing at read %d", name, k)
		}
	}
}

// TestFailedMutatorCommitsNothing drives every single-op mutator of a
// durable file-backed store into a late failure — after it has already
// changed something — on each scheme of the matrix. The mutator must return
// its error and leave nothing behind: lookups oracle-equal, invariants and
// fsck clean, live and after reopen.
func TestFailedMutatorCommitsNothing(t *testing.T) {
	for _, cfg := range Configs() {
		cfg := cfg
		t.Run(cfg.Name, func(t *testing.T) {
			t.Parallel()
			f := &failedOpStore{t: t, cfg: cfg, inj: &nthRead{}, oracle: order.NewOracle(),
				path: filepath.Join(t.TempDir(), "failed.box")}
			fb, err := pager.CreateFileOpts(f.path, pager.FileOptions{BlockSize: blockSize, NoSync: true})
			if err != nil {
				t.Fatal(err)
			}
			opts := cfg.Opts
			opts.BlockSize = blockSize
			opts.Backend = pager.NewFaultBackend(fb, f.inj)
			opts.Durable = true
			if f.st, err = core.Open(opts); err != nil {
				t.Fatal(err)
			}
			root, err := f.st.InsertFirstElement()
			if err != nil {
				t.Fatal(err)
			}
			f.oracle.InsertFirstElement(root)
			f.elems = append(f.elems, root)
			for i := 0; i < 120; i++ {
				f.insertBefore(f.elems[(i*7)%len(f.elems)].End)
			}

			// A stale LID: the end tag of a leaf element deleted just now.
			dead := f.elems[len(f.elems)-1]
			f.elems = f.elems[:len(f.elems)-1]
			if err := f.st.DeleteElement(dead); err != nil {
				t.Fatal(err)
			}
			f.oracle.Delete(dead.Start)
			f.oracle.Delete(dead.End)
			f.check("setup")
			live := f.elems[len(f.elems)-1]

			cases := []struct {
				name string
				run  func() error
				want error
			}{
				{"delete-element with a stale end", func() error {
					return f.st.DeleteElement(order.ElemLIDs{Start: live.Start, End: dead.End})
				}, order.ErrUnknownLID},
				{"delete of an unknown LID", func() error {
					return f.st.Delete(dead.Start)
				}, order.ErrUnknownLID},
				{"insert-subtree at an unknown anchor", func() error {
					_, err := f.st.InsertSubtreeBefore(dead.End, xmlgen.TwoLevel(3))
					return err
				}, order.ErrUnknownLID},
				{"load into a non-empty store", func() error {
					_, err := f.st.Load(xmlgen.TwoLevel(3))
					return err
				}, order.ErrNotEmpty},
			}
			for _, c := range cases {
				if err := c.run(); !errors.Is(err, c.want) {
					t.Fatalf("%s: got %v, want %v", c.name, err, c.want)
				}
				f.check(c.name)
				f.reopen(c.name)
			}

			at := f.elems[3].End
			var ins order.ElemLIDs
			failed := f.sweepReadFault("insert", func() (err error) {
				ins, err = f.st.InsertElementBefore(at)
				return err
			})
			if failed < 2 {
				t.Fatalf("insert failed at only %d read points; the sweep never cut a half-applied op", failed)
			}
			f.oracle.InsertElementBefore(ins, at)
			failed = f.sweepReadFault("delete-element", func() error { return f.st.DeleteElement(ins) })
			if failed < 2 {
				t.Fatalf("delete-element failed at only %d read points", failed)
			}
			f.oracle.Delete(ins.Start)
			f.oracle.Delete(ins.End)
			f.check("after the read-fault sweeps")
			f.reopen("after the read-fault sweeps")
			if err := f.st.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
