package core

import (
	"errors"
	"path/filepath"
	"testing"
	"time"

	"boxes/internal/obs"
	"boxes/internal/order"
	"boxes/internal/pager"
	"boxes/internal/xmlgen"
)

func persistSchemes() []Options {
	return []Options{
		{Scheme: SchemeWBox, BlockSize: 512},
		{Scheme: SchemeWBoxO, BlockSize: 512},
		{Scheme: SchemeWBox, BlockSize: 512, Ordinal: true},
		{Scheme: SchemeBBox, BlockSize: 512},
		{Scheme: SchemeBBox, BlockSize: 512, Ordinal: true, RelaxedFanout: true},
	}
}

func TestSaveAndReopenMemBackend(t *testing.T) {
	for _, opt := range persistSchemes() {
		t.Run(opt.Scheme.String(), func(t *testing.T) {
			backend := pager.NewMemBackend(opt.BlockSize)
			opt.Backend = backend
			st, err := Open(opt)
			if err != nil {
				t.Fatal(err)
			}
			doc, err := st.Load(xmlgen.XMark(300, 5))
			if err != nil {
				t.Fatal(err)
			}
			// Mutate a little so the state is not just a bulk load.
			ne, err := st.InsertElementBefore(doc.Elems[10].Start)
			if err != nil {
				t.Fatal(err)
			}
			wantSpan := func(s *Store) map[order.LID]order.Label {
				out := map[order.LID]order.Label{}
				for _, e := range append(doc.Elems[:20:20], ne) {
					for _, lid := range []order.LID{e.Start, e.End} {
						v, err := s.Lookup(lid)
						if err != nil {
							t.Fatal(err)
						}
						out[lid] = v
					}
				}
				return out
			}
			before := wantSpan(st)
			count := st.Count()
			if err := st.Save(); err != nil {
				t.Fatal(err)
			}

			st2, err := OpenExisting(backend, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if st2.Scheme() != opt.Scheme {
				t.Fatalf("scheme = %v, want %v", st2.Scheme(), opt.Scheme)
			}
			if st2.Count() != count {
				t.Fatalf("count = %d, want %d", st2.Count(), count)
			}
			after := wantSpan(st2)
			for lid, v := range before {
				if after[lid] != v {
					t.Fatalf("lid %d: label %d became %d after reopen", lid, v, after[lid])
				}
			}
			if err := st2.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			// The reopened store keeps working.
			if _, err := st2.InsertElementBefore(ne.Start); err != nil {
				t.Fatal(err)
			}
			if err := st2.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestSaveAndReopenFileBackend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "persist.box")
	fb, err := pager.CreateFile(path, 512)
	if err != nil {
		t.Fatal(err)
	}
	st, err := Open(Options{Scheme: SchemeWBox, BlockSize: 512, Backend: fb})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := st.Load(xmlgen.TwoLevel(400))
	if err != nil {
		t.Fatal(err)
	}
	lid := doc.Elems[200].Start
	want, err := st.Lookup(lid)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Save(); err != nil {
		t.Fatal(err)
	}
	if err := fb.Close(); err != nil {
		t.Fatal(err)
	}

	// Full process-restart simulation: reopen the file.
	fb2, err := pager.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	st2, err := OpenExisting(fb2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := st2.Lookup(lid)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("label %d became %d across restart", want, got)
	}
	if err := st2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Continue editing, save again (replacing the old blob), reopen again.
	if _, err := st2.InsertElementBefore(lid); err != nil {
		t.Fatal(err)
	}
	if err := st2.Save(); err != nil {
		t.Fatal(err)
	}
	st3, err := OpenExisting(fb2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st3.Count() != st2.Count() {
		t.Fatalf("second reopen count %d, want %d", st3.Count(), st2.Count())
	}
	if err := st3.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestOpenExistingWithoutSave(t *testing.T) {
	backend := pager.NewMemBackend(512)
	if _, err := OpenExisting(backend, Options{}); !errors.Is(err, ErrNoSavedStore) {
		t.Fatalf("err = %v, want ErrNoSavedStore", err)
	}
}

// TestNaiveIsNotPersistent checks that naive-k, the paper's in-memory
// baseline, is refused by every persistence entry point with the one typed
// ErrNotPersistent: a durable Open, Save and Backup of an in-memory store,
// and OpenExisting of a saved blob whose header names the naive scheme (as
// stores written before naive lost its persistent form do).
func TestNaiveIsNotPersistent(t *testing.T) {
	naive := Options{Scheme: SchemeNaive, BlockSize: 512, NaiveK: 6}

	path := filepath.Join(t.TempDir(), "naive.box")
	fb, err := pager.CreateFileOpts(path, pager.FileOptions{BlockSize: 512, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer fb.Close()
	durable := naive
	durable.Backend, durable.Durable = fb, true
	if _, err := Open(durable); !errors.Is(err, ErrNotPersistent) {
		t.Errorf("durable Open: err = %v, want ErrNotPersistent", err)
	}
	onFile := naive
	onFile.Backend = fb
	st, err := Open(onFile)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Backup(path + ".bak"); !errors.Is(err, ErrNotPersistent) {
		t.Errorf("Backup: err = %v, want ErrNotPersistent", err)
	}

	backend := pager.NewMemBackend(512)
	inMem := naive
	inMem.Backend = backend
	st, err = Open(inMem)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Load(xmlgen.TwoLevel(60)); err != nil {
		t.Fatal(err)
	}
	if err := st.Save(); !errors.Is(err, ErrNotPersistent) {
		t.Errorf("Save: err = %v, want ErrNotPersistent", err)
	}

	// A valid header naming scheme byte 3 (naive) with k = 6.
	hdr := append(metaMagic[:], uint8(SchemeNaive), 0, 2, 0, 0, 0, 0, 6, 0, 0, 0)
	head, err := pager.NewStore(backend).WriteBlob(hdr)
	if err != nil {
		t.Fatal(err)
	}
	if err := backend.SetMetaRoot(head); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenExisting(backend, Options{}); !errors.Is(err, ErrNotPersistent) {
		t.Errorf("OpenExisting of a naive blob: err = %v, want ErrNotPersistent", err)
	}
}

// TestOpenExistingHonoursRuntimeOptions reopens a durable file store with
// every runtime option set and checks that each one takes effect: the
// structural fields come from the saved metadata, everything else from
// the caller.
func TestOpenExistingHonoursRuntimeOptions(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runtime.box")
	fb, err := pager.CreateFileOpts(path, pager.FileOptions{BlockSize: 512, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	st, err := Open(Options{Scheme: SchemeBBox, BlockSize: 512, Backend: fb, Durable: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Load(xmlgen.TwoLevel(20)); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	fb2, err := pager.OpenFileOpts(path, pager.FileOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	dir := t.TempDir()
	st2, err := OpenExisting(fb2, Options{
		Scheme:          SchemeNaive, // overridden by the saved metadata
		Durable:         true,
		CacheBlocks:     4,
		Metrics:         reg,
		CrashDir:        dir,
		SlowOpThreshold: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()

	if st2.Scheme() != SchemeBBox {
		t.Errorf("scheme = %v, want the saved B-BOX", st2.Scheme())
	}
	if !reg.Tracer().Enabled() {
		t.Error("SlowOpThreshold: span recording is off after reopen")
	}
	if st2.MetricsRegistry() != reg {
		t.Error("Metrics: the reopened store reports into its own registry")
	}
	hasCapacity := false
	for _, g := range st2.Health() {
		hasCapacity = hasCapacity || g.Name == "pager_cache_capacity"
	}
	if !hasCapacity {
		t.Error("CacheBlocks: no pager_cache_capacity gauge after reopen")
	}
	if _, err := st2.InsertElementBefore(order.LID(1 << 40)); err == nil {
		t.Fatal("insert before a LID that does not exist succeeded")
	}
	if fr := st2.FlightRecorder(); fr == nil || fr.Dumps() == 0 {
		t.Error("CrashDir: a failed op wrote no crash dump after reopen")
	}
}
