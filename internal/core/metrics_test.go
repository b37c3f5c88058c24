package core

import (
	"strings"
	"testing"

	"boxes/internal/obs"
	"boxes/internal/pager"
	"boxes/internal/xmlgen"
)

// drive runs a mixed workload through every instrumented Store entry
// point: bulk load, lookups, element inserts/deletes, subtree
// insert/delete, and an invariant check.
func drive(t *testing.T, st *Store) {
	t.Helper()
	doc, err := st.Load(xmlgen.TwoLevel(200))
	if err != nil {
		t.Fatal(err)
	}
	anchor := doc.Elems[1]
	for i := 0; i < 60; i++ {
		e, err := st.InsertElementBefore(anchor.Start)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.Lookup(e.Start); err != nil {
			t.Fatal(err)
		}
		if _, err := st.LookupSpan(e); err != nil {
			t.Fatal(err)
		}
		if _, err := st.Compare(e.Start, anchor.Start); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		if err := st.DeleteElement(doc.Elems[100+i]); err != nil {
			t.Fatal(err)
		}
	}
	sub, err := st.InsertSubtreeBefore(doc.Elems[2].Start, xmlgen.TwoLevel(50))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.DeleteSubtree(sub[0]); err != nil {
		t.Fatal(err)
	}
	if err := st.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestOpSeriesMatchIOStats asserts the tentpole accounting identity: every
// block I/O flows through an instrumented core operation, so the summed
// per-op read/write histogram sums must equal the pager's own counters —
// on all four schemes.
func TestOpSeriesMatchIOStats(t *testing.T) {
	for _, opt := range []Options{
		{Scheme: SchemeWBox, BlockSize: 512},
		{Scheme: SchemeWBoxO, BlockSize: 512},
		{Scheme: SchemeBBox, BlockSize: 512},
		{Scheme: SchemeNaive, BlockSize: 512, NaiveK: 8},
	} {
		t.Run(opt.Scheme.String(), func(t *testing.T) {
			st, err := Open(opt)
			if err != nil {
				t.Fatal(err)
			}
			drive(t, st)
			snap := st.Metrics()
			var reads, writes, ops uint64
			for _, s := range snap.Ops {
				reads += s.Reads.Sum
				writes += s.Writes.Sum
				ops += s.Count
			}
			io := st.Stats()
			if reads != io.Reads || writes != io.Writes {
				t.Errorf("op-series I/O (r=%d, w=%d) != pager stats %v", reads, writes, io)
			}
			if ops == 0 {
				t.Error("no operations recorded")
			}
			for _, name := range []string{"bulk_load", "lookup", "insert", "delete", "subtree_insert", "subtree_delete", "check"} {
				if snap.Ops[name].Count == 0 {
					t.Errorf("op %q recorded no invocations", name)
				}
			}
			if snap.Schemes[0] != opt.Scheme.String() {
				t.Errorf("schemes = %v", snap.Schemes)
			}
		})
	}
}

// TestStructuralCounters asserts each scheme's structural events reach its
// dedicated counters under a workload known to trigger them.
func TestStructuralCounters(t *testing.T) {
	t.Run("wbox-splits", func(t *testing.T) {
		st, err := Open(Options{Scheme: SchemeWBox, BlockSize: 512})
		if err != nil {
			t.Fatal(err)
		}
		doc, err := st.Load(xmlgen.TwoLevel(100))
		if err != nil {
			t.Fatal(err)
		}
		// Concentrated insertion before one anchor forces leaf splits.
		for i := 0; i < 400; i++ {
			if _, err := st.InsertElementBefore(doc.Elems[1].Start); err != nil {
				t.Fatal(err)
			}
		}
		snap := st.Metrics()
		if snap.Counters["wbox_splits_total"] == 0 {
			t.Error("wbox_splits_total = 0 after concentrated insert workload")
		}
		if snap.Counters["lidf_allocs_total"] == 0 {
			t.Error("lidf_allocs_total = 0")
		}
	})

	t.Run("bbox-merges", func(t *testing.T) {
		st, err := Open(Options{Scheme: SchemeBBox, BlockSize: 512})
		if err != nil {
			t.Fatal(err)
		}
		doc, err := st.Load(xmlgen.TwoLevel(400))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 300; i++ {
			if err := st.DeleteElement(doc.Elems[i+1]); err != nil {
				t.Fatal(err)
			}
		}
		snap := st.Metrics()
		if snap.Counters["bbox_merges_total"] == 0 && snap.Counters["bbox_borrows_total"] == 0 {
			t.Error("no B-BOX underflow repairs recorded after mass deletion")
		}
		if snap.Counters["lidf_frees_total"] == 0 {
			t.Error("lidf_frees_total = 0")
		}
	})

	t.Run("naive-relabels", func(t *testing.T) {
		st, err := Open(Options{Scheme: SchemeNaive, BlockSize: 512, NaiveK: 1})
		if err != nil {
			t.Fatal(err)
		}
		doc, err := st.Load(xmlgen.TwoLevel(50))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			if _, err := st.InsertElementBefore(doc.Elems[1].Start); err != nil {
				t.Fatal(err)
			}
		}
		if st.Metrics().Counters["naive_relabels_total"] == 0 {
			t.Error("naive_relabels_total = 0 with k=1 under repeated insertion")
		}
	})
}

// TestTraceHookThroughOptions asserts hooks installed on the registry
// passed as Options.Metrics see start/end pairs in order with the scheme
// attached.
func TestTraceHookThroughOptions(t *testing.T) {
	ring := obs.NewRingHook(64)
	reg := obs.NewRegistry()
	reg.AddHook(ring)
	st, err := Open(Options{Scheme: SchemeBBox, BlockSize: 512, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Load(xmlgen.TwoLevel(10)); err != nil {
		t.Fatal(err)
	}
	if err := st.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	evs := ring.Events()
	if len(evs) != 4 {
		t.Fatalf("got %d events, want 4 (2 ops x start+end)", len(evs))
	}
	if !evs[0].Start || evs[1].Start || !evs[2].Start || evs[3].Start {
		t.Fatalf("start/end interleaving wrong: %+v", evs)
	}
	if evs[1].Event.Op != obs.OpBulkLoad || evs[3].Event.Op != obs.OpCheck {
		t.Fatalf("ops = %v, %v", evs[1].Event.Op, evs[3].Event.Op)
	}
	if evs[1].Event.Scheme != "B-BOX" {
		t.Fatalf("scheme = %q", evs[1].Event.Scheme)
	}
	if evs[1].Event.Writes == 0 {
		t.Error("bulk load charged no writes")
	}
}

// TestSharedRegistryAcrossStores asserts Options.Metrics aggregates
// several stores into one registry, as the benchmark harness does.
func TestSharedRegistryAcrossStores(t *testing.T) {
	reg := obs.NewRegistry()
	for _, opt := range []Options{
		{Scheme: SchemeWBox, BlockSize: 512, Metrics: reg},
		{Scheme: SchemeBBox, BlockSize: 512, Metrics: reg},
	} {
		st, err := Open(opt)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.Load(xmlgen.TwoLevel(20)); err != nil {
			t.Fatal(err)
		}
	}
	snap := reg.Snapshot()
	if len(snap.Schemes) != 2 {
		t.Fatalf("schemes = %v", snap.Schemes)
	}
	if snap.Ops["bulk_load"].Count != 2 {
		t.Fatalf("bulk_load count = %d, want 2", snap.Ops["bulk_load"].Count)
	}
	out := reg.String()
	if !strings.Contains(out, `boxes_store_info{scheme="W-BOX"} 1`) ||
		!strings.Contains(out, `boxes_store_info{scheme="B-BOX"} 1`) {
		t.Error("exposition missing store info for a scheme")
	}
}

// TestMetricsSurviveOpenExisting asserts the runtime Metrics option is
// honored when resuming a persisted store.
func TestMetricsSurviveOpenExisting(t *testing.T) {
	be := pager.NewMemBackend(512)
	st, err := Open(Options{Scheme: SchemeWBox, BlockSize: 512, Backend: be})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Load(xmlgen.TwoLevel(20)); err != nil {
		t.Fatal(err)
	}
	if err := st.Save(); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	st2, err := OpenExisting(be, Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st2.Lookup(1); err != nil {
		t.Fatal(err)
	}
	if reg.OpCount(obs.OpLookup) != 1 {
		t.Fatalf("lookup count = %d, want 1", reg.OpCount(obs.OpLookup))
	}
}
