package core

import (
	"errors"
	"strings"
	"testing"
	"time"

	"boxes/internal/faults"
	"boxes/internal/obs"
	"boxes/internal/order"
	"boxes/internal/pager"
	"boxes/internal/xmlgen"
)

// healthConfigs is the full scheme matrix the health gauges must cover.
func healthConfigs() []struct {
	name string
	opts Options
} {
	return []struct {
		name string
		opts Options
	}{
		{"wbox", Options{Scheme: SchemeWBox, BlockSize: 512}},
		{"wboxo", Options{Scheme: SchemeWBoxO, BlockSize: 512}},
		{"bbox", Options{Scheme: SchemeBBox, BlockSize: 512}},
		{"bboxo", Options{Scheme: SchemeBBox, BlockSize: 512, Ordinal: true}},
		{"naive", Options{Scheme: SchemeNaive, BlockSize: 512, NaiveK: 4}},
	}
}

func findGauge(gs []obs.GaugeValue, name string) (obs.GaugeValue, bool) {
	for _, g := range gs {
		if g.Name == name {
			return g, true
		}
	}
	return obs.GaugeValue{}, false
}

func TestHealthGaugesAllSchemes(t *testing.T) {
	for _, c := range healthConfigs() {
		t.Run(c.name, func(t *testing.T) {
			st, err := Open(c.opts)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := st.Load(xmlgen.TwoLevel(400)); err != nil {
				t.Fatal(err)
			}
			gs := st.Health()
			if len(gs) == 0 {
				t.Fatal("no health gauges")
			}
			scheme := st.Scheme().String()
			for _, g := range gs {
				if len(g.Labels) == 0 || g.Labels[0][0] != "scheme" || g.Labels[0][1] != scheme {
					t.Fatalf("gauge %s not stamped with scheme %q", g.Key(), scheme)
				}
			}
			h, ok := findGauge(gs, "boxes_tree_height")
			if !ok {
				t.Fatal("boxes_tree_height missing")
			}
			if h.Value != float64(st.Height()) {
				t.Errorf("boxes_tree_height = %v, store height %d", h.Value, st.Height())
			}
			if live, ok := findGauge(gs, "boxes_labels_live"); !ok || live.Value != float64(st.Count()) {
				t.Errorf("boxes_labels_live = %+v, store count %d", live, st.Count())
			}
			if we, ok := findGauge(gs, "boxes_health_walk_errors"); ok && we.Value != 0 {
				t.Errorf("walk errors = %v on a healthy store", we.Value)
			}
			if pb, ok := findGauge(gs, "pager_blocks"); !ok || pb.Value <= 0 {
				t.Errorf("pager_blocks = %+v", pb)
			}
			if lf, ok := findGauge(gs, "lidf_records_live"); !ok || lf.Value <= 0 {
				t.Errorf("lidf_records_live = %+v", lf)
			}
			// A loaded tree must report positive occupancy observations: the
			// +Inf bucket of the occupancy distribution counts every node.
			if c.name != "naive" {
				var inf float64
				for _, g := range gs {
					if g.Name == "boxes_node_occupancy" {
						for _, kv := range g.Labels {
							if kv[0] == "le" && kv[1] == "+Inf" {
								inf += g.Value
							}
						}
					}
				}
				if inf <= 0 {
					t.Errorf("occupancy +Inf buckets sum to %v, want > 0", inf)
				}
			}
		})
	}
}

func TestHealthGaugesEmptyStore(t *testing.T) {
	for _, c := range healthConfigs() {
		t.Run(c.name, func(t *testing.T) {
			st, err := Open(c.opts)
			if err != nil {
				t.Fatal(err)
			}
			gs := st.Health() // must not panic on a store with no labels
			if h, ok := findGauge(gs, "boxes_tree_height"); !ok || h.Value != float64(st.Height()) {
				t.Errorf("boxes_tree_height = %+v, store height %d", h, st.Height())
			}
			if we, ok := findGauge(gs, "boxes_health_walk_errors"); ok && we.Value != 0 {
				t.Errorf("walk errors = %v on an empty store", we.Value)
			}
		})
	}
}

// TestHealthWalkSurvivesInjectedFailures checks the gauge walk degrades
// instead of failing when the backend is refusing I/O: it returns what it
// can and reports the interruptions in boxes_health_walk_errors.
func TestHealthWalkSurvivesInjectedFailures(t *testing.T) {
	sched := faults.NewSchedule(1)
	st, err := Open(Options{Scheme: SchemeWBox, BlockSize: 512, Backend: pager.NewFaultBackend(pager.NewMemBackend(512), sched)})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := st.Load(xmlgen.TwoLevel(400))
	if err != nil {
		t.Fatal(err)
	}
	sched.SetBudget(sched.Ops()) // every backend op from here on fails
	if _, err := st.InsertElementBefore(doc.Elems[50].Start); !errors.Is(err, pager.ErrInjected) {
		t.Fatalf("insert err = %v, want injected", err)
	}
	gs := st.Health()
	we, ok := findGauge(gs, "boxes_health_walk_errors")
	if !ok {
		t.Fatal("boxes_health_walk_errors missing from degraded walk")
	}
	if we.Value == 0 {
		t.Error("walk errors = 0 despite dead backend")
	}
	// The zero-I/O gauges are still there.
	if _, ok := findGauge(gs, "boxes_tree_height"); !ok {
		t.Error("boxes_tree_height missing from degraded walk")
	}
	if _, ok := findGauge(gs, "lidf_fragmentation"); !ok {
		t.Error("lidf_fragmentation missing from degraded walk")
	}
}

// TestCrashDumpOnInjectedFailure exercises the whole flight-recorder path:
// an exhausted FaultBackend budget kills an insert, and the store's recorder writes a crash
// file carrying the trigger, the recent ops, and the structural gauges.
func TestCrashDumpOnInjectedFailure(t *testing.T) {
	dir := t.TempDir()
	sched := faults.NewSchedule(1)
	st, err := Open(Options{Scheme: SchemeWBox, BlockSize: 512, Backend: pager.NewFaultBackend(pager.NewMemBackend(512), sched), CrashDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	fr := st.FlightRecorder()
	if fr == nil {
		t.Fatal("CrashDir set but no flight recorder installed")
	}
	doc, err := st.Load(xmlgen.TwoLevel(400))
	if err != nil {
		t.Fatal(err)
	}
	st.RegisterHealthGauges() // quiescent: the failing insert below dumps gauges too
	for i := 0; i < 5; i++ {
		if _, err := st.InsertElementBefore(doc.Elems[50].Start); err != nil {
			t.Fatal(err)
		}
	}
	sched.SetBudget(sched.Ops())
	if _, err := st.InsertElementBefore(doc.Elems[50].Start); !errors.Is(err, pager.ErrInjected) {
		t.Fatalf("insert err = %v, want injected", err)
	}

	if fr.Dumps() != 1 {
		t.Fatalf("dumps = %d, want 1 (writer err: %v)", fr.Dumps(), fr.Err())
	}
	d, err := obs.ReadCrashDump(fr.LastDump())
	if err != nil {
		t.Fatal(err)
	}
	if d.Trigger.Op != "insert" || !strings.Contains(d.Trigger.Error, "injected") {
		t.Errorf("trigger = %+v", d.Trigger)
	}
	if len(d.Events) == 0 {
		t.Error("no ring events in dump")
	}
	if _, ok := findGauge(d.Gauges, "boxes_tree_height"); !ok {
		t.Errorf("dump gauges missing boxes_tree_height: %d gauges", len(d.Gauges))
	}
	if d.Metrics.Ops["insert"].Errors == 0 {
		t.Error("dump metrics do not show the failed insert")
	}
}

// TestRegisterHealthGaugesExposition loads one store and checks the
// Prometheus exposition carries the full set of structural gauge families
// the issue promises (>= 10 on a loaded store).
func TestRegisterHealthGaugesExposition(t *testing.T) {
	st, err := Open(Options{Scheme: SchemeWBox, BlockSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Load(xmlgen.TwoLevel(400)); err != nil {
		t.Fatal(err)
	}
	st.RegisterHealthGauges()
	text := st.MetricsRegistry().String()
	families := []string{
		"boxes_tree_height",
		"boxes_tree_nodes",
		"boxes_node_occupancy",
		"boxes_balance_slack",
		"boxes_labels_live",
		"boxes_labels_dead",
		"boxes_label_space_utilization",
		"boxes_health_walk_errors",
		"lidf_blocks",
		"lidf_records_live",
		"lidf_free_slots",
		"lidf_fragmentation",
		"pager_blocks",
	}
	for _, f := range families {
		if !strings.Contains(text, "# TYPE "+f+" gauge") {
			t.Errorf("exposition missing gauge family %s", f)
		}
	}
	if !strings.Contains(text, `boxes_tree_height{scheme="W-BOX"}`) {
		t.Errorf("scheme label missing:\n%s", text)
	}
}

// TestSyncStoreHealth scrapes a store's health gauges while a writer
// updates it: the collector takes the read lock per scrape.
func TestSyncStoreHealth(t *testing.T) {
	ss, err := Open(Options{Scheme: SchemeBBox, BlockSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := ss.Load(xmlgen.TwoLevel(300))
	if err != nil {
		t.Fatal(err)
	}
	gs := ss.Health()
	if _, ok := findGauge(gs, "boxes_tree_height"); !ok {
		t.Fatal("Health missing boxes_tree_height")
	}
	// Scrapes take the store's read lock, so registering before further
	// updates is safe.
	ss.RegisterHealthGauges()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20; i++ {
			ss.MetricsRegistry().GatherGauges()
		}
	}()
	for i := 0; i < 20; i++ {
		if _, err := ss.InsertElementBefore(doc.Elems[10].Start); err != nil {
			t.Error(err)
			break
		}
	}
	<-done
}

// TestCrashDumpInsideOpDoesNotDeadlock is the boxserve -crashdir setup: a
// flight recorder plus the store's health gauges registered on its
// registry. A failing op dumps on its own goroutine while it still holds
// the store lock, so the dump's gauge collection must not take that lock
// again. Each op runs with a timeout: a deadlock fails the op instead of
// hanging the test, and the store must serve the next request.
func TestCrashDumpInsideOpDoesNotDeadlock(t *testing.T) {
	const unknown = order.LID(1 << 40)
	for _, c := range []struct {
		name string
		op   func(*Store) error
	}{
		{"lookup", func(st *Store) error { _, err := st.Lookup(unknown); return err }},
		{"insert", func(st *Store) error { _, err := st.InsertElementBefore(unknown); return err }},
	} {
		t.Run(c.name, func(t *testing.T) {
			st, err := Open(Options{Scheme: SchemeWBox, BlockSize: 512, CrashDir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			doc, err := st.Load(xmlgen.TwoLevel(100))
			if err != nil {
				t.Fatal(err)
			}
			st.RegisterHealthGauges()
			run := func(what string, op func() error) error {
				done := make(chan error, 1)
				go func() { done <- op() }()
				select {
				case err := <-done:
					return err
				case <-time.After(3 * time.Second):
					t.Fatalf("%s hung for 3 s: the store is wedged", what)
					return nil
				}
			}
			if err := run(c.name+" of an unknown LID", func() error { return c.op(st) }); !errors.Is(err, order.ErrUnknownLID) {
				t.Fatalf("%s of an unknown LID: err = %v, want ErrUnknownLID", c.name, err)
			}
			if err := run("the next lookup", func() error { _, err := st.Lookup(doc.Elems[1].Start); return err }); err != nil {
				t.Fatal(err)
			}
			fr := st.FlightRecorder()
			if fr.Dumps() != 1 {
				t.Fatalf("dumps = %d, want 1 (writer err: %v)", fr.Dumps(), fr.Err())
			}
			d, err := obs.ReadCrashDump(fr.LastDump())
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := findGauge(d.Gauges, "boxes_tree_height"); !ok {
				t.Errorf("dump gauges missing boxes_tree_height: %d gauges", len(d.Gauges))
			}
		})
	}
}
