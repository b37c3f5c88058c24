package obs

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runOp drives one instrumented operation through the registry and the
// recorder the way a store does, optionally failing it.
func runOp(r *Registry, f *FlightRecorder, scheme string, op Op, err error) {
	c := r.Begin(scheme, op, 0, 0)
	f.OpStart(c)
	d := r.End(c, 3, 1, err)
	f.OpEnd(c, 3, 1, d, err)
}

func TestFlightRecorderDumpsOnError(t *testing.T) {
	dir := t.TempDir()
	r := NewRegistry()
	f := NewFlightRecorder(r, dir)
	r.RegisterCollector(CollectorFunc(func() []GaugeValue {
		return []GaugeValue{G("boxes_tree_height", "h", 3, "scheme", "W-BOX")}
	}))

	for i := 0; i < 5; i++ {
		runOp(r, f, "W-BOX", OpInsert, nil)
	}
	if f.Dumps() != 0 {
		t.Fatalf("dumps after successes = %d, want 0", f.Dumps())
	}
	runOp(r, f, "W-BOX", OpInsert, errors.New("injected failure: budget exhausted"))

	if f.Dumps() != 1 {
		t.Fatalf("dumps = %d, want 1", f.Dumps())
	}
	if f.Err() != nil {
		t.Fatalf("recorder error: %v", f.Err())
	}
	path := f.LastDump()
	if path == "" {
		t.Fatal("no dump path recorded")
	}

	d, err := ReadCrashDump(path)
	if err != nil {
		t.Fatal(err)
	}
	if d.Trigger.Scheme != "W-BOX" || d.Trigger.Op != "insert" {
		t.Errorf("trigger = %+v", d.Trigger)
	}
	if !strings.Contains(d.Trigger.Error, "injected failure") {
		t.Errorf("trigger error = %q", d.Trigger.Error)
	}
	// The ring holds starts and ends of the preceding ops plus the failure.
	if len(d.Events) != 12 {
		t.Errorf("%d events retained, want 12", len(d.Events))
	}
	last := d.Events[len(d.Events)-1]
	if last.Error == "" || last.ErrorClass != "permanent" {
		t.Errorf("newest ring event is not the classified failure: %+v", last)
	}
	if last.Reads != 3 || last.Writes != 1 {
		t.Errorf("failure's I/O delta = (%d, %d), want (3, 1)", last.Reads, last.Writes)
	}
	// The dump carries the registered structural gauge alongside the
	// registry's own amortized-ledger gauges.
	found := false
	for _, g := range d.Gauges {
		if g.Name == "boxes_tree_height" {
			found = true
		}
	}
	if !found {
		t.Errorf("boxes_tree_height missing from gauges = %+v", d.Gauges)
	}
	if d.Metrics.Ops["insert"].Errors != 1 {
		t.Errorf("metrics snapshot errors = %d, want 1", d.Metrics.Ops["insert"].Errors)
	}
}

func TestFlightRecorderRespectsDumpLimit(t *testing.T) {
	dir := t.TempDir()
	r := NewRegistry()
	f := NewFlightRecorder(r, dir)

	for i := 0; i < maxDumps+3; i++ {
		runOp(r, f, "B-BOX", OpDelete, errors.New("persistent fault"))
	}
	if f.Dumps() != maxDumps {
		t.Fatalf("dumps = %d, want %d", f.Dumps(), maxDumps)
	}
	files, err := filepath.Glob(filepath.Join(dir, "crash-*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != maxDumps {
		t.Fatalf("%d crash files on disk, want %d: %v", len(files), maxDumps, files)
	}
}

// TestDumpFailureOneShot: a failure outside any store op writes one
// tagged dump with an empty (not null) event list.
func TestDumpFailureOneShot(t *testing.T) {
	dir := t.TempDir()
	if path, err := DumpFailure(nil, dir, "fsck", nil, nil); path != "" || err != nil {
		t.Fatalf("DumpFailure of a nil error = (%q, %v), want nothing written", path, err)
	}
	path, err := DumpFailure(nil, dir, "fsck", errors.New("3 problems"), map[string]string{"stage": "fsck"})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"recent_events": []`) {
		t.Errorf("one-shot dump's recent_events is not an empty list:\n%s", data)
	}
	d, err := ReadCrashDump(path)
	if err != nil {
		t.Fatal(err)
	}
	if d.Trigger.Scheme != "fsck" || d.Trigger.Op != "check" || d.Trigger.Error != "3 problems" || d.Tags["stage"] != "fsck" {
		t.Errorf("dump = trigger %+v tags %v", d.Trigger, d.Tags)
	}
}

func TestReadCrashDumpRejectsBadVersion(t *testing.T) {
	path := filepath.Join(t.TempDir(), "crash.json")
	if err := os.WriteFile(path, []byte(`{"version": 99}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadCrashDump(path); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("err = %v, want version error", err)
	}
}

func TestSanitize(t *testing.T) {
	if got := sanitize("naive-4/k=2"); got != "naive-4_k_2" {
		t.Errorf("sanitize = %q", got)
	}
	if got := sanitize(""); got != "unknown" {
		t.Errorf("sanitize empty = %q", got)
	}
}
