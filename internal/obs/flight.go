// Flight recorder: a trace hook that retains the most recent operations
// and, the moment an operation fails, dumps them — together with a full
// metrics snapshot and the structural health gauges — to a JSON crash file
// for post-mortem analysis (boxinspect -crash pretty-prints one).
//
// The recorder exists because the failures that matter here are
// *structural*: an injected I/O fault or invariant violation surfaces as
// one failed operation, but the explanation lives in the events leading up
// to it (a rebuild storm, a split cascade, an exhausted gap) and in the
// shape of the structure at the instant of failure. The dump freezes both.
package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"boxes/internal/faults"
)

// EventRecord is the JSON-serializable form of a trace event.
type EventRecord struct {
	Start    bool      `json:"start,omitempty"` // an op-start marker (no timing)
	Scheme   string    `json:"scheme"`
	Op       string    `json:"op"`
	Began    time.Time `json:"began,omitempty"`
	Duration int64     `json:"duration_ns,omitempty"`
	Reads    uint64    `json:"reads,omitempty"`
	Writes   uint64    `json:"writes,omitempty"`
	Error    string    `json:"error,omitempty"`
	// ErrorClass is the faults classification of Error ("transient" or
	// "permanent"), so degraded-mode entries are distinguishable post-mortem.
	ErrorClass string `json:"error_class,omitempty"`
}

func toEventRecord(re RingEvent) EventRecord {
	r := EventRecord{
		Start:  re.Start,
		Scheme: re.Event.Scheme,
		Op:     re.Event.Op.String(),
	}
	if !re.Start {
		r.Began = re.Event.Start
		r.Duration = int64(re.Event.Duration)
		r.Reads = re.Event.Reads
		r.Writes = re.Event.Writes
		if re.Event.Err != nil {
			r.Error = re.Event.Err.Error()
			r.ErrorClass = re.Event.Class
			if r.ErrorClass == "" {
				r.ErrorClass = faults.Classify(re.Event.Err).String()
			}
		}
	}
	return r
}

// CrashDump is the on-disk schema of one flight-recorder dump.
type CrashDump struct {
	Version int           `json:"version"`
	Time    time.Time     `json:"time"`
	Trigger EventRecord   `json:"trigger"`        // the operation that failed
	Tags    StringMap     `json:"tags,omitempty"` // caller-supplied context (crash point, stage, ...)
	Events  []EventRecord `json:"recent_events"`  // ring contents, oldest first
	Metrics Snapshot      `json:"metrics"`        // full registry snapshot
	Gauges  []GaugeValue  `json:"gauges"`         // structural health at dump time
	// SlowOps carries the span trees of recent slow operations when the
	// registry's tracer captured any (additive; absent in older dumps).
	SlowOps []SlowOp `json:"slow_ops,omitempty"`
}

// StringMap is a plain string-to-string map; the alias keeps the CrashDump
// schema self-describing.
type StringMap = map[string]string

// crashDumpVersion is bumped whenever the CrashDump schema changes shape.
const crashDumpVersion = 1

// FlightRecorder is a TraceHook that keeps the last N operation events in
// a ring and dumps a crash file on every operation error. Install it on a
// registry with AddHook (core.Options.CrashDir does this for stores).
//
// Gauge collection at dump time runs the registry's registered collectors;
// they walk structures that may be mid-failure, so collectors tolerate
// errors and the dump records whatever could be gathered. A dump at OpEnd
// runs on the failing operation's goroutine, which still holds the store's
// lock, so it gathers through CollectGaugesInOp (see InOpCollector).
type FlightRecorder struct {
	reg  *Registry
	ring *RingHook
	dir  string

	mu    sync.Mutex
	limit int
	dumps int
	last  string
	err   error
}

// NewFlightRecorder creates a recorder retaining the last ringSize events
// (ringSize < 1 selects 64) and writing crash files into dir (created on
// first dump). At most 8 dumps are written per recorder, so a persistent
// fault (e.g. a dead disk) cannot flood the directory; raise or lower the
// cap with SetDumpLimit.
func NewFlightRecorder(reg *Registry, dir string, ringSize int) *FlightRecorder {
	return &FlightRecorder{reg: reg, ring: NewRingHook(ringSize), dir: dir, limit: 8}
}

// SetDumpLimit caps the number of crash files this recorder will write.
func (f *FlightRecorder) SetDumpLimit(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.limit = n
}

// Dumps reports how many crash files have been written.
func (f *FlightRecorder) Dumps() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.dumps
}

// LastDump returns the path of the most recent crash file ("" if none).
func (f *FlightRecorder) LastDump() string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.last
}

// Err returns the first error encountered while writing a dump, if any.
func (f *FlightRecorder) Err() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err
}

// OpStart implements TraceHook.
func (f *FlightRecorder) OpStart(scheme string, op Op) { f.ring.OpStart(scheme, op) }

// OpEnd implements TraceHook: the event enters the ring, and if it failed
// the recorder writes a crash dump on the spot (on the operation's own
// goroutine, so the structure is not mutating underneath the gauge walk).
func (f *FlightRecorder) OpEnd(ev Event) {
	f.ring.OpEnd(ev)
	if ev.Err == nil {
		return
	}
	f.dump(ev, nil, true)
}

// DumpFailure writes a crash dump for a failure that is not a traced
// operation — a WAL recovery that errored at open, an fsck run that found
// problems, a crash-matrix reopen that did not come back clean. The stage
// names the phase ("recovery", "fsck", ...), err is the failure, and tags
// carry whatever context makes the dump actionable (crash point, torn
// flag, scheme, store path). Dumps count against the same limit as
// operation-failure dumps.
func (f *FlightRecorder) DumpFailure(stage string, err error, tags map[string]string) {
	if err == nil {
		return
	}
	f.dump(Event{Scheme: stage, Op: OpCheck, Err: err}, tags, false)
}

// dump writes one crash file; inOp says it runs inside the failing
// operation (OpEnd), which selects the collectors' in-op gauge path.
func (f *FlightRecorder) dump(ev Event, tags map[string]string, inOp bool) {
	f.mu.Lock()
	if f.limit >= 0 && f.dumps >= f.limit {
		f.mu.Unlock()
		return
	}
	f.dumps++
	seq := f.dumps
	f.mu.Unlock()

	events := f.ring.Events()
	recs := make([]EventRecord, len(events))
	for i, re := range events {
		recs[i] = toEventRecord(re)
	}
	snap := f.reg.snapshot(inOp) // includes one gauge collection
	d := CrashDump{
		Version: crashDumpVersion,
		Time:    time.Now(),
		Trigger: toEventRecord(RingEvent{Event: ev}),
		Tags:    tags,
		Events:  recs,
		Metrics: snap,
		Gauges:  snap.Gauges,
		SlowOps: f.reg.Tracer().SlowOps(),
	}
	name := fmt.Sprintf("crash-%s-%s-%d-%d.json", sanitize(ev.Scheme), ev.Op, time.Now().UnixNano(), seq)
	path := filepath.Join(f.dir, name)
	if err := writeCrashDump(path, d); err != nil {
		f.mu.Lock()
		if f.err == nil {
			f.err = err
		}
		f.mu.Unlock()
		return
	}
	f.mu.Lock()
	f.last = path
	f.mu.Unlock()
}

// sanitize keeps scheme names filesystem-safe.
func sanitize(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_':
			out = append(out, c)
		default:
			out = append(out, '_')
		}
	}
	if len(out) == 0 {
		return "unknown"
	}
	return string(out)
}

func writeCrashDump(path string, d CrashDump) error {
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	data, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// ReadCrashDump parses a crash file written by a FlightRecorder.
func ReadCrashDump(path string) (*CrashDump, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d CrashDump
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("obs: crash dump %s: %w", path, err)
	}
	if d.Version != crashDumpVersion {
		return nil, fmt.Errorf("obs: crash dump %s: unsupported version %d", path, d.Version)
	}
	return &d, nil
}

var _ TraceHook = (*FlightRecorder)(nil)
