// Flight recorder: a store's own record of its most recent operations.
// The moment one of them fails, the recorder dumps them — together with a
// full metrics snapshot and the structural health gauges — to a JSON
// crash file for post-mortem analysis (boxinspect -crash pretty-prints
// one).
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
	"slices"
	"sync"
	"time"

	"boxes/internal/faults"
)

// EventRecord is one operation event as the ring holds it and a crash
// dump serializes it.
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

// endRecord is the record of a completed operation.
func endRecord(scheme string, op Op, began time.Time, d time.Duration, reads, writes uint64, err error) EventRecord {
	r := EventRecord{Scheme: scheme, Op: op.String(), Began: began, Duration: int64(d), Reads: reads, Writes: writes}
	if err != nil {
		r.Error = err.Error()
		r.ErrorClass = faults.Classify(err).String()
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

const (
	// flightRing is how many recent events (start and end markers) a
	// recorder retains.
	flightRing = 64
	// maxDumps caps the crash files one recorder writes, so a persistent
	// fault (a dead disk) cannot flood the directory.
	maxDumps = 8
)

// FlightRecorder keeps one store's last flightRing operation events in a
// ring and dumps a crash file when one of those operations fails. The
// store calls OpStart and OpEnd around each of its own operations
// (core.Options.CrashDir gives a store its recorder), so the ring holds
// that store's operations only and goes away with the store. All methods
// are safe for concurrent use; OpStart and OpEnd do nothing on a nil
// recorder.
//
// Gauge collection at dump time runs the registry's registered collectors;
// they walk structures that may be mid-failure, so collectors tolerate
// errors and the dump records whatever could be gathered. A dump at OpEnd
// runs on the failing operation's goroutine, which still holds the store's
// lock, so it gathers through CollectGaugesInOp (see InOpCollector).
type FlightRecorder struct {
	reg *Registry
	dir string

	mu      sync.Mutex
	ring    [flightRing]EventRecord
	next    int
	wrapped bool
	dumps   int
	last    string
	err     error
}

// NewFlightRecorder creates a recorder that snapshots reg and writes crash
// files into dir (created on first dump), at most maxDumps of them.
func NewFlightRecorder(reg *Registry, dir string) *FlightRecorder {
	return &FlightRecorder{reg: reg, dir: dir}
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

// OpStart records the start of the operation c opened (Registry.Begin).
func (f *FlightRecorder) OpStart(c OpCtx) {
	if f == nil {
		return
	}
	f.mu.Lock()
	f.push(EventRecord{Start: true, Scheme: c.scheme, Op: c.op.String()})
	f.mu.Unlock()
}

// OpEnd records the end of the operation c opened, with the same end
// counters Registry.End took and the wall time it returned. A failed
// operation is dumped on the spot, on its own goroutine, so the structure
// is not mutating underneath the gauge walk.
func (f *FlightRecorder) OpEnd(c OpCtx, reads, writes uint64, d time.Duration, err error) {
	if f == nil {
		return
	}
	ev := endRecord(c.scheme, c.op, c.start, d, satSub(reads, c.reads), satSub(writes, c.writes), err)
	f.mu.Lock()
	f.push(ev)
	if err == nil || f.dumps >= maxDumps {
		f.mu.Unlock()
		return
	}
	f.dumps++
	seq := f.dumps
	events := f.recent()
	f.mu.Unlock()

	path, werr := writeDump(f.reg, f.dir, ev, nil, events, true, seq)
	f.mu.Lock()
	defer f.mu.Unlock()
	if werr != nil {
		if f.err == nil {
			f.err = werr
		}
		return
	}
	f.last = path
}

// push appends one event to the ring; f.mu is held.
func (f *FlightRecorder) push(ev EventRecord) {
	f.ring[f.next] = ev
	f.next++
	if f.next == len(f.ring) {
		f.next = 0
		f.wrapped = true
	}
}

// recent returns a copy of the ring, oldest first; f.mu is held.
func (f *FlightRecorder) recent() []EventRecord {
	if !f.wrapped {
		return slices.Clone(f.ring[:f.next])
	}
	return append(slices.Clone(f.ring[f.next:]), f.ring[:f.next]...)
}

// DumpFailure writes one crash file into dir for a failure that is not a
// store operation — a resume that failed at open, an fsck run that found
// problems — and returns its path. The stage names the phase
// ("open-existing", "fsck"), err is the failure, and tags carry whatever
// context makes the dump actionable (stage, store path, crash point). The
// dump snapshots reg (a fresh registry when nil) and holds no recent
// events.
func DumpFailure(reg *Registry, dir, stage string, err error, tags map[string]string) (string, error) {
	if err == nil {
		return "", nil
	}
	if reg == nil {
		reg = NewRegistry()
	}
	trigger := endRecord(stage, OpCheck, time.Time{}, 0, 0, 0, err)
	return writeDump(reg, dir, trigger, tags, []EventRecord{}, false, 1)
}

// writeDump writes one crash file and returns its path; inOp says it runs
// inside the failing operation, which selects the collectors' in-op gauge
// path.
func writeDump(reg *Registry, dir string, trigger EventRecord, tags map[string]string, events []EventRecord, inOp bool, seq int) (string, error) {
	snap := reg.snapshot(inOp) // includes one gauge collection
	d := CrashDump{
		Version: crashDumpVersion,
		Time:    time.Now(),
		Trigger: trigger,
		Tags:    tags,
		Events:  events,
		Metrics: snap,
		Gauges:  snap.Gauges,
		SlowOps: reg.Tracer().SlowOps(),
	}
	name := fmt.Sprintf("crash-%s-%s-%d-%d.json", sanitize(trigger.Scheme), trigger.Op, time.Now().UnixNano(), seq)
	path := filepath.Join(dir, name)
	return path, writeCrashDump(path, d)
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
