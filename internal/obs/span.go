// Span tracing and phase-latency attribution.
//
// Two instruments share one phase taxonomy:
//
//   - Phase histograms are ALWAYS ON: every instrumented section (a backend
//     block read, a WAL fsync, a metadata rewrite, ...) adds its duration
//     to a fixed-bucket histogram keyed by (row, phase), where the row is
//     the operation kind the section ran under — or the auxiliary "wal"
//     row for the commit protocol's own sections (frame write, fsync,
//     checkpoint). The cost is one time.Now pair plus an atomic histogram
//     add per section.
//
//   - Span RECORDING is opt-in (Tracer.Start, boxbench/boxload -trace, or a
//     slow-op threshold): sections additionally push SpanRecords — with
//     parent/child links and goroutine-lane assignment — into a ring, from
//     which Chrome trace-event JSON and slow-op trees are built. When the
//     tracer is off, every span call is a null span: one atomic load, zero
//     allocations.
//
// Attribution without context threading: the registry keeps a single
// "current writer op" slot (SetWriterCell/ClearWriterOp), valid because every
// non-lookup core operation runs under the store's write lock, while the
// operations that run concurrently under its read lock are statically
// lookups. Deep layers (the pager) resolve their phase row as "lookup for a
// read op's read, else the writer op" — exact either way.
package obs

import (
	"log/slog"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Phase identifies one latency phase inside (or alongside) an operation.
// The per-op phases are disjoint: structure is the residual of op wall time
// not covered by any instrumented section, so the per-op rows sum to the
// measured latency (exactly when operations run one at a time,
// approximately under concurrent lookups).
type Phase uint8

const (
	// PhaseStructure is in-memory structure work: op wall time minus every
	// other attributed phase (computed as a residual by core).
	PhaseStructure Phase = iota
	// PhaseLockWaitRead is time spent acquiring the store lock's read side
	// (recorded outside the op window; attribution only, not coverage).
	PhaseLockWaitRead
	// PhaseLockWaitWrite is time spent acquiring the store lock's write side
	// (recorded outside the op window; attribution only, not coverage).
	PhaseLockWaitWrite
	// PhaseBlockRead is backend block fetch time (cache misses).
	PhaseBlockRead
	// PhaseBlockWrite is backend block flush time (EndOp flushes and
	// write-through writes).
	PhaseBlockWrite
	// PhaseWALCommit is the commit call at EndOp: the WAL append and fsync
	// (plus the checkpoint it may trigger).
	PhaseWALCommit
	// PhaseMetaPersist is the durable-mode metadata blob rewrite.
	PhaseMetaPersist
	// PhaseFrameWrite is WAL frame + commit-record append time ("wal" row).
	PhaseFrameWrite
	// PhaseFsync is the WAL fsync itself — the durability point ("wal" row).
	PhaseFsync
	// PhaseCheckpoint is one whole checkpoint: the apply below plus the
	// durable in-place reset of the log ("wal" row).
	PhaseCheckpoint
	// PhaseApply is a checkpoint's in-place apply of the logged images,
	// header write and data/crc syncs ("wal" row, inside checkpoint).
	PhaseApply
	numPhases
)

var phaseNames = [numPhases]string{
	PhaseStructure:     "structure",
	PhaseLockWaitRead:  "lock_wait_read",
	PhaseLockWaitWrite: "lock_wait_write",
	PhaseBlockRead:     "block_read",
	PhaseBlockWrite:    "block_write",
	PhaseWALCommit:     "wal_commit",
	PhaseMetaPersist:   "meta_persist",
	PhaseFrameWrite:    "frame_write",
	PhaseFsync:         "fsync",
	PhaseCheckpoint:    "checkpoint",
	PhaseApply:         "apply",
}

func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return "unknown"
}

// Phases returns every phase, in declaration order.
func Phases() []Phase {
	out := make([]Phase, numPhases)
	for i := range out {
		out[i] = Phase(i)
	}
	return out
}

// Phase rows: one per operation kind, plus an auxiliary "wal" row for the
// commit protocol's sections (frame write, fsync, checkpoint), which nest
// inside an operation's wal_commit phase or run at Sync and Close.
const (
	rowWAL       = int(numOps)
	numPhaseRows = int(numOps) + 1
)

// phaseRowName renders a phase row for exposition ("insert", "wal", ...).
func phaseRowName(row int) string {
	switch {
	case row < int(numOps):
		return Op(row).String()
	case row == rowWAL:
		return "wal"
	default:
		return "unknown"
	}
}

// ObservePhase records a phase duration against an operation row.
func (r *Registry) ObservePhase(op Op, ph Phase, d time.Duration) {
	if r == nil || op >= numOps || ph >= numPhases {
		return
	}
	if d < 0 {
		d = 0
	}
	r.phases[op][ph].observe(uint64(d))
}

// ObservePhaseWAL records a commit-protocol section on the "wal" row.
func (r *Registry) ObservePhaseWAL(ph Phase, d time.Duration) {
	if r == nil || ph >= numPhases {
		return
	}
	if d < 0 {
		d = 0
	}
	r.phases[rowWAL][ph].observe(uint64(d))
}

// ObservePhaseAuto records a phase against the current operation: the
// lookup row for a read op's read (reader), else the writer op installed
// by SetWriterCell. Deep layers (the pager) use this so phase
// attribution needs no per-call op threading.
func (r *Registry) ObservePhaseAuto(reader bool, ph Phase, d time.Duration) {
	if reader {
		r.ObservePhase(OpLookup, ph, d)
		return
	}
	r.ObservePhase(r.WriterOp(), ph, d)
}

// SetWriterCell installs (scheme row, op) as the current exclusive-section
// cell, packed into one atomic word: (scheme << 8) | (op + 1), 0 = none.
// Core calls it at op begin for every operation that runs under the store's
// write lock (everything but lookups); the lookups running concurrently
// under its read lock never touch the slot. The ledger and the phase
// histograms both resolve attribution through it.
func (r *Registry) SetWriterCell(scheme int, op Op) {
	if r == nil {
		return
	}
	if scheme < 0 || scheme >= maxLedgerSchemes {
		scheme = maxLedgerSchemes - 1
	}
	r.writerOp.Store(int32(scheme)<<8 | (int32(op) + 1))
}

// ClearWriterOp clears the slot installed by SetWriterCell.
func (r *Registry) ClearWriterOp() {
	if r == nil {
		return
	}
	r.writerOp.Store(0)
}

// writerCell decodes the packed slot: (row 0, OpLookup) when none is
// installed — exact for read ops, which are statically lookups.
func (r *Registry) writerCell() (int, Op) {
	v := r.writerOp.Load()
	if v <= 0 {
		return 0, OpLookup
	}
	return int(v >> 8), Op(v&0xff) - 1
}

// WriterOp returns the current exclusive-section operation, or OpLookup
// when none is installed.
func (r *Registry) WriterOp() Op {
	if r == nil {
		return OpLookup
	}
	_, op := r.writerCell()
	return op
}

// Tracer returns the registry's span tracer (nil for a nil registry; all
// Tracer methods are nil-receiver-safe).
func (r *Registry) Tracer() *Tracer {
	if r == nil {
		return nil
	}
	return r.tracer
}

// LaneWriter names lane 0, the exclusive writer's: its operations, their
// commits and checkpoints. Reader goroutines get per-goroutine lanes.
const LaneWriter = "writer"

// SpanRecord is one completed span.
type SpanRecord struct {
	ID     uint64    `json:"id"`
	Parent uint64    `json:"parent,omitempty"`
	Lane   int32     `json:"lane"`
	Name   string    `json:"name"`
	Scheme string    `json:"scheme,omitempty"`
	Start  time.Time `json:"start"`
	Dur    int64     `json:"duration_ns"`
	N      int       `json:"n,omitempty"` // payload count (commits a checkpoint covered, images applied, ...)
	Err    string    `json:"error,omitempty"`
}

// SlowOp is one slow operation captured by the tracer: its root span and
// the descendant spans that were in the ring when it ended (children end
// before their parents, so in-op phases are present; spans that outlive the
// op — e.g. a queue wait resolved after a deferred return — are best-effort).
type SlowOp struct {
	Root SpanRecord   `json:"root"`
	Tree []SpanRecord `json:"tree,omitempty"`
}

// TraceOptions configures Tracer.Start.
type TraceOptions struct {
	// Capacity is the span ring size (default 65536).
	Capacity int
	// SlowOp, when > 0, captures the span tree of any root operation span
	// whose duration meets the threshold.
	SlowOp time.Duration
	// SlowRing is how many slow ops are retained (default 32).
	SlowRing int
	// SlowLogger, when set, additionally logs one structured record per
	// slow op at level Warn.
	SlowLogger *slog.Logger
}

// maxSlowTree bounds the spans collected per slow op.
const maxSlowTree = 256

// maxLanes bounds distinct reader lanes; overflow readers share one lane.
const maxLanes = 64

// Tracer records hierarchical spans when enabled. The zero value (and a nil
// pointer) is a disabled tracer whose every method is a cheap no-op.
type Tracer struct {
	on         atomic.Bool
	slowNs     atomic.Int64
	nextID     atomic.Uint64
	writerSpan atomic.Uint64 // current writer-rooted op span ID

	mu          sync.Mutex
	spans       []SpanRecord
	next        int
	wrapped     bool
	laneNames   []string
	laneIdx     map[string]int32
	readers     map[uint64]readerCtx // goroutine ID -> current reader op span
	slow        []SlowOp
	slowNext    int
	slowWrapped bool
	slowLog     *slog.Logger
}

type readerCtx struct {
	span uint64
	lane int32
}

func newTracer() *Tracer { return &Tracer{} }

// Start enables span recording. Restarting an enabled tracer resets it.
func (t *Tracer) Start(o TraceOptions) {
	if t == nil {
		return
	}
	if o.Capacity < 1 {
		o.Capacity = 65536
	}
	if o.SlowRing < 1 {
		o.SlowRing = 32
	}
	t.mu.Lock()
	t.spans = make([]SpanRecord, o.Capacity)
	t.next, t.wrapped = 0, false
	t.laneNames = []string{LaneWriter}
	t.laneIdx = map[string]int32{LaneWriter: 0}
	t.readers = make(map[uint64]readerCtx)
	t.slow = make([]SlowOp, o.SlowRing)
	t.slowNext, t.slowWrapped = 0, false
	t.slowLog = o.SlowLogger
	t.slowNs.Store(int64(o.SlowOp))
	t.mu.Unlock()
	t.on.Store(true)
}

// Stop disables span recording; recorded spans stay readable.
func (t *Tracer) Stop() {
	if t == nil {
		return
	}
	t.on.Store(false)
	t.writerSpan.Store(0)
}

// Enabled reports whether spans are being recorded. This is the null-span
// fast path: one atomic load.
func (t *Tracer) Enabled() bool { return t != nil && t.on.Load() }

// Span is an open span handle, passed by value. The zero Span is a null
// span: End does nothing.
type Span struct {
	t      *Tracer
	id     uint64
	parent uint64
	lane   int32
	gid    uint64 // reader root spans: goroutine to unregister at End
	root   bool
	start  time.Time
	name   string
	scheme string
}

// ID returns the span's identifier (0 for a null span).
func (sp Span) ID() uint64 { return sp.id }

// laneLocked interns a lane name; t.mu must be held.
func (t *Tracer) laneLocked(name string) int32 {
	if idx, ok := t.laneIdx[name]; ok {
		return idx
	}
	if len(t.laneNames) >= maxLanes {
		name = "overflow"
		if idx, ok := t.laneIdx[name]; ok {
			return idx
		}
	}
	idx := int32(len(t.laneNames))
	t.laneNames = append(t.laneNames, name)
	t.laneIdx[name] = idx
	return idx
}

// gid parses the current goroutine's ID from runtime.Stack. It costs ~1µs
// and is called only while tracing is enabled, on reader-path spans.
func gid() uint64 {
	var b [64]byte
	n := runtime.Stack(b[:], false)
	// "goroutine 123 [...":
	i := 0
	for i < n && (b[i] < '0' || b[i] > '9') {
		i++
	}
	var id uint64
	for ; i < n && b[i] >= '0' && b[i] <= '9'; i++ {
		id = id*10 + uint64(b[i]-'0')
	}
	return id
}

func itoa(v uint64) string {
	if v == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}

// StartOp opens a root operation span on the writer lane (reader=false) or
// the calling goroutine's reader lane.
func (t *Tracer) StartOp(scheme string, op Op, reader bool) Span {
	if !t.Enabled() {
		return Span{}
	}
	id := t.nextID.Add(1)
	sp := Span{t: t, id: id, root: true, start: time.Now(), name: op.String(), scheme: scheme}
	if reader {
		g := gid()
		sp.gid = g
		t.mu.Lock()
		sp.lane = t.laneLocked("reader-" + itoa(g))
		t.readers[g] = readerCtx{span: id, lane: sp.lane}
		t.mu.Unlock()
	} else {
		t.writerSpan.Store(id)
	}
	return sp
}

// StartAuto opens a child span under the current operation: the writer op
// span (reader=false) or the calling goroutine's reader op span.
func (t *Tracer) StartAuto(reader bool, name string) Span {
	if !t.Enabled() {
		return Span{}
	}
	sp := Span{t: t, id: t.nextID.Add(1), start: time.Now(), name: name}
	if reader {
		g := gid()
		t.mu.Lock()
		if rc, ok := t.readers[g]; ok {
			sp.parent, sp.lane = rc.span, rc.lane
		} else {
			sp.lane = t.laneLocked("reader-" + itoa(g))
		}
		t.mu.Unlock()
	} else {
		sp.parent = t.writerSpan.Load()
	}
	return sp
}

// RecordChild records an already-measured interval as a completed child of
// sp on sp's lane, carrying the count n — for sections nested in a span
// other than the current operation's (a checkpoint's apply). A null span
// records nothing.
func (sp Span) RecordChild(name string, start time.Time, d time.Duration, n int) {
	t := sp.t
	if t == nil || !t.on.Load() {
		return
	}
	rec := SpanRecord{ID: t.nextID.Add(1), Parent: sp.id, Lane: sp.lane, Name: name, Start: start, Dur: int64(d), N: n}
	t.mu.Lock()
	t.pushLocked(rec)
	t.mu.Unlock()
}

// RecordAuto records an already-measured interval on the current
// operation's lane (writer, or the calling goroutine's reader lane).
func (t *Tracer) RecordAuto(reader bool, name string, start time.Time, d time.Duration) {
	if !t.Enabled() {
		return
	}
	rec := SpanRecord{ID: t.nextID.Add(1), Name: name, Start: start, Dur: int64(d)}
	t.mu.Lock()
	if reader {
		g := gid()
		if rc, ok := t.readers[g]; ok {
			rec.Parent, rec.Lane = rc.span, rc.lane
		} else {
			rec.Lane = t.laneLocked("reader-" + itoa(g))
		}
	} else {
		rec.Parent = t.writerSpan.Load()
	}
	t.pushLocked(rec)
	t.mu.Unlock()
}

// End closes the span. Null spans return immediately.
func (sp Span) End(err error) { sp.EndCount(0, err) }

// EndCount closes the span with a payload count (rendered as args.n in the
// Chrome trace).
func (sp Span) EndCount(n int, err error) {
	t := sp.t
	if t == nil || !t.on.Load() {
		return
	}
	d := time.Since(sp.start)
	rec := SpanRecord{
		ID: sp.id, Parent: sp.parent, Lane: sp.lane, Name: sp.name,
		Scheme: sp.scheme, Start: sp.start, Dur: int64(d), N: n,
	}
	if err != nil {
		rec.Err = err.Error()
	}
	if sp.root && sp.gid == 0 {
		t.writerSpan.CompareAndSwap(sp.id, 0)
	}
	slowNs := t.slowNs.Load()
	slow := sp.root && slowNs > 0 && int64(d) >= slowNs
	var captured SlowOp
	t.mu.Lock()
	t.pushLocked(rec)
	if sp.root && sp.gid != 0 {
		if rc, ok := t.readers[sp.gid]; ok && rc.span == sp.id {
			delete(t.readers, sp.gid)
		}
	}
	if slow {
		captured = SlowOp{Root: rec, Tree: t.collectTreeLocked(sp.id)}
		t.slow[t.slowNext] = captured
		t.slowNext++
		if t.slowNext == len(t.slow) {
			t.slowNext, t.slowWrapped = 0, true
		}
	}
	log := t.slowLog
	t.mu.Unlock()
	if slow && log != nil {
		log.Warn("boxes.slow_op",
			slog.String("op", rec.Name),
			slog.String("scheme", rec.Scheme),
			slog.Duration("duration", d),
			slog.Int("spans", len(captured.Tree)),
			slog.String("error", rec.Err),
		)
	}
}

// pushLocked appends a record to the span ring; t.mu must be held.
func (t *Tracer) pushLocked(rec SpanRecord) {
	if len(t.spans) == 0 {
		return
	}
	t.spans[t.next] = rec
	t.next++
	if t.next == len(t.spans) {
		t.next, t.wrapped = 0, true
	}
}

// collectTreeLocked gathers the descendants of root still present in the
// ring, in chronological order. Scanning newest-to-oldest visits parents
// before their children (a child ends before its parent), so one pass
// closes the transitive set.
func (t *Tracer) collectTreeLocked(root uint64) []SpanRecord {
	n := len(t.spans)
	if n == 0 {
		return nil
	}
	count := t.next
	if t.wrapped {
		count = n
	}
	ids := map[uint64]bool{root: true}
	var tree []SpanRecord
	for i := 0; i < count && len(tree) < maxSlowTree; i++ {
		idx := (t.next - 1 - i + n) % n
		rec := t.spans[idx]
		if rec.ID == root || rec.ID == 0 {
			continue
		}
		if ids[rec.Parent] {
			ids[rec.ID] = true
			tree = append(tree, rec)
		}
	}
	for i, j := 0, len(tree)-1; i < j; i, j = i+1, j-1 {
		tree[i], tree[j] = tree[j], tree[i]
	}
	return tree
}

// Spans returns the recorded spans, oldest first.
func (t *Tracer) Spans() []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.wrapped {
		out := make([]SpanRecord, t.next)
		copy(out, t.spans[:t.next])
		return out
	}
	out := make([]SpanRecord, 0, len(t.spans))
	out = append(out, t.spans[t.next:]...)
	out = append(out, t.spans[:t.next]...)
	return out
}

// Lanes returns the interned lane names; a SpanRecord's Lane indexes this
// slice.
func (t *Tracer) Lanes() []string {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]string, len(t.laneNames))
	copy(out, t.laneNames)
	return out
}

// OpStat is one operation row of the /debug/spans summary.
type OpStat struct {
	Op      string `json:"op"`
	Count   uint64 `json:"count"`
	Errors  uint64 `json:"errors,omitempty"`
	TotalNs uint64 `json:"total_ns"`
	P50Ns   uint64 `json:"p50_ns"`
	P99Ns   uint64 `json:"p99_ns"`
}

// PhaseStat is one (op, phase) row of the /debug/spans summary.
type PhaseStat struct {
	Op      string `json:"op"`
	Phase   string `json:"phase"`
	Count   uint64 `json:"count"`
	TotalNs uint64 `json:"total_ns"`
	P50Ns   uint64 `json:"p50_ns"`
	P99Ns   uint64 `json:"p99_ns"`
}

// SpansDebug is the payload of the /debug/spans endpoint: per-op and
// per-phase latency summaries plus the captured slow operations.
type SpansDebug struct {
	TracingEnabled bool        `json:"tracing_enabled"`
	Ops            []OpStat    `json:"ops"`
	Phases         []PhaseStat `json:"phases"`
	SlowOps        []SlowOp    `json:"slow_ops,omitempty"`
}

// SpansDebug summarizes the registry's latency state for the /debug/spans
// endpoint: non-empty op rows, non-empty phase rows sorted by total time
// descending, and the tracer's slow-op captures.
func (r *Registry) SpansDebug() SpansDebug {
	var out SpansDebug
	if r == nil {
		return out
	}
	out.TracingEnabled = r.tracer.Enabled()
	for op := Op(0); op < numOps; op++ {
		s := &r.ops[op]
		h := snapHist(&s.latency)
		if n := s.count.Load(); n > 0 {
			out.Ops = append(out.Ops, OpStat{
				Op: op.String(), Count: n, Errors: s.errors.Load(),
				TotalNs: h.Sum, P50Ns: h.Quantile(0.50), P99Ns: h.Quantile(0.99),
			})
		}
	}
	for row := 0; row < numPhaseRows; row++ {
		for ph := Phase(0); ph < numPhases; ph++ {
			h := snapHist(&r.phases[row][ph])
			n := h.Total()
			if n == 0 {
				continue
			}
			out.Phases = append(out.Phases, PhaseStat{
				Op: phaseRowName(row), Phase: ph.String(), Count: n,
				TotalNs: h.Sum, P50Ns: h.Quantile(0.50), P99Ns: h.Quantile(0.99),
			})
		}
	}
	sort.Slice(out.Phases, func(i, j int) bool { return out.Phases[i].TotalNs > out.Phases[j].TotalNs })
	out.SlowOps = r.tracer.SlowOps()
	return out
}

// SlowOps returns the captured slow operations, oldest first.
func (t *Tracer) SlowOps() []SlowOp {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.slowWrapped {
		out := make([]SlowOp, t.slowNext)
		copy(out, t.slow[:t.slowNext])
		return out
	}
	out := make([]SlowOp, 0, len(t.slow))
	out = append(out, t.slow[t.slowNext:]...)
	out = append(out, t.slow[:t.slowNext]...)
	return out
}
