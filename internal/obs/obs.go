// Package obs is the observability subsystem shared by every layer of the
// repository: a low-overhead metrics registry (atomic counters and
// fixed-bucket histograms, no external dependencies), per-operation series
// recording wall time and block-I/O deltas, and a pluggable trace-hook
// interface for structured operation logging.
//
// The paper's entire argument is an I/O-accounting argument — W-BOX's
// 1-I/O lookups, B-BOX's O(1) amortized updates, the caching layer's
// near-zero read cost — and the online-labeling literature frames every
// bound as per-update amortized work. The registry makes those quantities
// observable on real workloads: each logical operation is charged its own
// I/O delta (captured via pager.Store counter snapshots around the
// operation) and its own wall time, and every structural event the
// amortization hides (splits, relabels, rebuilds, merges, cache repairs)
// has a dedicated counter.
//
// The no-hook fast path performs no allocations: Begin/End manipulate a
// by-value OpCtx and atomic counters only, so instrumentation can stay on
// in production.
package obs

import (
	"sync"
	"sync/atomic"
	"time"

	"boxes/internal/faults"
)

// Op identifies one per-operation metric series.
type Op uint8

// The operation kinds recorded by the registry. They correspond to the
// Labeler operations the paper analyses, plus bulk loading and invariant
// checking (the latter so that tools can report check durations from the
// same snapshot).
const (
	OpLookup Op = iota
	OpInsert
	OpDelete
	OpSubtreeInsert
	OpSubtreeDelete
	OpBulkLoad
	OpCheck
	OpBatch
	numOps
)

var opNames = [numOps]string{
	OpLookup:        "lookup",
	OpInsert:        "insert",
	OpDelete:        "delete",
	OpSubtreeInsert: "subtree_insert",
	OpSubtreeDelete: "subtree_delete",
	OpBulkLoad:      "bulk_load",
	OpCheck:         "check",
	OpBatch:         "batch",
}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return "unknown"
}

// Ops returns every operation kind, in exposition order.
func Ops() []Op {
	out := make([]Op, numOps)
	for i := range out {
		out[i] = Op(i)
	}
	return out
}

// Counter identifies one structural counter: an event the amortized
// analyses hide inside per-update bounds.
type Counter uint8

// Structural counters wired into the hot paths of every layer.
const (
	// CtrWBoxSplits counts W-BOX node splits (Section 4).
	CtrWBoxSplits Counter = iota
	// CtrWBoxRelabels counts the subtree relabelings piggybacked on W-BOX
	// splits (the O(w(n)/B) work the weight-balanced analysis amortizes).
	CtrWBoxRelabels
	// CtrWBoxReclaims counts tombstone reclaims on insertion.
	CtrWBoxReclaims
	// CtrWBoxRebuilds counts W-BOX global rebuilds (tombstones reached
	// half the structure, or a bulk insert rebuilt the tree).
	CtrWBoxRebuilds
	// CtrBBoxSplits counts B-BOX node splits (Section 5).
	CtrBBoxSplits
	// CtrBBoxBorrows counts B-BOX underflow repairs by borrowing.
	CtrBBoxBorrows
	// CtrBBoxMerges counts B-BOX underflow repairs by merging.
	CtrBBoxMerges
	// CtrBBoxRebuilds counts B-BOX global rebuilds (subtree splice fell
	// back to rebuilding the whole tree).
	CtrBBoxRebuilds
	// CtrNaiveRelabels counts naive-k global relabelings.
	CtrNaiveRelabels
	// CtrLIDFAllocs counts LIDF record allocations.
	CtrLIDFAllocs
	// CtrLIDFFrees counts LIDF record frees.
	CtrLIDFFrees
	// CtrPagerCacheHits counts global LRU block-cache hits.
	CtrPagerCacheHits
	// CtrPagerCacheMisses counts global LRU block-cache misses.
	CtrPagerCacheMisses
	// CtrPagerIOErrors counts backend I/O failures surfaced by the pager.
	CtrPagerIOErrors
	// CtrPagerInjectedFailures counts failures injected by a
	// pager.FaultBackend, so fault-injection runs are observable.
	CtrPagerInjectedFailures
	// CtrPagerWALCommits counts write-ahead log transactions committed.
	CtrPagerWALCommits
	// CtrPagerWALFrames counts block images appended to the write-ahead log.
	CtrPagerWALFrames
	// CtrPagerWALSyncs counts write-ahead log fsyncs — the durability
	// points, one per commit, plus one per checkpoint's log reset.
	CtrPagerWALSyncs
	// CtrPagerCheckpoints counts checkpoints: the logged images applied in
	// place, data and sidecar fsynced, the log reset.
	CtrPagerCheckpoints
	// CtrPagerChecksumFailures counts blocks whose CRC32-C did not match
	// their contents on read — detected corruption.
	CtrPagerChecksumFailures
	// CtrCoreDegraded counts transitions of a store into read-only
	// degraded mode after a permanent write-path fault.
	CtrCoreDegraded
	// CtrPagerPoisoned counts backends poisoned by a failed fsync or a
	// post-durability-point commit failure (see pager.ErrPoisoned).
	CtrPagerPoisoned
	// CtrCoreOpAborts counts durable operations rolled back cleanly to
	// the committed state after a commit failure that did not degrade the
	// store (ENOSPC, transient commit faults).
	CtrCoreOpAborts
	// CtrSimHistories counts simulated histories run to completion by the
	// deterministic simulation harness (internal/sim).
	CtrSimHistories
	// CtrSimOps counts logical operations executed across simulated
	// histories.
	CtrSimOps
	// CtrSimRestarts counts crash-restart cycles (close, fsck, reopen,
	// oracle resync) the simulator drove.
	CtrSimRestarts
	// CtrSimFaultsCrash counts injected power cuts (full and torn).
	CtrSimFaultsCrash
	// CtrSimFaultsNoSpace counts injected ENOSPC write failures.
	CtrSimFaultsNoSpace
	// CtrSimFaultsSyncFail counts injected fsync failures.
	CtrSimFaultsSyncFail
	// CtrSimFaultsTransient counts injected transient I/O flakes.
	CtrSimFaultsTransient
	// CtrSimRedoCrashes counts second crashes injected during WAL redo
	// (crash-during-recovery points).
	CtrSimRedoCrashes
	// CtrSimMinimizeRuns counts replays executed by the history minimizer
	// while shrinking a failure.
	CtrSimMinimizeRuns
	// CtrSimMinimizeEventsIn counts events entering the minimizer (the
	// failing traces' sizes); together with CtrSimMinimizeEventsOut it
	// yields the harness's aggregate shrink ratio.
	CtrSimMinimizeEventsIn
	// CtrSimMinimizeEventsOut counts events surviving minimization.
	CtrSimMinimizeEventsOut
	numCounters
)

var counterNames = [numCounters]string{
	CtrWBoxSplits:            "wbox_splits_total",
	CtrWBoxRelabels:          "wbox_relabels_total",
	CtrWBoxReclaims:          "wbox_tombstone_reclaims_total",
	CtrWBoxRebuilds:          "wbox_rebuilds_total",
	CtrBBoxSplits:            "bbox_splits_total",
	CtrBBoxBorrows:           "bbox_borrows_total",
	CtrBBoxMerges:            "bbox_merges_total",
	CtrBBoxRebuilds:          "bbox_rebuilds_total",
	CtrNaiveRelabels:         "naive_relabels_total",
	CtrLIDFAllocs:            "lidf_allocs_total",
	CtrLIDFFrees:             "lidf_frees_total",
	CtrPagerCacheHits:        "pager_cache_hits_total",
	CtrPagerCacheMisses:      "pager_cache_misses_total",
	CtrPagerIOErrors:         "pager_io_errors_total",
	CtrPagerInjectedFailures: "pager_injected_failures_total",
	CtrPagerWALCommits:       "pager_wal_commits_total",
	CtrPagerWALFrames:        "pager_wal_frames_total",
	CtrPagerWALSyncs:         "pager_wal_syncs_total",
	CtrPagerCheckpoints:      "pager_checkpoints_total",
	CtrPagerChecksumFailures: "pager_checksum_failures_total",
	CtrCoreDegraded:          "core_degraded_transitions_total",
	CtrPagerPoisoned:         "pager_poisoned_total",
	CtrCoreOpAborts:          "core_op_aborts_total",
	CtrSimHistories:          "sim_histories_total",
	CtrSimOps:                "sim_ops_total",
	CtrSimRestarts:           "sim_restarts_total",
	CtrSimFaultsCrash:        "sim_faults_crash_total",
	CtrSimFaultsNoSpace:      "sim_faults_nospace_total",
	CtrSimFaultsSyncFail:     "sim_faults_syncfail_total",
	CtrSimFaultsTransient:    "sim_faults_transient_total",
	CtrSimRedoCrashes:        "sim_redo_crashes_total",
	CtrSimMinimizeRuns:       "sim_minimize_runs_total",
	CtrSimMinimizeEventsIn:   "sim_minimize_events_in_total",
	CtrSimMinimizeEventsOut:  "sim_minimize_events_out_total",
}

func (c Counter) String() string {
	if int(c) < len(counterNames) {
		return counterNames[c]
	}
	return "unknown_total"
}

// Histogram bucket bounds. Latency bounds are exponential in nanoseconds
// (1.024µs .. ~1.07s); I/O-delta bounds are 0 plus powers of two, matching
// the per-op block counts the paper reports (1-I/O lookups, O(log_B N)
// updates, occasional O(N/B) rebuild spikes).
var (
	latencyBounds = func() []uint64 {
		b := make([]uint64, 21)
		for i := range b {
			b[i] = 1024 << uint(i)
		}
		return b
	}()
	ioBounds = []uint64{0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}
)

// maxBuckets bounds the per-histogram counter array (largest bound set
// plus one overflow bucket).
const maxBuckets = 22

// hist is a fixed-bucket histogram with atomic counters. counts[i] holds
// observations <= bounds[i]; counts[len(bounds)] is the overflow bucket.
type hist struct {
	bounds []uint64
	counts [maxBuckets]atomic.Uint64
	sum    atomic.Uint64
}

func (h *hist) observe(v uint64) {
	h.sum.Add(v)
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i].Add(1)
			return
		}
	}
	h.counts[len(h.bounds)].Add(1)
}

// opSeries is the per-operation metric bundle: invocation and error
// counts, a wall-time histogram, and read/write I/O-delta histograms.
type opSeries struct {
	count   atomic.Uint64
	errors  atomic.Uint64
	latency hist
	reads   hist
	writes  hist
}

// Registry is the metrics hub one store (or a whole benchmark run) reports
// into. All methods are safe for concurrent use and nil-receiver-safe, so
// uninstrumented configurations cost a single predicted branch.
type Registry struct {
	counters [numCounters]atomic.Uint64
	ops      [numOps]opSeries
	phases   [numPhaseRows][numPhases]hist
	writerOp atomic.Int32 // packed current exclusive-section cell; see SetWriterCell
	tracer   *Tracer
	hooks    atomic.Pointer[[]TraceHook]

	// Amortized-cost ledger (ledger.go): per-(scheme, op, kind) attribution
	// cells, per-kind global totals, per-(scheme, op) completed-op counts,
	// and the sliding amortization window.
	ledgerCells    [maxLedgerSchemes][numOps][numCostKinds]atomic.Uint64
	ledgerTotals   [numCostKinds]atomic.Uint64
	ledgerOps      [maxLedgerSchemes][numOps]atomic.Uint64
	ledgerOpsTotal atomic.Uint64
	ledgerIdx      atomic.Pointer[map[string]int] // scheme name -> ledger row

	winMu       sync.Mutex
	winStart    ledgerWindowSnap // ledger state at current window start
	winStartOps uint64
	winLast     ledgerWindowSnap // delta of the last completed window
	winLastOps  uint64

	// Heat maps (heat.go): insertion density over the label key space
	// and read/write heat over block ids.
	heatLabel heatSpace
	heatBlock heatSpace

	mu          sync.Mutex
	schemes     []string    // scheme names of the stores reporting here
	ledgerNames []string    // interned ledger row names, in row order
	collectors  []Collector // scrape-time gauge sources (RegisterCollector)
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	r := &Registry{}
	for i := range r.ops {
		r.ops[i].latency.bounds = latencyBounds
		r.ops[i].reads.bounds = ioBounds
		r.ops[i].writes.bounds = ioBounds
	}
	for row := range r.phases {
		for ph := range r.phases[row] {
			r.phases[row][ph].bounds = latencyBounds
		}
	}
	r.tracer = newTracer()
	r.heatLabel.initHeat("label", labelSeriesNames[:])
	r.heatBlock.initHeat("block", blockSeriesNames[:])
	r.RegisterCollector(CollectorFunc(func() []GaugeValue {
		out := r.amortizedGaugesAll()
		out = append(out, r.heatLabel.heatGauges()...)
		out = append(out, r.heatBlock.heatGauges()...)
		return out
	}))
	return r
}

// SetScheme records that a store using the named scheme reports into this
// registry (exposed as boxes_store_info). Duplicates are ignored.
func (r *Registry) SetScheme(name string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	seen := false
	for _, s := range r.schemes {
		if s == name {
			seen = true
			break
		}
	}
	if !seen {
		r.schemes = append(r.schemes, name)
	}
	r.mu.Unlock()
	// Intern the scheme into the ledger too, so the store's own scheme
	// claims row 0 before any operation runs.
	r.SchemeIndex(name)
}

// Schemes returns the scheme names recorded via SetScheme.
func (r *Registry) Schemes() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, len(r.schemes))
	copy(out, r.schemes)
	return out
}

// AddHook installs a trace hook. Hooks should be installed before
// operations begin; installation is safe concurrently with running
// operations, but an operation in flight when the hook is added may miss
// its start event.
func (r *Registry) AddHook(h TraceHook) {
	if r == nil || h == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	old := r.hooks.Load()
	var next []TraceHook
	if old != nil {
		next = append(next, *old...)
	}
	next = append(next, h)
	r.hooks.Store(&next)
}

// Inc adds one to a structural counter and, for ledger-mapped counters,
// attributes the event to the current writer cell (counter first, then
// cell, then total — the order the conservation invariant relies on).
func (r *Registry) Inc(c Counter) {
	if r == nil {
		return
	}
	r.counters[c].Add(1)
	if k := counterCost[c]; k >= 0 {
		r.costAdd(CostKind(k), 1)
	}
}

// Add adds n to a structural counter, with the same ledger attribution as
// Inc.
func (r *Registry) Add(c Counter, n uint64) {
	if r == nil {
		return
	}
	r.counters[c].Add(n)
	if k := counterCost[c]; k >= 0 {
		r.costAdd(CostKind(k), n)
	}
}

// Counter reads a structural counter.
func (r *Registry) Counter(c Counter) uint64 {
	if r == nil {
		return 0
	}
	return r.counters[c].Load()
}

// OpCount reads the invocation count of an operation series.
func (r *Registry) OpCount(op Op) uint64 {
	if r == nil {
		return 0
	}
	return r.ops[op].count.Load()
}

// OpCtx carries one in-flight operation's starting point between Begin and
// End. It is passed by value and never escapes, keeping the fast path
// allocation-free.
type OpCtx struct {
	scheme    string
	schemeIdx int // ledger row of scheme
	op        Op
	start     time.Time
	reads     uint64
	writes    uint64
	active    bool
}

// Begin opens a per-operation measurement: reads/writes are the pager's
// cumulative I/O counters at operation start. The scheme name is carried
// into trace events.
func (r *Registry) Begin(scheme string, op Op, reads, writes uint64) OpCtx {
	if r == nil {
		return OpCtx{}
	}
	c := OpCtx{scheme: scheme, schemeIdx: r.SchemeIndex(scheme), op: op, start: time.Now(), reads: reads, writes: writes, active: true}
	if hooks := r.hooks.Load(); hooks != nil {
		for _, h := range *hooks {
			h.OpStart(scheme, op)
		}
	}
	return c
}

// End closes a measurement opened by Begin: reads/writes are the pager's
// cumulative counters at operation end; the element-wise difference from
// the Begin snapshot is the operation's I/O charge. It returns the measured
// wall time so callers can attribute a residual phase (zero for an inactive
// context).
func (r *Registry) End(c OpCtx, reads, writes uint64, err error) time.Duration {
	if r == nil || !c.active {
		return 0
	}
	d := time.Since(c.start)
	if d < 0 {
		d = 0
	}
	dr := satSub(reads, c.reads)
	dw := satSub(writes, c.writes)
	s := &r.ops[c.op]
	s.count.Add(1)
	r.noteLedgerOp(c.schemeIdx, c.op)
	if err != nil {
		s.errors.Add(1)
	}
	s.latency.observe(uint64(d))
	s.reads.observe(dr)
	s.writes.observe(dw)
	if hooks := r.hooks.Load(); hooks != nil {
		ev := Event{
			Scheme:   c.scheme,
			Op:       c.op,
			Start:    c.start,
			Duration: d,
			Reads:    dr,
			Writes:   dw,
			Err:      err,
		}
		if err != nil {
			ev.Class = faults.Classify(err).String()
		}
		for _, h := range *hooks {
			h.OpEnd(ev)
		}
	}
	return d
}

// satSub returns a-b, saturating at zero (the counters may have been reset
// mid-operation).
func satSub(a, b uint64) uint64 {
	if a < b {
		return 0
	}
	return a - b
}
