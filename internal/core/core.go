// Package core assembles the paper's system: a labeling Store that wires
// an immutable-LID file and one of the dynamic labeling schemes (W-BOX,
// W-BOX-O, B-BOX, naive-k) over a block store with I/O accounting.
package core

import (
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"boxes/internal/bbox"
	"boxes/internal/naive"
	"boxes/internal/obs"
	"boxes/internal/order"
	"boxes/internal/pager"
	"boxes/internal/query"
	"boxes/internal/wbox"
	"boxes/internal/xmlgen"
)

// Scheme selects the dynamic labeling structure.
type Scheme int

const (
	// SchemeWBox is the weight-balanced B-tree of Section 4: 1-I/O
	// lookups, O(log_B N) amortized inserts.
	SchemeWBox Scheme = iota
	// SchemeWBoxO is W-BOX-O, optimized for retrieving start/end label
	// pairs with a single structure I/O.
	SchemeWBoxO
	// SchemeBBox is the back-linked keyless B-tree of Section 5: O(1)
	// amortized updates, O(log_B N) lookups.
	SchemeBBox
	// SchemeNaive is the gap-based baseline with global relabeling.
	SchemeNaive
)

func (s Scheme) String() string {
	switch s {
	case SchemeWBox:
		return "W-BOX"
	case SchemeWBoxO:
		return "W-BOX-O"
	case SchemeBBox:
		return "B-BOX"
	case SchemeNaive:
		return "naive"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// Options configures a Store.
type Options struct {
	Scheme    Scheme
	BlockSize int // default 8192, the paper's block size

	// Ordinal enables ordinal labeling support (size fields). For B-BOX
	// this is the B-BOX-O variant of the experiments.
	Ordinal bool
	// RelaxedFanout selects B-BOX's B/4 minimum fan-out (Section 5,
	// mixed-workload variant).
	RelaxedFanout bool
	// NaiveK is the k of naive-k (required for SchemeNaive), the paper's
	// in-memory baseline: persisting it returns ErrNotPersistent.
	NaiveK int

	// CacheBlocks enables a global LRU block cache of this many blocks
	// (0 = off, matching the paper's experiments).
	CacheBlocks int

	// Backend overrides the block store backend (default: in-memory).
	Backend pager.Backend

	// Durable makes every mutating operation crash-atomic: the operation is
	// wrapped in a single pager transaction and the store's metadata blob
	// (scheme roots, counters, LIDF extents) is re-persisted inside that
	// same transaction, so after a power cut OpenExisting resumes at an
	// exact operation boundary with no separate Save needed. Requires a
	// backend that supports atomic batches and metadata persistence
	// (FileBackend with its write-ahead log) and a scheme that persists
	// (not naive-k: ErrNotPersistent). Costs one blob rewrite per update.
	Durable bool

	// Durability is ignored: every durable operation commits inline, WAL
	// append and fsync under the write lock. Coalesce writes with
	// ApplyBatch instead.
	//
	// Deprecated: leave it nil.
	Durability *pager.Durability

	// Metrics routes the store's measurements into an existing registry,
	// so several stores (e.g. one per scheme in a benchmark) can share one
	// exposition endpoint. When nil the store creates its own registry;
	// metrics are always on — they cost a few atomic adds and zero
	// allocations per operation.
	Metrics *obs.Registry

	// CrashDir gives the store a flight recorder: on any operation error
	// (including injected backend faults) the store's last 64 op events,
	// a full metrics snapshot, and the structural gauges are written as a
	// JSON crash file into this directory (boxinspect -crash reads them).
	CrashDir string

	// SlowOpThreshold enables the slow-op log: span recording is turned on
	// for the store's registry, and any operation whose wall time meets the
	// threshold has its full span tree captured (surfaced via /debug/spans
	// and flight-recorder crash dumps) and logged via slog at Warn. Zero
	// keeps span recording off; phase histograms are always on either way.
	SlowOpThreshold time.Duration
}

// Store is a dynamic order-based labeling service for one XML document,
// safe for concurrent use. Its read/write lock lets lookups (Lookup,
// LookupSpan, Compare, OrdinalLookup), Health, the scalar getters and
// Backup's block copy run concurrently under the read side, each pinning
// blocks in a read op of its own (pager.ReadOp), while mutators, Load,
// LoadBatched, Save, CheckInvariants, ClearDegraded, ResetStats and Close
// serialize under the write side. A mutator commits before it releases the
// lock, so it returns nil only once its transaction is durable. Lock
// acquisition waits are recorded as the lock_wait_read / lock_wait_write
// phase of the op that paid for them.
type Store struct {
	mu         sync.RWMutex
	opts       Options
	store      *pager.Store
	labeler    order.Labeler
	meta       metaMarshaler // nil for a scheme that cannot persist (naive-k)
	reg        *obs.Registry
	schemeName string
	schemeIdx  int // this scheme's ledger row in reg
	flight     *obs.FlightRecorder

	// extraNs accumulates transact()'s instrumented sections (meta_persist)
	// so end() can subtract them from the residual structure phase. It is
	// guarded by the write lock.
	extraNs int64

	// deg is non-nil in read-only degraded mode (see resilience.go).
	deg atomic.Pointer[degradedInfo]
}

// Open creates an empty Store.
func Open(opts Options) (*Store, error) {
	if opts.BlockSize == 0 {
		opts.BlockSize = pager.DefaultBlockSize
	}
	backend := opts.Backend
	if backend == nil {
		backend = pager.NewMemBackend(opts.BlockSize)
	}
	if backend.BlockSize() != opts.BlockSize {
		return nil, fmt.Errorf("core: backend block size %d != %d", backend.BlockSize(), opts.BlockSize)
	}
	reg := opts.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	var flight *obs.FlightRecorder
	if opts.CrashDir != "" {
		flight = obs.NewFlightRecorder(reg, opts.CrashDir)
	}
	reg.SetScheme(opts.Scheme.String())
	if opts.SlowOpThreshold > 0 {
		reg.Tracer().Start(obs.TraceOptions{SlowOp: opts.SlowOpThreshold, SlowLogger: slog.Default()})
	}

	popts := []pager.Option{pager.WithObserver(reg, opts.Scheme.String())}
	if opts.CacheBlocks > 0 {
		popts = append(popts, pager.WithCache(opts.CacheBlocks))
	}
	store := pager.NewStore(backend, popts...)

	var labeler order.Labeler
	switch opts.Scheme {
	case SchemeWBox, SchemeWBoxO:
		variant := wbox.Basic
		if opts.Scheme == SchemeWBoxO {
			variant = wbox.PairOptimized
		}
		p, err := wbox.NewParams(opts.BlockSize, variant, opts.Ordinal)
		if err != nil {
			return nil, err
		}
		l, err := wbox.New(store, p)
		if err != nil {
			return nil, err
		}
		labeler = l
	case SchemeBBox:
		p, err := bbox.NewParams(opts.BlockSize, opts.Ordinal, opts.RelaxedFanout)
		if err != nil {
			return nil, err
		}
		l, err := bbox.New(store, p)
		if err != nil {
			return nil, err
		}
		labeler = l
	case SchemeNaive:
		l, err := naive.New(store, naive.Config{K: opts.NaiveK})
		if err != nil {
			return nil, err
		}
		labeler = l
	default:
		return nil, fmt.Errorf("core: unknown scheme %v", opts.Scheme)
	}

	meta, _ := labeler.(metaMarshaler)
	if opts.Durable {
		if meta == nil {
			return nil, ErrNotPersistent
		}
		if _, ok := backend.(pager.TxBackend); !ok {
			return nil, errors.New("core: Durable requires a backend with atomic batches (pager.TxBackend)")
		}
		if _, ok := backend.(pager.MetaRooter); !ok {
			return nil, errors.New("core: Durable requires a backend that persists metadata (pager.MetaRooter)")
		}
	}

	s := &Store{opts: opts, store: store, labeler: labeler, meta: meta, reg: reg, schemeName: opts.Scheme.String(), flight: flight}
	s.schemeIdx = reg.SchemeIndex(s.schemeName)
	return s, nil
}

// Scheme reports the scheme in use.
func (s *Store) Scheme() Scheme { return s.opts.Scheme }

// Labeler exposes the underlying scheme for advanced use.
func (s *Store) Labeler() order.Labeler { return s.labeler }

// FlightRecorder returns the store's flight recorder (Options.CrashDir),
// or nil when crash dumping is off.
func (s *Store) FlightRecorder() *obs.FlightRecorder { return s.flight }

// MetricsRegistry returns the registry this store reports into (never
// nil). Callers can expose it over HTTP with obs.Handler.
func (s *Store) MetricsRegistry() *obs.Registry { return s.reg }

// Metrics returns a point-in-time snapshot of every metric the store has
// recorded: per-operation counts, latency and I/O-delta histograms, and
// the structural counters.
func (s *Store) Metrics() obs.Snapshot { return s.reg.Snapshot() }

// CheckLedger verifies the cost-ledger conservation invariant against this
// store's registry: per-(scheme, op) attributions must sum to the global
// kind totals, which must agree with the structural counters. With
// strict=true (valid only at quiescence — no operation in flight) it
// additionally cross-checks the ledger's block I/O totals against the
// pager's own counters, which holds as long as ResetStats was never called
// and no other store shares the registry.
func (s *Store) CheckLedger(strict bool) error {
	if err := s.reg.CheckLedger(strict); err != nil {
		return err
	}
	if strict {
		lr, lw := s.reg.LedgerIO()
		st := s.store.Stats()
		if lr != st.Reads || lw != st.Writes {
			return fmt.Errorf("core: ledger I/O (%d reads, %d writes) != pager I/O (%d reads, %d writes)",
				lr, lw, st.Reads, st.Writes)
		}
	}
	return nil
}

// opMeasure carries one in-flight operation's measurement state between
// begin and end: the registry context, the pager phase-counter snapshot
// (for the residual "structure" phase), and the root span when tracing.
type opMeasure struct {
	ctx  obs.OpCtx
	op   obs.Op
	excl bool // runs in the exclusive writer section
	ph   pager.PhaseNanos
	sp   obs.Span
}

// begin opens a per-operation measurement against the store's registry,
// snapshotting the pager's cumulative I/O counters and phase time, and
// marks the op's start in the store's flight recorder (if any).
//
// Every operation except a lookup runs under the write lock, so installing
// it as the registry's writer op is race-free: the lookups that run
// concurrently under the read lock never touch the slot.
func (s *Store) begin(op obs.Op) opMeasure {
	st := s.store.Stats()
	m := opMeasure{op: op, excl: op != obs.OpLookup}
	if m.excl {
		s.reg.SetWriterCell(s.schemeIdx, op)
		s.extraNs = 0 // sections timed outside a measured op (Save) are not this op's
	}
	if tr := s.reg.Tracer(); tr.Enabled() {
		m.sp = tr.StartOp(s.schemeName, op, !m.excl)
	}
	m.ph = s.store.PhaseStats()
	m.ctx = s.reg.Begin(s.schemeName, op, st.Reads, st.Writes)
	s.flight.OpStart(m.ctx)
	return m
}

// end closes a measurement: the I/O accumulated since begin is the
// operation's charge, and the wall time not covered by any instrumented
// phase (backend I/O, commit, meta persist) is attributed to
// the residual "structure" phase — in-memory structure work. The residual
// is exact when operations run sequentially; under concurrent lookups the
// pager's phase counters are global, so an op overlapping others
// under-counts its residual (clamped at zero), never over-counts a phase.
// The op's end event enters the flight recorder; a failed op is dumped
// there and then, on its own goroutine, under the store lock it holds.
func (s *Store) end(m opMeasure, err error) {
	st := s.store.Stats()
	d := s.reg.End(m.ctx, st.Reads, st.Writes, err)
	s.flight.OpEnd(m.ctx, st.Reads, st.Writes, d, err)
	delta := s.store.PhaseStats().Sub(m.ph)
	var extra int64
	if m.excl {
		extra = s.extraNs
		s.reg.ClearWriterOp()
	}
	resid := int64(d) - delta.Total() - extra
	if resid < 0 {
		resid = 0
	}
	s.reg.ObservePhase(m.op, obs.PhaseStructure, time.Duration(resid))
	m.sp.End(err)
}

// notePhase attributes one instrumented section inside transact() to the
// current writer op's phase histograms, and accumulates it into extraNs so
// end() can subtract it from the residual structure phase.
func (s *Store) notePhase(ph obs.Phase, start time.Time) {
	d := time.Since(start)
	s.extraNs += int64(d)
	s.reg.ObservePhase(s.reg.WriterOp(), ph, d)
	if tr := s.reg.Tracer(); tr.Enabled() {
		tr.RecordAuto(false, ph.String(), start, d)
	}
}

// transact is the one bracket around a mutation. With persist set it opens
// an outer pager operation, runs fn, and re-persists the metadata blob, so
// the structural writes, the metadata, and the meta root land in one atomic
// backend transaction — or, when fn or the metadata rewrite fails, in none:
// the operation is aborted, nothing of it reaches the backend, and
// noteFaults rolls the labeler back to the committed metadata. A commit
// failure is handled here too, under the caller's write lock. Without
// persist (a non-durable store's mutators) it just runs fn.
func (s *Store) transact(persist bool, fn func() error) error {
	if err := s.readOnlyErr(); err != nil {
		return err
	}
	if !persist {
		err := fn()
		s.noteFaults(err)
		return err
	}
	s.store.BeginOp()
	err := fn()
	if err == nil {
		t0 := time.Now()
		err = s.persistMeta()
		s.notePhase(obs.PhaseMetaPersist, t0)
	}
	if err != nil {
		s.store.AbortOp()
	} else {
		err = s.store.EndOp()
	}
	s.noteFaults(err)
	return err
}

// write runs fn as the measured operation op under the write lock,
// recording the lock wait as op's lock_wait_write phase. A durable fn
// commits inside it, so write returns once the transaction is durable.
func (s *Store) write(op obs.Op, fn func() error) error {
	start := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.reg.ObservePhase(op, obs.PhaseLockWaitWrite, time.Since(start))
	c := s.begin(op)
	err := fn()
	s.end(c, err)
	return err
}

// mutate runs one element-level mutation as its own transaction, measured
// under the obs.Op kind the calling mutator reports as.
func (s *Store) mutate(kind obs.Op, op Op) (OpResult, error) {
	var res OpResult
	err := s.write(kind, func() error {
		return s.transact(s.opts.Durable, func() error { return s.applyOne(&op, &res) })
	})
	return res, err
}

// rlock takes the read lock, recording the wait as the lookup row's
// lock_wait_read phase.
func (s *Store) rlock() {
	start := time.Now()
	s.mu.RLock()
	s.reg.ObservePhase(obs.OpLookup, obs.PhaseLockWaitRead, time.Since(start))
}

// Stats returns the block I/O counters accumulated so far. They are
// atomic; no lock is taken.
func (s *Store) Stats() pager.IOStats { return s.store.Stats() }

// ResetStats zeroes the I/O counters.
func (s *Store) ResetStats() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.store.ResetStats()
}

// Blocks reports the number of allocated blocks (structure + LIDF).
func (s *Store) Blocks() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.store.NumBlocks()
}

// Count, Height and LabelBits read the scheme under the read lock.

func (s *Store) Count() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.labeler.Count()
}

func (s *Store) Height() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.labeler.Height()
}

func (s *Store) LabelBits() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.labeler.LabelBits()
}

// Lookup returns the current label of lid.
func (s *Store) Lookup(lid order.LID) (order.Label, error) {
	s.rlock()
	defer s.mu.RUnlock()
	c := s.begin(obs.OpLookup)
	v, err := s.labeler.Lookup(lid)
	s.end(c, err)
	return v, err
}

// LookupSpan returns both labels of an element. On W-BOX-O this costs two
// I/Os total (LIDF + one leaf); elsewhere it is two lookups in one read op.
func (s *Store) LookupSpan(e order.ElemLIDs) (query.Span, error) {
	s.rlock()
	defer s.mu.RUnlock()
	c := s.begin(obs.OpLookup)
	sp, err := s.lookupSpan(e)
	s.end(c, err)
	return sp, err
}

func (s *Store) lookupSpan(e order.ElemLIDs) (query.Span, error) {
	if wl, ok := s.labeler.(*wbox.Labeler); ok {
		st, en, err := wl.LookupPair(e.Start, e.End)
		if err != nil {
			return query.Span{}, err
		}
		return query.Span{Start: st, End: en}, nil
	}
	if bl, ok := s.labeler.(*bbox.Labeler); ok {
		st, en, err := bl.LookupPair(e.Start, e.End)
		if err != nil {
			return query.Span{}, err
		}
		return query.Span{Start: st, End: en}, nil
	}
	st, err := s.labeler.Lookup(e.Start)
	if err != nil {
		return query.Span{}, err
	}
	en, err := s.labeler.Lookup(e.End)
	if err != nil {
		return query.Span{}, err
	}
	return query.Span{Start: st, End: en}, nil
}

// InsertElementBefore inserts a new element immediately before the tag
// identified by lidOld (previous sibling if lidOld is a start label, last
// child if it is an end label).
func (s *Store) InsertElementBefore(lidOld order.LID) (order.ElemLIDs, error) {
	res, err := s.mutate(obs.OpInsert, Op{Kind: OpInsertBefore, LID: lidOld})
	return res.Elem, err
}

// InsertFirstElement bootstraps an empty document.
func (s *Store) InsertFirstElement() (order.ElemLIDs, error) {
	res, err := s.mutate(obs.OpInsert, Op{Kind: OpInsertFirst})
	return res.Elem, err
}

// Delete removes one label.
func (s *Store) Delete(lid order.LID) error {
	_, err := s.mutate(obs.OpDelete, Op{Kind: OpDelete, LID: lid})
	return err
}

// DeleteElement removes both labels of an element (its children become
// children of its parent).
func (s *Store) DeleteElement(e order.ElemLIDs) error {
	_, err := s.mutate(obs.OpDelete, Op{Kind: OpDeleteElement, Elem: e})
	return err
}

// DeleteSubtree removes an element and all its descendants.
func (s *Store) DeleteSubtree(e order.ElemLIDs) error {
	_, err := s.mutate(obs.OpSubtreeDelete, Op{Kind: OpDeleteSubtree, Elem: e})
	return err
}

// InsertSubtreeBefore bulk-inserts a whole XML subtree immediately before
// the tag identified by lidOld.
func (s *Store) InsertSubtreeBefore(lidOld order.LID, tree *xmlgen.Tree) ([]order.ElemLIDs, error) {
	res, err := s.mutate(obs.OpSubtreeInsert, Op{Kind: OpInsertSubtree, LID: lidOld, Tree: tree})
	return res.Elems, err
}

// Compare orders two tags by document position, returning -1, 0 or +1.
// On B-BOX it uses the bottom-up lowest-common-ancestor walk of Section 5,
// which costs fewer I/Os than two lookups when the tags are close; on the
// other schemes it compares the two label values.
func (s *Store) Compare(a, b order.LID) (int, error) {
	s.rlock()
	defer s.mu.RUnlock()
	c := s.begin(obs.OpLookup)
	v, err := s.compare(a, b)
	s.end(c, err)
	return v, err
}

func (s *Store) compare(a, b order.LID) (int, error) {
	if bl, ok := s.labeler.(*bbox.Labeler); ok {
		return bl.CompareLIDs(a, b)
	}
	la, err := s.labeler.Lookup(a)
	if err != nil {
		return 0, err
	}
	lb, err := s.labeler.Lookup(b)
	if err != nil {
		return 0, err
	}
	switch {
	case la < lb:
		return -1, nil
	case la > lb:
		return 1, nil
	default:
		return 0, nil
	}
}

// OrdinalLookup returns the exact document position of a tag (requires
// Ordinal support).
func (s *Store) OrdinalLookup(lid order.LID) (uint64, error) {
	s.rlock()
	defer s.mu.RUnlock()
	c := s.begin(obs.OpLookup)
	v, err := s.labeler.OrdinalLookup(lid)
	s.end(c, err)
	return v, err
}

// CheckInvariants validates the structure (used by tests and boxload).
func (s *Store) CheckInvariants() error {
	return s.write(obs.OpCheck, s.labeler.CheckInvariants)
}

// Document couples a Store with the per-element LIDs of a loaded tree,
// giving name-aware access for query processing.
type Document struct {
	Store *Store
	Tree  *xmlgen.Tree
	Elems []order.ElemLIDs // indexed by preorder element index
}

// Load bulk-loads tree into the store (which must be empty).
func (s *Store) Load(tree *xmlgen.Tree) (*Document, error) {
	if tree == nil || tree.Root == nil {
		return nil, errors.New("core: empty tree")
	}
	var elems []order.ElemLIDs
	err := s.write(obs.OpBulkLoad, func() error {
		return s.transact(s.opts.Durable, func() (err error) {
			elems, err = s.labeler.BulkLoad(tree.TagStream())
			return err
		})
	})
	if err != nil {
		return nil, err
	}
	return &Document{Store: s, Tree: tree, Elems: elems}, nil
}

// LabeledElems materializes (name, span) pairs for every element, in
// document order — the input shape for the query package.
func (d *Document) LabeledElems() ([]query.Elem, error) {
	nodes := d.Tree.Nodes()
	out := make([]query.Elem, len(nodes))
	for i, n := range nodes {
		span, err := d.Store.LookupSpan(d.Elems[i])
		if err != nil {
			return nil, err
		}
		out[i] = query.Elem{Name: n.Name, Span: span}
	}
	query.SortByStart(out)
	return out, nil
}

// SpansOf returns the spans of the elements with the given name.
func (d *Document) SpansOf(name string) ([]query.Span, error) {
	nodes := d.Tree.Nodes()
	var out []query.Span
	for i, n := range nodes {
		if n.Name != name {
			continue
		}
		span, err := d.Store.LookupSpan(d.Elems[i])
		if err != nil {
			return nil, err
		}
		out = append(out, span)
	}
	query.SortSpansByStart(out)
	return out, nil
}

// SyncStore is Store, which is safe for concurrent use itself.
//
// Deprecated: use Store.
type SyncStore = Store

// NewSyncStore returns st.
//
// Deprecated: Store is safe for concurrent use; use it directly.
func NewSyncStore(st *Store) *SyncStore { return st }
