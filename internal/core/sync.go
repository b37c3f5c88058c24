package core

import (
	"context"
	"sync"
	"time"

	"boxes/internal/obs"
	"boxes/internal/order"
	"boxes/internal/pager"
	"boxes/internal/query"
	"boxes/internal/xmlgen"
)

// SyncStore wraps a Store with a read/write lock so it can be shared by
// multiple goroutines: lookups (Lookup, LookupSpan, OrdinalLookup, Compare,
// and the scalar accessors) run concurrently under the read lock, while
// mutators, Load, Save, Health and CheckInvariants serialize under the
// write lock. The pager runs in shared mode (pager.Store.SetShared): reader
// operations skip the per-op pin map entirely, the LRU cache and I/O
// counters are internally synchronized, and writers are bracketed with
// BeginWrite/EndWrite so their pinned, batched path is unchanged.
//
// With group commit enabled (Options.Durability) mutators wait for their
// commit ticket AFTER releasing the write lock, so concurrently queued
// transactions coalesce into a single WAL fsync while the next writer
// proceeds. A mutator returns nil only once its transaction is durable.
// Lock acquisition waits are recorded as the lock_wait_read /
// lock_wait_write phase of the op that paid for them.
type SyncStore struct {
	mu sync.RWMutex
	st *Store
}

// NewSyncStore wraps st, switching its pager into shared-read mode and its
// durability into deferred-ticket mode. The unwrapped Store must no longer
// be used directly.
func NewSyncStore(st *Store) *SyncStore {
	st.store.SetShared(true)
	st.SetDeferredDurability(true)
	return &SyncStore{st: st}
}

// Unwrap returns the underlying Store; callers must hold no concurrent
// operations while using it.
func (s *SyncStore) Unwrap() *Store { return s.st }

// rlock acquires the read lock, recording the wait as the lookup row's
// lock_wait_read phase.
func (s *SyncStore) rlock() {
	start := time.Now()
	s.mu.RLock()
	s.st.reg.ObservePhase(obs.OpLookup, obs.PhaseLockWaitRead, time.Since(start))
}

// write runs fn under the write lock with the pager's writer bracket, then
// waits for the commit ticket outside the lock. The lock wait is parked in
// the store so the next begin() attributes it to the op that paid for it
// (the op enum is not known until fn dispatches); the deferred ticket wait
// is attributed to the op recorded by the last end() under this lock.
func (s *SyncStore) write(fn func() error) error {
	start := time.Now()
	s.mu.Lock()
	s.st.pendingLockWait = int64(time.Since(start))
	s.st.store.BeginWrite()
	err := fn()
	s.st.store.EndWrite()
	ticket := s.st.TakeTicket()
	op := s.st.lastOp
	s.mu.Unlock()
	var werr error
	if ticket != nil {
		t0 := time.Now()
		werr = ticket.Wait()
		d := time.Since(t0)
		s.st.reg.ObservePhase(op, obs.PhaseFsyncWait, d)
		if tr := s.st.reg.Tracer(); tr.Enabled() {
			tr.RecordSpan(obs.LaneWriter, obs.PhaseFsyncWait.String(), 0, t0, d, 0, werr)
		}
	}
	if werr != nil {
		// A deferred commit failed after the lock was released: latch the
		// fault and enter degraded mode under a fresh write lock (the
		// rollback touches the labeler, which readers may be using).
		s.st.store.NoteWriteFault(werr)
		s.mu.Lock()
		s.st.noteFaults(werr)
		s.mu.Unlock()
		if err == nil {
			err = werr
		}
	}
	return err
}

func (s *SyncStore) Scheme() Scheme {
	s.rlock()
	defer s.mu.RUnlock()
	return s.st.Scheme()
}

func (s *SyncStore) Stats() pager.IOStats {
	s.rlock()
	defer s.mu.RUnlock()
	return s.st.Stats()
}

// MetricsRegistry returns the underlying store's registry. The registry's
// own methods are concurrency-safe, so no lock is needed.
func (s *SyncStore) MetricsRegistry() *obs.Registry { return s.st.MetricsRegistry() }

// Metrics snapshots the underlying store's metrics.
func (s *SyncStore) Metrics() obs.Snapshot { return s.st.MetricsRegistry().Snapshot() }

func (s *SyncStore) ResetStats() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.st.ResetStats()
}

func (s *SyncStore) Count() uint64 {
	s.rlock()
	defer s.mu.RUnlock()
	return s.st.Count()
}

func (s *SyncStore) Height() int {
	s.rlock()
	defer s.mu.RUnlock()
	return s.st.Height()
}

func (s *SyncStore) LabelBits() int {
	s.rlock()
	defer s.mu.RUnlock()
	return s.st.LabelBits()
}

func (s *SyncStore) Lookup(lid order.LID) (order.Label, error) {
	s.rlock()
	defer s.mu.RUnlock()
	return s.st.Lookup(lid)
}

func (s *SyncStore) LookupSpan(e order.ElemLIDs) (query.Span, error) {
	s.rlock()
	defer s.mu.RUnlock()
	return s.st.LookupSpan(e)
}

func (s *SyncStore) OrdinalLookup(lid order.LID) (uint64, error) {
	s.rlock()
	defer s.mu.RUnlock()
	return s.st.OrdinalLookup(lid)
}

// Compare orders two tags by document position under the read lock.
func (s *SyncStore) Compare(a, b order.LID) (int, error) {
	s.rlock()
	defer s.mu.RUnlock()
	return s.st.Compare(a, b)
}

func (s *SyncStore) InsertElementBefore(lidOld order.LID) (order.ElemLIDs, error) {
	var e order.ElemLIDs
	err := s.write(func() (err error) {
		e, err = s.st.InsertElementBefore(lidOld)
		return err
	})
	return e, err
}

func (s *SyncStore) InsertFirstElement() (order.ElemLIDs, error) {
	var e order.ElemLIDs
	err := s.write(func() (err error) {
		e, err = s.st.InsertFirstElement()
		return err
	})
	return e, err
}

func (s *SyncStore) Delete(lid order.LID) error {
	return s.write(func() error { return s.st.Delete(lid) })
}

func (s *SyncStore) DeleteElement(e order.ElemLIDs) error {
	return s.write(func() error { return s.st.DeleteElement(e) })
}

func (s *SyncStore) DeleteSubtree(e order.ElemLIDs) error {
	return s.write(func() error { return s.st.DeleteSubtree(e) })
}

func (s *SyncStore) InsertSubtreeBefore(lidOld order.LID, tree *xmlgen.Tree) ([]order.ElemLIDs, error) {
	var elems []order.ElemLIDs
	err := s.write(func() (err error) {
		elems, err = s.st.InsertSubtreeBefore(lidOld, tree)
		return err
	})
	return elems, err
}

// ApplyBatch commits ops as one atomic transaction (see Store.ApplyBatch)
// under the write lock, waiting for durability outside it.
func (s *SyncStore) ApplyBatch(ops []Op) ([]OpResult, error) {
	return s.ApplyBatchCtx(context.Background(), ops)
}

// ApplyBatchCtx is ApplyBatch with the cancellation semantics of
// Store.ApplyBatchCtx. The write-lock acquisition itself is not
// interruptible (a deadline that expires while queued behind the lock is
// detected before the first op runs and the batch aborts cleanly), and
// once the commit protocol starts the durability wait always runs to
// completion: a ctx error means nothing committed, nil means durable.
func (s *SyncStore) ApplyBatchCtx(ctx context.Context, ops []Op) ([]OpResult, error) {
	var results []OpResult
	err := s.write(func() (err error) {
		results, err = s.st.ApplyBatchCtx(ctx, ops)
		return err
	})
	return results, err
}

func (s *SyncStore) Load(tree *xmlgen.Tree) (*Document, error) {
	var doc *Document
	err := s.write(func() (err error) {
		doc, err = s.st.Load(tree)
		return err
	})
	return doc, err
}

func (s *SyncStore) CheckInvariants() error {
	return s.write(func() error { return s.st.CheckInvariants() })
}

func (s *SyncStore) Save() error {
	return s.write(func() error { return s.st.Save() })
}

// Health gathers the structural gauges of every layer, serialized against
// operations (the walk reads live structures).
func (s *SyncStore) Health() []obs.GaugeValue {
	var gs []obs.GaugeValue
	s.write(func() error {
		gs = s.st.Health()
		return nil
	})
	return gs
}

// RegisterHealthGauges registers the wrapped store as a scrape-time gauge
// source. Unlike Store.RegisterHealthGauges, every scrape takes the store
// lock, so live scrapes are safe alongside concurrent operations.
func (s *SyncStore) RegisterHealthGauges() {
	s.st.MetricsRegistry().RegisterCollector(obs.CollectorFunc(s.Health))
}

// Degraded reports whether the store is in read-only degraded mode. The
// flag is atomic; no lock is needed.
func (s *SyncStore) Degraded() bool { return s.st.Degraded() }

// DegradedCause returns the fault that flipped the store read-only, or nil.
func (s *SyncStore) DegradedCause() error { return s.st.DegradedCause() }

// ClearDegraded returns the store to read-write mode under the write lock.
func (s *SyncStore) ClearDegraded() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.st.ClearDegraded()
}

// Backup snapshots the store to path while readers (and the group-commit
// committer) keep running: a non-durable store first Saves its metadata
// under the write lock, then the block copy proceeds under the read lock,
// excluding mutators only.
func (s *SyncStore) Backup(path string) error {
	if !s.st.opts.Durable {
		if err := s.write(func() error { return s.st.Save() }); err != nil {
			return err
		}
	}
	s.rlock()
	defer s.mu.RUnlock()
	return s.st.backupNoSave(path)
}

// Close releases the store under the write lock: pending group commits are
// drained and the backend is closed.
func (s *SyncStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.st.Close()
}
