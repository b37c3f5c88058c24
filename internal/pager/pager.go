// Package pager provides a fixed-size block store with honest I/O
// accounting, the storage substrate shared by every BOX structure.
//
// The paper measures the cost of each operation in block I/Os with
// main-memory caching turned off, while still allowing "a small number of
// memory blocks ... for buffering blocks that need to be immediately
// revisited" within a single operation. Store models exactly that:
//
//   - Every block fetched from the backend counts one read; every block
//     flushed to the backend counts one write.
//   - Between BeginOp and EndOp, blocks already touched by the current
//     operation are pinned and re-access is free. Dirty blocks are written
//     back (and counted) once, when the operation ends.
//   - An optional global LRU cache can be enabled to model cross-operation
//     caching; it is off by default, matching the paper's experiments.
//
// The unit handed out is the block frame, not a copy: View lends a
// read-only frame — the caller's until Release outside an operation, the
// pinned frame until EndOp/AbortOp inside one — from a small per-store free
// list, so a lookup never touches the allocator. Read is the pinned frame
// inside an operation (the writer's to mutate), a caller-owned copy outside.
//
// Read-only operations pin through a ReadOp (BeginRead): a pin set of
// their own on the caller's stack rather than the writer's map, so any
// number of them can run at once (under the caller's read lock) and each
// still counts a block once however often it revisits it.
//
// Two backends are provided: MemBackend (blocks held in memory, used by the
// benchmarks) and FileBackend (blocks persisted in a single file with a
// free-list, usable for real storage).
package pager

import (
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"boxes/internal/obs"
)

// BlockID identifies a block within a Store. The zero value is reserved and
// never names a valid block; it plays the role of a nil pointer on disk.
type BlockID uint64

// NilBlock is the invalid block ID, used as a nil pointer in on-disk
// structures.
const NilBlock BlockID = 0

// DefaultBlockSize is the block size used throughout the paper's
// experiments (8 KB).
const DefaultBlockSize = 8192

// ErrClosed is returned by operations on a closed Store or Backend.
var ErrClosed = errors.New("pager: store is closed")

// IOStats counts block-level I/O performed against the backend.
type IOStats struct {
	Reads  uint64 // blocks fetched from the backend
	Writes uint64 // blocks flushed to the backend
}

// Total returns reads plus writes.
func (s IOStats) Total() uint64 { return s.Reads + s.Writes }

// Sub returns the element-wise difference s - t. It is used to charge an
// interval of work: snapshot before, snapshot after, subtract.
func (s IOStats) Sub(t IOStats) IOStats {
	return IOStats{Reads: s.Reads - t.Reads, Writes: s.Writes - t.Writes}
}

func (s IOStats) String() string {
	return fmt.Sprintf("reads=%d writes=%d total=%d", s.Reads, s.Writes, s.Total())
}

// Backend is the raw block device under a Store.
type Backend interface {
	// BlockSize reports the fixed size in bytes of every block.
	BlockSize() int
	// Allocate reserves a new zeroed block and returns its ID (never 0).
	Allocate() (BlockID, error)
	// Free releases a block for reuse by a later Allocate.
	Free(id BlockID) error
	// ReadBlock copies the block's contents into buf, which must be
	// exactly BlockSize bytes long.
	ReadBlock(id BlockID, buf []byte) error
	// WriteBlock stores buf, which must be exactly BlockSize bytes long,
	// as the block's contents.
	WriteBlock(id BlockID, buf []byte) error
	// NumBlocks reports how many blocks are currently allocated.
	NumBlocks() uint64
	// Close releases any resources held by the backend.
	Close() error
}

// noBlockError is a backend's refusal of a block ID that names no block
// it holds: one past its bound or, on MemBackend, one never allocated or
// freed. walkBlob reports one reached through a chain pointer as
// corruption of the block holding the pointer.
type noBlockError string

func (e noBlockError) Error() string { return string(e) }

// TxBackend is implemented by backends that can make a batch of writes
// atomic (FileBackend with its write-ahead log). Store opens a batch lazily
// at the first mutation inside an outermost BeginOp/EndOp pair and commits
// it at EndOp, so one mutating logical operation becomes one all-or-nothing
// transaction on disk while read-only operations touch no batch state.
type TxBackend interface {
	Backend
	// BeginBatch starts staging writes. It performs no I/O and cannot fail.
	BeginBatch()
	// CommitBatch makes every staged write (and any allocation/free/meta
	// mutation since BeginBatch) durable atomically.
	CommitBatch() error
	// AbortBatch discards the staged writes and rolls back allocation and
	// free-list state, as if the batch never started.
	AbortBatch()
}

// observerSetter is implemented by backends that report their own metrics
// (FileBackend's WAL/checksum counters). Store propagates its registry.
type observerSetter interface {
	SetObserver(*obs.Registry)
}

type opBlock struct {
	data  []byte
	dirty bool
	freed bool
}

// frameListCap bounds the per-store free list of block frames: enough for
// an ordinary operation's pins (a lookup 2-4, a splitting insert a few
// dozen), while a bulk load's thousands leave only this many parked.
const frameListCap = 64

// HookPoisonFrames makes every released or unpinned frame 0xDB-filled, so a
// use-after-release reads garbage, not stale-but-plausible bytes. Tests set
// it from an init function; never set it elsewhere.
var HookPoisonFrames = false

// Store wraps a Backend with I/O accounting, per-operation pinning, and an
// optional global LRU cache.
//
// A Store supports one writer XOR many concurrent ReadOps, provided the
// caller enforces that discipline with its own read/write lock (core.Store
// does): the I/O counters are atomic, the LRU cache and the frame free list
// lock internally, and a ReadOp outside an exclusive operation never
// touches the per-op pin map. Everything else is for one goroutine at a
// time.
type Store struct {
	backend Backend
	reads   atomic.Uint64
	writes  atomic.Uint64
	cache   *lruCache
	frames  chan []byte   // free list of block frames (see getFrame)
	obs     *obs.Registry // optional; nil-safe via obs method receivers
	row     int           // obs's ledger row for this store's read ops

	// Writer-side state: guarded by the caller's exclusive section (the
	// single-goroutine contract, or core.Store's write lock).
	op        map[BlockID]opBlock // kept (cleared) across operations
	flush     []BlockID           // EndOp's dirty-id scratch, likewise kept
	opDepth   int
	batchOpen bool   // a TxBackend batch is open (lazily, at first mutation)
	inOp      ReadOp // what BeginRead returns inside an operation
	closed    bool

	// Cumulative instrumented phase time (see PhaseStats): every timed
	// backend section adds its nanoseconds here, so core can compute the
	// residual "structure" phase of an operation by snapshot difference.
	phaseRead   atomic.Int64
	phaseWrite  atomic.Int64
	phaseCommit atomic.Int64

	// The first permanent write-path fault (core's degraded-mode trigger;
	// see resilience.go).
	wfault atomic.Pointer[writeFault]
}

// Option configures a Store.
type Option func(*Store)

// WithCache enables a global LRU cache holding up to capacity blocks.
// Capacity 0 disables the cache (the default, matching the paper's
// caching-off experiments).
func WithCache(capacity int) Option {
	return func(s *Store) {
		if capacity > 0 {
			s.cache = newLRUCache(capacity)
		} else {
			s.cache = nil
		}
	}
}

// WithObserver attaches a metrics registry: the store reports LRU cache
// hits/misses and backend I/O errors into it, and every structure layered
// on the store (LIDF, the BOXes) reaches the same registry through
// Observer. scheme names the store's ledger row, the one its read ops'
// block I/O is charged to when several stores share r.
func WithObserver(r *obs.Registry, scheme string) Option {
	return func(s *Store) { s.obs, s.row = r, r.SchemeIndex(scheme) }
}

// NewStore creates a Store over backend.
func NewStore(backend Backend, opts ...Option) *Store {
	s := &Store{backend: backend, frames: make(chan []byte, frameListCap)}
	s.inOp = ReadOp{s: s, excl: true}
	for _, o := range opts {
		o(s)
	}
	if os, ok := backend.(observerSetter); ok {
		os.SetObserver(s.obs)
	}
	return s
}

// NewMemStore is shorthand for a Store over a fresh MemBackend with the
// given block size (DefaultBlockSize if size <= 0).
func NewMemStore(size int, opts ...Option) *Store {
	if size <= 0 {
		size = DefaultBlockSize
	}
	return NewStore(NewMemBackend(size), opts...)
}

// BlockSize reports the block size in bytes.
func (s *Store) BlockSize() int { return s.backend.BlockSize() }

// Backend returns the underlying block device (e.g. to reach persistence
// features like MetaRooter or FileBackend.Sync).
func (s *Store) Backend() Backend { return s.backend }

// NumBlocks reports how many blocks are currently allocated in the backend.
func (s *Store) NumBlocks() uint64 { return s.backend.NumBlocks() }

// SetObserver attaches (or, with nil, detaches) a metrics registry after
// construction. See WithObserver.
func (s *Store) SetObserver(r *obs.Registry, scheme string) {
	s.obs, s.row = r, r.SchemeIndex(scheme)
	if os, ok := s.backend.(observerSetter); ok {
		os.SetObserver(r)
	}
}

// Observer returns the attached metrics registry, or nil. The result is
// safe to use directly: obs.Registry methods are nil-receiver-safe.
func (s *Store) Observer() *obs.Registry { return s.obs }

// countIOError records a backend I/O failure, distinguishing injected
// faults so fault-injection runs are observable.
func (s *Store) countIOError(err error) {
	s.obs.Inc(obs.CtrPagerIOErrors)
	if errors.Is(err, ErrInjected) {
		s.obs.Inc(obs.CtrPagerInjectedFailures)
	}
	// Checksum mismatches are counted by the backend at the point of
	// detection (CtrPagerChecksumFailures); here they are just I/O errors.
}

// Stats returns a snapshot of the I/O counters.
func (s *Store) Stats() IOStats {
	return IOStats{Reads: s.reads.Load(), Writes: s.writes.Load()}
}

// ResetStats zeroes the I/O counters.
func (s *Store) ResetStats() {
	s.reads.Store(0)
	s.writes.Store(0)
}

// countRead/countWrite bump the store's I/O counters and feed the cost
// ledger and block heat map: the I/O is attributed to the operation in the
// registry's writer slot (or, for a ReadOp's read, the lookup cell of the
// store's own ledger row) and sampled at its block id. Counter first, ledger second — the order the
// conservation invariant relies on.
func (s *Store) countRead(id BlockID, reader bool) {
	s.reads.Add(1)
	row := -1
	if reader {
		row = s.row
	}
	s.obs.CostIO(row, false, uint64(id))
}

func (s *Store) countWrite(id BlockID) {
	s.writes.Add(1)
	s.obs.CostIO(-1, true, uint64(id))
}

// PhaseNanos is a snapshot of the store's cumulative instrumented phase
// time: nanoseconds spent in backend block reads, block writes, and commit
// calls. Core subtracts two snapshots to attribute an operation's residual
// (in-memory "structure") time.
type PhaseNanos struct {
	Read   int64
	Write  int64
	Commit int64
}

// Total returns the sum of all instrumented phase time.
func (p PhaseNanos) Total() int64 { return p.Read + p.Write + p.Commit }

// Sub returns the element-wise difference p - q.
func (p PhaseNanos) Sub(q PhaseNanos) PhaseNanos {
	return PhaseNanos{Read: p.Read - q.Read, Write: p.Write - q.Write, Commit: p.Commit - q.Commit}
}

// PhaseStats snapshots the cumulative instrumented phase time. All zeros
// when no observer is attached (timing is skipped entirely then).
func (s *Store) PhaseStats() PhaseNanos {
	return PhaseNanos{Read: s.phaseRead.Load(), Write: s.phaseWrite.Load(), Commit: s.phaseCommit.Load()}
}

// timedPhase runs one backend call with phase instrumentation: its duration
// goes into the (current op, ph) histogram — the lookup row for a ReadOp's
// read — the store's cumulative phase counter, and, when span recording is
// on, a span on the current operation's lane. Without an observer the call
// runs bare.
func (s *Store) timedPhase(reader bool, ph obs.Phase, acc *atomic.Int64, fn func() error) error {
	if s.obs == nil {
		return fn()
	}
	start := time.Now()
	err := fn()
	d := time.Since(start)
	acc.Add(int64(d))
	s.obs.ObservePhaseAuto(reader, ph, d)
	if t := s.obs.Tracer(); t.Enabled() {
		t.RecordAuto(reader, ph.String(), start, d)
	}
	return err
}

// BeginOp starts a logical operation. Until the matching EndOp, each block
// is fetched from (and counted against) the backend at most once, and dirty
// blocks are flushed once at EndOp. Calls nest; only the outermost pair
// delimits the pinned region.
//
// The backend batch is NOT opened here: it starts lazily at the first
// mutation (Allocate, Free, or a staged Write), so a read-only operation
// never touches the TxBackend's batch state.
func (s *Store) BeginOp() {
	if s.op == nil {
		s.op = make(map[BlockID]opBlock, 16)
	}
	s.opDepth++
}

// getFrame takes a frame with arbitrary contents off the free list, or
// allocates one when the list is empty.
func (s *Store) getFrame() []byte {
	select {
	case b := <-s.frames:
		return b
	default:
		return make([]byte, s.backend.BlockSize())
	}
}

// frameCopy returns a frame holding a copy of src.
func (s *Store) frameCopy(src []byte) []byte {
	b := s.getFrame()
	copy(b, src)
	return b
}

// putFrame returns a frame nobody may touch again to the free list; beyond
// frameListCap it is left to the garbage collector.
func (s *Store) putFrame(b []byte) {
	if HookPoisonFrames {
		for i := range b {
			b[i] = 0xDB
		}
	}
	select {
	case s.frames <- b:
	default:
	}
}

// unpin ends every pinned frame's life: views and Read results handed out
// during the operation are invalid from here on.
func (s *Store) unpin() {
	for _, ob := range s.op {
		if ob.data != nil {
			s.putFrame(ob.data)
		}
	}
	if len(s.op) > frameListCap {
		s.op = nil // a bulk operation's map is not worth carrying around
	}
	clear(s.op)
}

// ensureBatch opens the backend batch if an operation is in progress and a
// mutation is about to happen. Idempotent per operation.
func (s *Store) ensureBatch() {
	if s.opDepth == 0 || s.batchOpen {
		return
	}
	if tx, ok := s.backend.(TxBackend); ok {
		tx.BeginBatch()
		s.batchOpen = true
	}
}

// EndOp ends the current logical operation, flushing and counting dirty
// blocks. It returns the first flush error encountered, if any.
func (s *Store) EndOp() error {
	if s.opDepth == 0 {
		return errors.New("pager: EndOp without BeginOp")
	}
	s.opDepth--
	if s.opDepth > 0 {
		return nil
	}
	// Flush in ascending BlockID order (Go map iteration is randomized)
	// so write traces and injected-failure tests are deterministic and
	// replayable.
	ids := s.flush[:0]
	for id, ob := range s.op {
		if !ob.freed && ob.dirty {
			ids = append(ids, id)
		}
	}
	s.flush = ids
	var firstErr error
	if len(ids) > 0 {
		slices.Sort(ids)
		for _, id := range ids {
			ob := s.op[id]
			err := s.timedPhase(false, obs.PhaseBlockWrite, &s.phaseWrite, func() error {
				return s.backend.WriteBlock(id, ob.data)
			})
			if err != nil {
				s.countIOError(err)
				s.NoteWriteFault(err)
				if firstErr == nil {
					firstErr = err
				}
				continue
			}
			s.countWrite(id)
			if s.cache != nil {
				s.cache.put(id, ob.data) // now the cache's, not ours to recycle
				delete(s.op, id)
			}
		}
	}
	s.unpin()
	if s.batchOpen {
		s.batchOpen = false
		tx := s.backend.(TxBackend)
		if firstErr != nil {
			tx.AbortBatch()
			// Blocks flushed (and cached) before the failure carry images
			// the abort just rolled back on disk.
			s.InvalidateCache()
		} else {
			if err := s.timedPhase(false, obs.PhaseWALCommit, &s.phaseCommit, tx.CommitBatch); err != nil {
				s.countIOError(err)
				s.NoteWriteFault(err)
				firstErr = err
				// The flush loop above cached the dirty images; a failed
				// commit means disk rolled back (or never advanced), so
				// those entries are phantoms.
				s.InvalidateCache()
			}
		}
	}
	return firstErr
}

// AbortOp abandons the current logical operation at any nesting depth:
// pinned blocks and staged writes are dropped and the backend batch rolls
// back, leaving the store at the state of the last committed operation.
// Used by batch executors whose partial work must not reach disk.
func (s *Store) AbortOp() {
	if s.opDepth == 0 {
		return
	}
	s.opDepth = 0
	s.unpin()
	if s.batchOpen {
		s.batchOpen = false
		if tx, ok := s.backend.(TxBackend); ok {
			tx.AbortBatch()
		}
		s.InvalidateCache()
	}
}

// InvalidateCache empties the global LRU cache. The abort paths call it
// because blocks flushed (and cached) ahead of a failed commit carry images
// the abort rolled back on disk; degraded-mode entry calls it too.
func (s *Store) InvalidateCache() {
	if s.cache != nil {
		s.cache.clear()
	}
}

// EndOpInto ends the current logical operation like EndOp, storing any
// flush error into *err unless *err already holds one. It is meant for
// deferred use with a named return value, so flush failures are never
// silently dropped:
//
//	func (x *T) Op() (err error) {
//		s.BeginOp()
//		defer s.EndOpInto(&err)
//		...
//	}
func (s *Store) EndOpInto(err *error) {
	if e := s.EndOp(); e != nil && *err == nil {
		*err = e
	}
}

// Allocate reserves a new zeroed block. Allocation itself performs no
// counted I/O; the block is charged when first written.
func (s *Store) Allocate() (BlockID, error) {
	if s.closed {
		return NilBlock, ErrClosed
	}
	s.ensureBatch()
	id, err := s.backend.Allocate()
	if err != nil {
		s.countIOError(err)
		s.NoteWriteFault(err)
		return NilBlock, err
	}
	if s.opDepth > 0 {
		// A freshly allocated block is known-zero; pin it so that the
		// usual read-modify-write cycle does not charge a read for
		// contents that never existed.
		b := s.getFrame()
		clear(b)
		s.op[id] = opBlock{data: b}
	}
	return id, nil
}

// Free releases a block. Freeing is a metadata operation and is not counted
// as an I/O, consistent with the paper's accounting.
func (s *Store) Free(id BlockID) error {
	if s.closed {
		return ErrClosed
	}
	s.ensureBatch()
	if s.opDepth > 0 {
		s.op[id] = opBlock{data: s.op[id].data, freed: true}
	}
	if s.cache != nil {
		s.cache.drop(id)
	}
	if err := s.backend.Free(id); err != nil {
		s.countIOError(err)
		s.NoteWriteFault(err)
		return err
	}
	return nil
}

// View lends the caller a read-only image of a block. Outside an operation
// the frame is the caller's until Release — or, with the LRU on, the
// resident frame, which is never written, only replaced. Inside an
// operation it is the pinned frame, valid until the outermost EndOp/AbortOp.
func (s *Store) View(id BlockID) ([]byte, error) { return s.view(id, false) }

// view is View with the read attributed to a ReadOp (reader) or to the
// operation in the writer slot.
func (s *Store) view(id BlockID, reader bool) ([]byte, error) {
	if s.closed {
		return nil, ErrClosed
	}
	if id == NilBlock {
		return nil, errors.New("pager: read of nil block")
	}
	pin := s.opDepth > 0
	if pin {
		if ob, ok := s.op[id]; ok {
			if ob.freed {
				return nil, fmt.Errorf("pager: read of freed block %d", id)
			}
			return ob.data, nil
		}
	}
	if s.cache != nil {
		if data, ok := s.cache.get(id); ok {
			s.obs.Inc(obs.CtrPagerCacheHits)
			if pin {
				// A pinned frame is the writer's to mutate: pin a copy.
				data = s.frameCopy(data)
				s.op[id] = opBlock{data: data}
			}
			return data, nil
		}
		s.obs.Inc(obs.CtrPagerCacheMisses)
	}
	buf := s.getFrame()
	err := s.timedPhase(reader, obs.PhaseBlockRead, &s.phaseRead, func() error {
		return s.backend.ReadBlock(id, buf)
	})
	if err != nil {
		s.putFrame(buf)
		s.countIOError(err)
		return nil, err
	}
	s.countRead(id, reader)
	if pin {
		s.op[id] = opBlock{data: buf}
	} else if s.cache != nil {
		s.cache.put(id, buf)
	}
	return buf, nil
}

// Release ends a View: the frame goes back to the free list unless it is
// the operation's (pinned) or the cache's (resident).
func (s *Store) Release(buf []byte) {
	if s.opDepth == 0 && s.cache == nil {
		s.putFrame(buf)
	}
}

// readPins is how many blocks a ReadOp pins in place before it spills into
// a map: a lookup reads an LIDF block and one root-to-leaf path, a B-BOX
// Compare two of each, so every tree up to height 3 (an 8 KB-block W-BOX
// or B-BOX of millions of labels) fits without allocating.
const readPins = 8

// ReadOp is one read-only operation's pin set, begun by BeginRead and ended
// by End. Each block it views is fetched from (and counted against) the
// backend once and its frame stays valid until End, so a lookup that
// revisits a block — a B-BOX LookupSpan's second climb, a W-BOX-O pair's
// second LIDF record — pays for it once, the paper's "blocks buffered
// within one operation". The set lives in the ReadOp itself, on the
// caller's stack: concurrent ReadOps share nothing but the free list, the
// LRU and the counters.
//
// Begun inside an open exclusive operation (BeginOp), a ReadOp reads
// through that operation's pin map instead, so a lookup inside a batch sees
// the batch's staged blocks and shares its pins.
type ReadOp struct {
	s     *Store
	excl  bool // an exclusive op is open: read through its pin map
	n     int
	ids   [readPins]BlockID
	bufs  [readPins][]byte
	spill map[BlockID][]byte
}

// BeginRead starts a read-only operation. Inside an exclusive operation it
// returns the store's one ReadOp that reads through the operation's pins.
// Otherwise it is small enough to inline, so a caller that keeps the ReadOp
// to itself keeps it on its stack.
func (s *Store) BeginRead() *ReadOp {
	if s.opDepth > 0 {
		return &s.inOp
	}
	return &ReadOp{s: s}
}

// View lends the image of block id, valid until End (or, begun inside an
// exclusive operation, until that operation ends). Frames are never
// released one by one.
func (r *ReadOp) View(id BlockID) ([]byte, error) {
	if r.excl {
		return r.s.View(id)
	}
	for i, pinned := range r.ids[:r.n] {
		if pinned == id {
			return r.bufs[i], nil
		}
	}
	if buf, ok := r.spill[id]; ok {
		return buf, nil
	}
	buf, err := r.s.view(id, true)
	if err != nil {
		return nil, err
	}
	if r.n < readPins {
		r.ids[r.n], r.bufs[r.n] = id, buf
		r.n++
	} else {
		if r.spill == nil {
			r.spill = make(map[BlockID][]byte)
		}
		r.spill[id] = buf
	}
	return buf, nil
}

// End unpins every frame the operation viewed; none may be touched after.
func (r *ReadOp) End() {
	for _, buf := range r.bufs[:r.n] {
		r.s.Release(buf)
	}
	if r.spill != nil { // ranging over even a nil map costs an iterator setup
		for _, buf := range r.spill {
			r.s.Release(buf)
		}
	}
	r.n, r.spill = 0, nil
}

// Read returns the contents of a block. Inside an operation the returned
// slice is the pinned frame: the caller may mutate it and then call Write
// with the same ID to mark it dirty. Outside one it is a caller-owned copy.
func (s *Store) Read(id BlockID) ([]byte, error) {
	buf, err := s.View(id)
	if err != nil || s.opDepth > 0 {
		return buf, err
	}
	out := slices.Clone(buf)
	s.Release(buf)
	return out, nil
}

// Write stores buf as the contents of the block. Inside an operation the
// write is staged and flushed (and counted) once at EndOp; outside it is
// written through immediately.
func (s *Store) Write(id BlockID, buf []byte) error {
	if s.closed {
		return ErrClosed
	}
	if id == NilBlock {
		return errors.New("pager: write of nil block")
	}
	if len(buf) != s.backend.BlockSize() {
		return fmt.Errorf("pager: write of %d bytes, want %d", len(buf), s.backend.BlockSize())
	}
	if s.opDepth > 0 {
		s.ensureBatch() // a dirty block will flush into the backend at EndOp
		if ob, ok := s.op[id]; ok {
			if ob.freed {
				return fmt.Errorf("pager: write of freed block %d", id)
			}
			if &ob.data[0] != &buf[0] {
				copy(ob.data, buf)
			}
			if !ob.dirty {
				s.op[id] = opBlock{data: ob.data, dirty: true}
			}
			return nil
		}
		s.op[id] = opBlock{data: s.frameCopy(buf), dirty: true}
		return nil
	}
	err := s.timedPhase(false, obs.PhaseBlockWrite, &s.phaseWrite, func() error {
		return s.backend.WriteBlock(id, buf)
	})
	if err != nil {
		s.countIOError(err)
		s.NoteWriteFault(err)
		return err
	}
	s.countWrite(id)
	if s.cache != nil {
		s.cache.put(id, s.frameCopy(buf))
	}
	return nil
}

// Close flushes nothing (operations must be closed first) and releases the
// backend.
func (s *Store) Close() error {
	if s.closed {
		return nil
	}
	if s.opDepth > 0 {
		return errors.New("pager: close with open operation")
	}
	s.closed = true
	return s.backend.Close()
}
