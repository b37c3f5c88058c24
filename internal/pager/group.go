package pager

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"boxes/internal/obs"
)

// Group commit amortizes the WAL fsync — the dominant cost of the durable
// path — over concurrently committing transactions. Instead of running the
// commit protocol inline, CommitBatchAsync hands the staged images plus a
// header snapshot to a dedicated committer goroutine and returns a
// CommitTicket. The committer drains its queue into one group, runs
// commitWAL over it — the same protocol an inline commit runs over one
// transaction, so the group shares one WAL fsync — and resolves every
// ticket.
//
// Because each transaction keeps its own commit record, a crash anywhere
// inside the log phase leaves a clean *prefix* of the group: recovery
// replays the transactions whose commit records are complete and discards
// the torn tail. No interleaving can surface a partial transaction.
//
// From enqueue (group commit) or from the WAL fsync (inline commit) until
// the checkpoint that applies them, committed images live in an overlay map
// consulted by readRaw, so the writer immediately reads its own committed
// state and concurrent read ops never observe a block
// mid-overwrite. Entries are removed — under the same lock — only after
// the checkpoint's in-place writes complete, which orders "file holds the
// new image" before "readers go to the file", and only up to the highest
// *logged* seq: an image enqueued but not yet logged is never applied and
// never dropped.
//
// Latency policy: a transaction that finds the queue empty and the
// committer idle is marked solo and commits immediately (the sync
// fallback — an uncontended writer pays no added latency). Otherwise the
// committer waits for up to Durability.Every transactions or MaxDelay,
// whichever comes first.

// Durability tunes the group committer started by StartGroupCommit.
type Durability struct {
	// Every is the target group size: the committer flushes as soon as
	// this many transactions are queued. Values <= 1 disable the
	// coalescing wait — each flush takes whatever the queue holds.
	Every int
	// MaxDelay bounds how long a queued transaction waits for company
	// before the group flushes anyway (default 2ms when Every > 1).
	MaxDelay time.Duration
}

// defaultMaxDelay is the coalescing window when Durability.MaxDelay is 0.
const defaultMaxDelay = 2 * time.Millisecond

// CommitTicket is the handle to one asynchronously committing transaction.
// The zero ticket is not meaningful; a nil *CommitTicket waits as resolved
// success, so synchronous paths can hand out nil.
type CommitTicket struct {
	done chan struct{}
	err  error
}

// Wait blocks until the transaction's group is durable, and returns the
// commit error if the group failed.
func (t *CommitTicket) Wait() error {
	if t == nil {
		return nil
	}
	<-t.done
	return t.err
}

func resolvedTicket(err error) *CommitTicket {
	t := &CommitTicket{done: make(chan struct{}), err: err}
	close(t.done)
	return t
}

// AsyncTxBackend is implemented by backends whose batches can commit
// asynchronously through a group committer (FileBackend after
// StartGroupCommit). Store.EndOp prefers CommitBatchAsync when
// GroupCommitEnabled reports true, parking the ticket for TakeTicket.
type AsyncTxBackend interface {
	TxBackend
	// GroupCommitEnabled reports whether a committer goroutine is running.
	GroupCommitEnabled() bool
	// CommitBatchAsync is CommitBatch minus the inline fsync: the batch is
	// queued for the committer and the returned ticket resolves when it is
	// durable. A read-only batch resolves immediately.
	CommitBatchAsync() (*CommitTicket, error)
}

// groupTxn is one queued transaction awaiting its group.
type groupTxn struct {
	walTxn // sorted staged images; header snapshot at enqueue
	seq    uint64
	solo   bool // queue was empty and committer idle at enqueue
	ticket *CommitTicket
	enq    time.Time // enqueue instant, for the queue_wait phase
	opSpan uint64    // enqueuing operation's span ID (0 when not tracing)
}

// overlayEntry is a committed block image no checkpoint has applied yet.
type overlayEntry struct {
	data []byte
	seq  uint64
}

// groupState is the committer's shared state, embedded in FileBackend. The
// overlay outlives the committer: inline commits publish into it too.
type groupState struct {
	mu       sync.Mutex
	cond     *sync.Cond
	on       atomic.Bool // commit routing: a committer goroutine is running
	dur      Durability
	queue    []*groupTxn
	overlay  map[BlockID]overlayEntry
	live     atomic.Int64 // len(overlay), so readRaw skips the lock when it is empty
	seq      uint64
	inflight int  // transactions currently being flushed
	hold     bool // test hook: committer pauses before taking a group
	stop     bool
	done     chan struct{}
}

// StartGroupCommit launches the committer goroutine. It requires no open
// batch. Durability zero values get defaults; see Durability.
func (fb *FileBackend) StartGroupCommit(d Durability) error {
	if fb.closed {
		return ErrClosed
	}
	if fb.inBatch {
		return errors.New("pager: group commit started inside an open batch")
	}
	gc := &fb.gc
	gc.mu.Lock()
	defer gc.mu.Unlock()
	if gc.on.Load() {
		return errors.New("pager: group commit already running")
	}
	if gc.cond == nil {
		gc.cond = sync.NewCond(&gc.mu)
	}
	if d.Every > 1 && d.MaxDelay <= 0 {
		d.MaxDelay = defaultMaxDelay
	}
	gc.dur = d
	gc.stop = false
	gc.done = make(chan struct{})
	gc.on.Store(true)
	go fb.committer()
	return nil
}

// StopGroupCommit drains the queue, flushes a final group if needed, stops
// the committer and checkpoints. It returns the error that poisoned the
// backend, if any (every committer failure does). Afterwards commits run
// synchronously again.
func (fb *FileBackend) StopGroupCommit() error {
	gc := &fb.gc
	gc.mu.Lock()
	if !gc.on.Load() {
		gc.mu.Unlock()
		return nil
	}
	gc.stop = true
	gc.cond.Broadcast()
	done := gc.done
	gc.mu.Unlock()
	<-done
	gc.mu.Lock()
	gc.on.Store(false)
	gc.stop = false
	gc.mu.Unlock()
	return fb.checkpoint(nil)
}

// GroupCommitEnabled implements AsyncTxBackend.
func (fb *FileBackend) GroupCommitEnabled() bool { return fb.gc.on.Load() }

// HoldGroupCommit pauses (true) or resumes (false) the committer before it
// takes its next group. Test hook: holding, enqueuing N transactions, and
// releasing yields one deterministic group of N.
func (fb *FileBackend) HoldGroupCommit(hold bool) {
	gc := &fb.gc
	gc.mu.Lock()
	gc.hold = hold
	if gc.cond != nil {
		gc.cond.Broadcast()
	}
	gc.mu.Unlock()
}

// CommitBatchAsync implements AsyncTxBackend. Without a running committer
// it degenerates to CommitBatch and returns a resolved ticket.
func (fb *FileBackend) CommitBatchAsync() (*CommitTicket, error) {
	if !fb.gc.on.Load() {
		err := fb.CommitBatch()
		return resolvedTicket(err), err
	}
	stage, ok := fb.takeBatch()
	if !ok {
		return resolvedTicket(nil), nil
	}
	return fb.gcEnqueue(sortedImages(stage)), nil
}

// gcEnqueue hands a transaction (its sorted images plus the current header
// snapshot) to the committer. Must be called from the exclusive writer.
func (fb *FileBackend) gcEnqueue(images []walImage) *CommitTicket {
	gc := &fb.gc
	t := &CommitTicket{done: make(chan struct{})}
	if err := fb.Poisoned(); err != nil {
		// A poisoned backend must not accept new transactions: its log can
		// no longer be trusted to reach the data file.
		t.err = err
		close(t.done)
		return t
	}
	gc.mu.Lock()
	txn := &groupTxn{
		walTxn: walTxn{images: images, hdr: fb.headerState()},
		seq:    gc.publish(images),
		solo:   len(gc.queue) == 0 && gc.inflight == 0,
		ticket: t,
		enq:    time.Now(),
		opSpan: fb.obs.Tracer().WriterSpanID(),
	}
	gc.queue = append(gc.queue, txn)
	gc.cond.Broadcast()
	gc.mu.Unlock()
	return t
}

// publish stamps one transaction's images with the next seq and makes them
// what readers see. gc.mu must be held.
func (gc *groupState) publish(images []walImage) uint64 {
	gc.seq++
	if gc.overlay == nil {
		gc.overlay = make(map[BlockID]overlayEntry, 32)
	}
	for _, img := range images {
		gc.overlay[img.id] = overlayEntry{data: img.data, seq: gc.seq}
	}
	gc.live.Store(int64(len(gc.overlay)))
	return gc.seq
}

// gcPublish is publish for an inline commit, whose images become visible
// once logged.
func (fb *FileBackend) gcPublish(images []walImage) uint64 {
	fb.gc.mu.Lock()
	defer fb.gc.mu.Unlock()
	return fb.gc.publish(images)
}

// gcDropApplied removes the overlay entries a checkpoint covering every
// transaction up to seq has made visible in the file. An entry re-staged
// by a newer transaction stays: its image is not on disk yet.
func (fb *FileBackend) gcDropApplied(seq uint64) {
	gc := &fb.gc
	gc.mu.Lock()
	for id, e := range gc.overlay {
		if e.seq <= seq {
			delete(gc.overlay, id)
		}
	}
	gc.live.Store(int64(len(gc.overlay)))
	gc.mu.Unlock()
}

// gcDrain waits until the committer holds no transaction, queued or in
// flight: the exclusive writer calling it is then the log's only appender
// until its next enqueue.
func (fb *FileBackend) gcDrain() {
	gc := &fb.gc
	gc.mu.Lock()
	for gc.on.Load() && len(gc.queue)+gc.inflight > 0 {
		gc.cond.Wait()
	}
	gc.mu.Unlock()
}

// GroupQueueStats is a point-in-time view of the group committer's backlog.
type GroupQueueStats struct {
	// QueueDepth counts transactions enqueued or currently being flushed.
	QueueDepth int
	// OverlayBlocks counts committed-but-unapplied block images held in the
	// overlay map (memory pinned until the next checkpoint).
	OverlayBlocks int
}

// GroupQueueStats snapshots the committer's backlog (an empty queue when
// group commit is off) and the overlay.
func (fb *FileBackend) GroupQueueStats() GroupQueueStats {
	gc := &fb.gc
	gc.mu.Lock()
	defer gc.mu.Unlock()
	return GroupQueueStats{QueueDepth: len(gc.queue) + gc.inflight, OverlayBlocks: len(gc.overlay)}
}

// gcReadOverlay copies a committed-but-unapplied image of id into buf,
// reporting whether one exists. Safe from concurrent reader goroutines.
func (fb *FileBackend) gcReadOverlay(id BlockID, buf []byte) bool {
	gc := &fb.gc
	if gc.live.Load() == 0 {
		return false
	}
	gc.mu.Lock()
	e, ok := gc.overlay[id]
	if ok {
		copy(buf, e.data)
	}
	gc.mu.Unlock()
	return ok
}

// gcSyncCommit routes a synchronous commit request (SetMetaRoot or a
// single out-of-batch write) through the committer and waits for it, so
// the WAL has exactly one appender while group commit runs.
func (fb *FileBackend) gcSyncCommit(stage map[BlockID][]byte) error {
	return fb.gcEnqueue(sortedImages(stage)).Wait()
}

// gcTimedWake broadcasts the committer's condition variable after d, so a
// cond.Wait can honor the MaxDelay deadline.
func (fb *FileBackend) gcTimedWake(d time.Duration) *time.Timer {
	return time.AfterFunc(d, func() {
		fb.gc.mu.Lock()
		fb.gc.cond.Broadcast()
		fb.gc.mu.Unlock()
	})
}

// committer is the group-commit loop: wait for work, optionally linger for
// company, flush the group, resolve tickets.
func (fb *FileBackend) committer() {
	gc := &fb.gc
	defer close(gc.done)
	var txns []*walTxn // the group as commitWAL takes it; reused across flushes
	for {
		gc.mu.Lock()
		for (len(gc.queue) == 0 || gc.hold) && !gc.stop {
			gc.cond.Wait()
		}
		if len(gc.queue) == 0 && gc.stop {
			gc.mu.Unlock()
			return
		}
		// Coalescing wait: unless the head transaction was alone at
		// enqueue (solo → sync fallback), give followers up to MaxDelay
		// to fill the group to Every.
		if n := gc.dur.Every; n > 1 && !gc.stop && !gc.hold && !gc.queue[0].solo && len(gc.queue) < n {
			deadline := time.Now().Add(gc.dur.MaxDelay)
			timer := fb.gcTimedWake(gc.dur.MaxDelay)
			for len(gc.queue) < n && !gc.stop && !gc.hold && time.Now().Before(deadline) {
				gc.cond.Wait()
			}
			timer.Stop()
		}
		group := gc.queue
		gc.queue = nil
		gc.inflight = len(group)
		gc.mu.Unlock()

		// Each transaction's wait from enqueue to pickup is the queue_wait
		// phase: with coalescing it is the price of company. Recorded on the
		// "wal" row (the op-level fsync_wait already contains it), and as a
		// commit-queue-lane span parented to the enqueuing op's span.
		if fb.obs != nil {
			pickup := time.Now()
			tr := fb.obs.Tracer()
			for _, txn := range group {
				wait := pickup.Sub(txn.enq)
				fb.obs.ObservePhaseWAL(obs.PhaseQueueWait, wait)
				if tr.Enabled() {
					tr.RecordSpan(obs.LaneQueue, "queue_wait", txn.opSpan, txn.enq, wait, 0, nil)
				}
			}
		}

		// The committer's failure policy is the sticky one: the enqueuing
		// writers have moved on, so the in-memory header and the overlay
		// cannot roll back to a pre-group snapshot the way an inline commit
		// does. Any flush failure — before the durability point too —
		// therefore poisons the backend, and every later commit, group or
		// inline, fails fast until a reopen resolves the log.
		err := fb.Poisoned()
		if err == nil {
			txns = txns[:0]
			for _, txn := range group {
				txns = append(txns, &txn.walTxn)
			}
			if err = fb.flushGroup(txns, group[len(group)-1].seq); err != nil {
				fb.poisonWith(err)
			}
		}

		gc.mu.Lock()
		gc.inflight = 0
		gc.cond.Broadcast()
		gc.mu.Unlock()

		for _, txn := range group {
			txn.ticket.err = err
			close(txn.ticket.done)
		}
	}
}

// flushGroup runs commitWAL for one group under a committer-lane
// commit_group span and charges the group accounting once the group's
// shared durability point is passed. Runs only on the committer goroutine
// — the sole WAL appender while group commit is on.
func (fb *FileBackend) flushGroup(txns []*walTxn, seq uint64) (err error) {
	var gsp obs.Span
	if tr := fb.obs.Tracer(); tr.Enabled() {
		gsp = tr.StartLane(obs.LaneCommitter, "commit_group", 0)
		defer func() { gsp.EndCount(len(txns), err) }()
	}
	durable, err := fb.commitWAL(txns, seq, &gsp)
	if durable {
		fb.statsMu.Lock()
		fb.stats.GroupCommits++
		fb.stats.GroupedTxns += uint64(len(txns))
		fb.statsMu.Unlock()
		fb.obs.Inc(obs.CtrPagerWALGroups)
	}
	return err
}

var _ AsyncTxBackend = (*FileBackend)(nil)
