package pager

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"boxes/internal/obs"
)

// RawVerifier is the backend surface the online scrubber needs: checksum
// verification of the on-disk image (bypassing any in-memory overlay) and
// best-effort repair from still-available redundancy (the overlay of
// committed images awaiting a checkpoint). FileBackend implements it.
type RawVerifier interface {
	VerifyBlockRaw(id BlockID) error
	RepairBlock(id BlockID) (bool, error)
	Bound() BlockID
}

// VerifyBlockRaw verifies the on-disk image of id against its sidecar
// checksum, bypassing the open-batch stage and the overlay. A block whose
// newest committed image still sits in the overlay is reported clean: its
// disk bytes are stale by design and will be overwritten by the next
// checkpoint.
func (fb *FileBackend) VerifyBlockRaw(id BlockID) error {
	if fb.closed {
		return ErrClosed
	}
	if id == NilBlock || id >= fb.next {
		return fmt.Errorf("pager: raw verify of invalid block %d", id)
	}
	scratch := make([]byte, fb.blockSize)
	if fb.gcReadOverlay(id, scratch) {
		return nil
	}
	fb.applyMu.Lock()
	defer fb.applyMu.Unlock()
	if _, err := fb.f.ReadAt(scratch, fb.offset(id)); err != nil {
		return corruptBlock(id, "raw read: %v", err)
	}
	want, err := fb.readCRCEntry(id, scratch)
	if err != nil {
		return err
	}
	if got := checksum(scratch); got != want {
		fb.obs.Inc(obs.CtrPagerChecksumFailures)
		return corruptBlock(id, "scrub checksum mismatch (stored %08x, computed %08x)", want, got)
	}
	return nil
}

// RepairBlock tries to reconstruct the on-disk image of id from the only
// redundancy that exists online: the overlay, which holds every committed
// image the log still carries. It reports whether a source was found and
// the block rewritten; (false, nil) means the corruption is unrecoverable
// online and the block should stay quarantined.
func (fb *FileBackend) RepairBlock(id BlockID) (bool, error) {
	if fb.closed {
		return false, ErrClosed
	}
	if id == NilBlock || id >= fb.next {
		return false, fmt.Errorf("pager: repair of invalid block %d", id)
	}
	img := make([]byte, fb.blockSize)
	if !fb.gcReadOverlay(id, img) {
		return false, nil
	}
	return true, fb.rewriteRaw(id, img)
}

// rewriteRaw durably rewrites one block image and its checksum in place,
// serialized against commit applies and scrub reads.
func (fb *FileBackend) rewriteRaw(id BlockID, data []byte) error {
	fb.applyMu.Lock()
	defer fb.applyMu.Unlock()
	if _, err := fb.f.WriteAt(data, fb.offset(id)); err != nil {
		return err
	}
	if err := fb.writeCRCEntry(id, checksum(data)); err != nil {
		return err
	}
	if err := fb.sync(fb.f); err != nil {
		return err
	}
	return fb.sync(fb.crc)
}

// ScrubConfig paces the online scrubber.
type ScrubConfig struct {
	// BatchBlocks is the number of blocks verified per batch (default 64).
	BatchBlocks int
	// Interval is the pause between batches (default 50ms). The pause
	// bounds the scrubber's steady-state I/O share.
	Interval time.Duration
	// Repair enables reconstruction of corrupt blocks from the overlay;
	// without it corrupt blocks are only quarantined.
	Repair bool
	// Guard, when set, brackets each batch — a SyncStore wires its read
	// lock here so batches never race label mutations. Nil runs batches
	// unguarded (single-writer contract applies, as everywhere else).
	Guard func(func())
}

func (c ScrubConfig) withDefaults() ScrubConfig {
	if c.BatchBlocks <= 0 {
		c.BatchBlocks = 64
	}
	if c.Interval <= 0 {
		c.Interval = 50 * time.Millisecond
	}
	if c.Guard == nil {
		c.Guard = func(fn func()) { fn() }
	}
	return c
}

// ScrubProgress is a snapshot of the scrubber's counters.
type ScrubProgress struct {
	Passes   uint64  // completed full passes over the block range
	Scanned  uint64  // blocks verified (cumulative across passes)
	Corrupt  uint64  // checksum failures found
	Repaired uint64  // corrupt blocks successfully reconstructed
	Cursor   BlockID // next block the background loop will verify
	LastErr  string  // most recent corruption/repair error, "" when clean
}

// Scrubber walks a store's blocks in the background, verifying on-disk
// checksums at a configurable pace. Corrupt blocks are quarantined (reads
// fail fast with a typed *CorruptError instead of re-reading rot) and,
// when enabled, repaired from the overlay of committed images awaiting a
// checkpoint — the only redundancy that exists while the store is online.
type Scrubber struct {
	st  *Store
	rv  RawVerifier
	cfg ScrubConfig

	mu       sync.Mutex
	cursor   BlockID
	passes   uint64
	scanned  uint64
	corrupt  uint64
	repaired uint64
	lastErr  error

	stop chan struct{}
	done chan struct{}
}

// NewScrubber builds a scrubber over the store. The store's backend must
// implement RawVerifier (FileBackend does; MemBackend has no on-disk state
// to scrub).
func (s *Store) NewScrubber(cfg ScrubConfig) (*Scrubber, error) {
	rv, ok := s.backend.(RawVerifier)
	if !ok {
		return nil, errors.New("pager: backend does not support raw verification (scrubbing needs a FileBackend)")
	}
	return &Scrubber{st: s, rv: rv, cfg: cfg.withDefaults(), cursor: 1}, nil
}

// Progress reports a consistent snapshot of the scrubber's counters.
func (sc *Scrubber) Progress() ScrubProgress {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	p := ScrubProgress{
		Passes:   sc.passes,
		Scanned:  sc.scanned,
		Corrupt:  sc.corrupt,
		Repaired: sc.repaired,
		Cursor:   sc.cursor,
	}
	if sc.lastErr != nil {
		p.LastErr = sc.lastErr.Error()
	}
	return p
}

// batchSpan opens instrumentation for one scrub batch — the scrub_batch
// phase ("scrub" row) plus a scrubber-lane span when tracing. The returned
// func closes both with the number of blocks verified.
func (sc *Scrubber) batchSpan() func(n int) {
	reg := sc.st.obs
	if reg == nil {
		return func(int) {}
	}
	start := time.Now()
	sp := reg.Tracer().StartLane(obs.LaneScrubber, "scrub_batch", 0)
	return func(n int) {
		reg.ObservePhaseScrub(time.Since(start))
		sp.EndCount(n, nil)
	}
}

// scrubBlock verifies one block, quarantining and (optionally) repairing
// on failure. It runs inside the Guard.
func (sc *Scrubber) scrubBlock(id BlockID) {
	err := sc.rv.VerifyBlockRaw(id)
	sc.st.obs.Inc(obs.CtrPagerScrubBlocks)
	sc.mu.Lock()
	sc.scanned++
	sc.mu.Unlock()
	if err == nil {
		return
	}
	sc.st.obs.Inc(obs.CtrPagerScrubCorrupt)
	sc.mu.Lock()
	sc.corrupt++
	sc.lastErr = err
	sc.mu.Unlock()

	// Quarantine before repairing: concurrent readers fail fast with a
	// typed error instead of racing the in-place rewrite. A reader that
	// slips past the quarantine check mid-repair still cannot observe a
	// wrong image — the rewrite is CRC-covered, so a torn read fails its
	// checksum like any other corruption.
	sc.st.Quarantine(id, err)
	if !sc.cfg.Repair {
		return
	}
	fixed, rerr := sc.rv.RepairBlock(id)
	if rerr != nil || !fixed {
		if rerr != nil {
			sc.mu.Lock()
			sc.lastErr = fmt.Errorf("repair block %d: %w", id, rerr)
			sc.mu.Unlock()
		}
		return
	}
	if sc.rv.VerifyBlockRaw(id) == nil {
		sc.st.obs.Inc(obs.CtrPagerScrubRepairs)
		sc.mu.Lock()
		sc.repaired++
		sc.mu.Unlock()
		sc.st.Unquarantine(id)
	}
}

// RunPass synchronously verifies every allocated block once, batch by
// batch under the Guard, and reports how many corrupt blocks it found
// (after repairs, quarantined ones remain counted).
func (sc *Scrubber) RunPass() (corrupt int, err error) {
	var id BlockID = 1
	for done := false; !done; {
		sc.cfg.Guard(func() {
			bound := sc.rv.Bound()
			end := id + BlockID(sc.cfg.BatchBlocks)
			if end >= bound {
				end = bound
				done = true // bound reached: this is the last batch
			}
			finish := sc.batchSpan()
			n := 0
			for ; id < end; id++ {
				sc.scrubBlock(id)
				n++
			}
			finish(n)
		})
	}
	sc.mu.Lock()
	sc.passes++
	sc.mu.Unlock()
	sc.st.obs.Inc(obs.CtrPagerScrubPasses)
	return len(sc.st.QuarantinedBlocks()), nil
}

// Start launches the background scrub loop: BatchBlocks blocks per tick,
// one tick per Interval, wrapping around at the allocation bound so the
// whole store is re-verified continuously. Stop halts it.
func (sc *Scrubber) Start() {
	if sc.stop != nil {
		return
	}
	sc.stop = make(chan struct{})
	sc.done = make(chan struct{})
	go sc.loop()
}

// Stop halts the background loop and waits for it to exit. Safe to call
// when the scrubber was never started.
func (sc *Scrubber) Stop() {
	if sc.stop == nil {
		return
	}
	close(sc.stop)
	<-sc.done
	sc.stop = nil
	sc.done = nil
}

func (sc *Scrubber) loop() {
	defer close(sc.done)
	t := time.NewTicker(sc.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-sc.stop:
			return
		case <-t.C:
		}
		sc.cfg.Guard(func() {
			bound := sc.rv.Bound()
			sc.mu.Lock()
			id := sc.cursor
			sc.mu.Unlock()
			if id >= bound {
				id = 1
			}
			end := id + BlockID(sc.cfg.BatchBlocks)
			if end > bound {
				end = bound
			}
			finish := sc.batchSpan()
			n := 0
			for ; id < end; id++ {
				sc.scrubBlock(id)
				n++
			}
			finish(n)
			sc.mu.Lock()
			if id >= bound {
				sc.cursor = 1
				sc.passes++
				sc.st.obs.Inc(obs.CtrPagerScrubPasses)
			} else {
				sc.cursor = id
			}
			sc.mu.Unlock()
		})
	}
}
