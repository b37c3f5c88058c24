package pager

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sync"

	"boxes/internal/faults"
)

// ErrCrashed is returned by every operation after a simulated power cut
// (a DiskController crash point, or a FaultBackend crash decision): the
// machine lost power, so nothing succeeds until the store file is
// reopened by a fresh process.
var ErrCrashed = errors.New("pager: simulated power cut")

// blockFile is the raw file surface FileBackend performs I/O through.
// *os.File implements it; a diskFile wraps one to inject faults at
// precise write and sync points.
type blockFile interface {
	io.ReaderAt
	io.WriterAt
	Truncate(size int64) error
	Sync() error
	Stat() (os.FileInfo, error)
	Close() error
}

// DiskFaultKind is one fault a DiskController can inject at a planned raw
// write or sync point.
type DiskFaultKind int

const (
	// DiskCrash cuts power at the planned point: the write is lost and
	// every later file operation fails with ErrCrashed until reopen.
	DiskCrash DiskFaultKind = iota
	// DiskTornCrash cuts power mid-write: the first half of the buffer
	// persists, then the device dies.
	DiskTornCrash
	// DiskNoSpace fails the planned write with faults.ErrNoSpace, one
	// shot: the device is full for that write and healthy afterward.
	DiskNoSpace
	// DiskTransient fails the planned point with faults.ErrTransient, one
	// shot — a flake a bounded retry is allowed to absorb.
	DiskTransient
	// DiskSyncFail fails the planned fsync with a nominally transient
	// cause. FileBackend wraps it into a faults.SyncError, which
	// classifies Permanent no matter the errno — the fsyncgate contract.
	DiskSyncFail
)

func (k DiskFaultKind) String() string {
	switch k {
	case DiskCrash:
		return "crash"
	case DiskTornCrash:
		return "torn-crash"
	case DiskNoSpace:
		return "nospace"
	case DiskTransient:
		return "transient"
	case DiskSyncFail:
		return "syncfail"
	default:
		return "disk?"
	}
}

// DiskController injects a pre-planned schedule of disk faults underneath
// a FileBackend — the one VFS-level injector. It counts every raw write
// the backend performs (WriteAt and Truncate across the data file, CRC
// sidecar and WAL: frame appends, commit records, in-place applies, header
// and checksum updates, log resets) as one global, deterministically
// ordered write point, and every fsync as one sync point. The plan maps
// any subset of points to any DiskFaultKind, so one controller expresses
// anything from a single power cut (the crash matrix: run until ErrCrashed
// surfaces, drop the backend, reopen the path with a plain OpenFile) to a
// composed history: a transient flake at write 7, ENOSPC at write 19, a
// torn power cut at write 30, an fsync failure at sync 3.
//
// The plan is fixed up front (maps of 1-based indices), which is what
// makes a simulated history byte-identically replayable: the same plan
// over the same workload charges the same indices in the same order.
// Attach via FileOptions.DiskControl. With an empty plan the controller
// only counts, which is how a harness discovers the sweep range.
type DiskController struct {
	// WriteFaults maps 1-based write-point indices to faults. Crash kinds
	// latch the dead state; other kinds are one-shot by construction
	// (each index is passed at most once).
	WriteFaults map[int]DiskFaultKind
	// SyncFaults maps 1-based sync-point indices to faults; only
	// DiskSyncFail and the crash kinds are meaningful here.
	SyncFaults map[int]DiskFaultKind
	// SkipRealSync makes fault-free fsyncs succeed without touching the
	// kernel. The simulator opens stores with NoSync off — so sync points
	// exist, are counted, and can fail — but thousands of histories
	// cannot afford thousands of real fsyncs.
	SkipRealSync bool

	mu      sync.Mutex
	writes  int
	syncs   int
	crashed bool
}

// NewDiskController returns a controller with an empty (count-only) plan.
func NewDiskController() *DiskController {
	return &DiskController{
		WriteFaults: make(map[int]DiskFaultKind),
		SyncFaults:  make(map[int]DiskFaultKind),
	}
}

// Writes reports how many raw write points have been charged so far.
func (c *DiskController) Writes() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.writes
}

// Syncs reports how many sync points have been charged so far.
func (c *DiskController) Syncs() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.syncs
}

// Crashed reports whether a planned crash has fired.
func (c *DiskController) Crashed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.crashed
}

// PlanWrite adds kind at the 1-based write point idx, unless that point is
// already planned or already in the past. It reports whether the fault was
// armed. Safe to call between operations on a live backend — this is how
// the simulator plans faults "a few writes into the future".
func (c *DiskController) PlanWrite(idx int, kind DiskFaultKind) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if idx <= c.writes {
		return false
	}
	if _, ok := c.WriteFaults[idx]; ok {
		return false
	}
	c.WriteFaults[idx] = kind
	return true
}

// PlanSync adds kind at the 1-based sync point idx; same contract as
// PlanWrite.
func (c *DiskController) PlanSync(idx int, kind DiskFaultKind) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if idx <= c.syncs {
		return false
	}
	if _, ok := c.SyncFaults[idx]; ok {
		return false
	}
	c.SyncFaults[idx] = kind
	return true
}

// stepWrite charges one write point and returns the planned fault, if any.
func (c *DiskController) stepWrite() (kind DiskFaultKind, fault, dead bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.crashed {
		return 0, false, true
	}
	c.writes++
	k, ok := c.WriteFaults[c.writes]
	if ok && (k == DiskCrash || k == DiskTornCrash) {
		c.crashed = true
	}
	return k, ok, false
}

// stepSync charges one sync point and returns the planned fault, if any.
func (c *DiskController) stepSync() (kind DiskFaultKind, fault, dead bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.crashed {
		return 0, false, true
	}
	c.syncs++
	k, ok := c.SyncFaults[c.syncs]
	if ok && (k == DiskCrash || k == DiskTornCrash) {
		c.crashed = true
	}
	return k, ok, false
}

func (c *DiskController) dead() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.crashed
}

// diskFile routes one file's I/O through a DiskController.
type diskFile struct {
	f    *os.File
	ctrl *DiskController
}

// Stat bypasses the controller: probing a length is not a fault point.
func (df *diskFile) Stat() (os.FileInfo, error) { return df.f.Stat() }

func (df *diskFile) ReadAt(p []byte, off int64) (int, error) {
	if df.ctrl.dead() {
		return 0, ErrCrashed
	}
	return df.f.ReadAt(p, off)
}

func (df *diskFile) WriteAt(p []byte, off int64) (int, error) {
	kind, fault, dead := df.ctrl.stepWrite()
	if dead {
		return 0, ErrCrashed
	}
	if !fault {
		return df.f.WriteAt(p, off)
	}
	switch kind {
	case DiskTornCrash:
		if n := len(p) / 2; n > 0 {
			df.f.WriteAt(p[:n], off)
		}
		return 0, fmt.Errorf("%w (torn write of %d bytes at offset %d)", ErrCrashed, len(p), off)
	case DiskCrash:
		return 0, fmt.Errorf("%w (write of %d bytes at offset %d)", ErrCrashed, len(p), off)
	case DiskNoSpace:
		return 0, fmt.Errorf("disk: write of %d bytes at offset %d: %w", len(p), off, faults.ErrNoSpace)
	default: // DiskTransient and anything mapped oddly: a retryable flake
		return 0, fmt.Errorf("disk: injected write flake at offset %d: %w", off, faults.ErrTransient)
	}
}

func (df *diskFile) Truncate(size int64) error {
	kind, fault, dead := df.ctrl.stepWrite()
	if dead {
		return ErrCrashed
	}
	if !fault {
		return df.f.Truncate(size)
	}
	switch kind {
	case DiskCrash, DiskTornCrash:
		return fmt.Errorf("%w (truncate to %d)", ErrCrashed, size)
	case DiskNoSpace:
		return fmt.Errorf("disk: truncate to %d: %w", size, faults.ErrNoSpace)
	default:
		return fmt.Errorf("disk: injected truncate flake: %w", faults.ErrTransient)
	}
}

func (df *diskFile) Sync() error {
	kind, fault, dead := df.ctrl.stepSync()
	if dead {
		return ErrCrashed
	}
	if fault {
		switch kind {
		case DiskCrash, DiskTornCrash:
			return ErrCrashed
		default:
			// A deliberately transient-looking cause: the whole point of
			// the fsyncgate contract is that even this must not be
			// retried once it has passed through a Sync call.
			return fmt.Errorf("disk: injected fsync failure: %w", faults.ErrTransient)
		}
	}
	if df.ctrl.SkipRealSync {
		return nil
	}
	return df.f.Sync()
}

// Close always closes the real file so a harness can reopen the path
// after a simulated crash without leaking descriptors.
func (df *diskFile) Close() error { return df.f.Close() }
