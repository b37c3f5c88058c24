package pager

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"boxes/internal/faults"
	"boxes/internal/obs"
)

// fileMagic identifies a FileBackend store file (format 2: checksummed
// header, per-block CRC sidecar and write-ahead log).
var fileMagic = [8]byte{'B', 'O', 'X', 'P', 'A', 'G', 'E', '2'}

// fileHeaderSize is magic (8) + blockSize (4) + next (8) + free head (8) +
// allocated (8) + meta root (8) + flags (4) + header crc (4).
const fileHeaderSize = 52

// Header feature flags. Every store carries both: the field survives from
// a format that made them optional, and a header lacking either is
// rejected at open with ErrUnsupportedFormat.
const (
	flagChecksums = 1 << 0
	flagWAL       = 1 << 1
	flagsRequired = flagChecksums | flagWAL
)

// ErrUnsupportedFormat is returned when opening a store whose header lacks
// the checksum or write-ahead-log feature flag: such a file was written in
// place with no sidecar or log, and there is no read or write path for it.
var ErrUnsupportedFormat = errors.New("pager: store was created without checksums or a write-ahead log; format no longer supported")

// crcFileHeaderSize is the sidecar header: magic (8) + blockSize (4) +
// reserved (4). Entries are 4 bytes per block, indexed by block ID.
const crcFileHeaderSize = 16

var crcFileMagic = [8]byte{'B', 'O', 'X', 'C', 'R', 'C', '0', '1'}

// FileOptions configures CreateFileOpts/OpenFileOpts. The zero value is
// the durable default: CRC32-C checksums verified on every read and a
// write-ahead log making every batch all-or-nothing across power cuts.
type FileOptions struct {
	// BlockSize is the block size for CreateFileOpts (DefaultBlockSize if
	// <= 0). Ignored by OpenFileOpts, which reads it from the header.
	BlockSize int
	// NoSync skips fsync calls. The commit protocol and its I/O pattern
	// are unchanged, so benchmarks measure the WAL's write amplification
	// without paying for a CI runner's fsync latency. Never use it when
	// the data matters.
	NoSync bool
	// DiskControl injects a pre-planned schedule of composed disk faults
	// (crashes, torn writes, ENOSPC, transient flakes, fsync failures) at
	// precise raw write and sync points (tests and the simulator only).
	// See DiskController.
	DiskControl *DiskController
}

// ErrNoSpace marks a write that failed because the device is out of
// space (faults.ErrNoSpace re-exported at the pager surface). Unlike
// other permanent write faults it aborts the current transaction cleanly
// — header and staged state roll back to the pre-op snapshot — and the
// store stays writable: the next commit may succeed once space is
// reclaimed, so core must not latch read-only degraded mode on it.
var ErrNoSpace = faults.ErrNoSpace

// ErrPoisoned is returned by every commit attempted after a commit
// failed past a point where the durable state became ambiguous — a
// failed fsync (the kernel may have dropped the dirty pages: fsyncgate),
// or a checkpoint that failed partway through its apply or its log reset. Accepting further commits in such a state could
// reset a WAL whose images were never applied, silently corrupting the
// store; instead the backend fails every later commit and checkpoint
// fast and the path must be reopened, which resolves the ambiguity by
// redoing (or discarding) the WAL tail.
var ErrPoisoned = errors.New("pager: backend poisoned by a failed commit; reopen to recover from the WAL")

// WALStats counts the physical I/O the durability machinery performs on
// top of the logical block writes, so write amplification is observable.
type WALStats struct {
	Commits       uint64 // committed transactions
	Frames        uint64 // block frames appended to the WAL
	WALBytes      uint64 // bytes appended to the WAL (frames + commits)
	DataBytes     uint64 // bytes applied in place (blocks + headers)
	LogicalWrites uint64 // WriteBlock calls (the paper's counted writes)
	HeaderWrites  uint64 // header rewrites
	Checkpoints   uint64 // applies of the logged images followed by a log reset

	// Syncs counts WAL fsyncs — the durability points, one per transaction,
	// plus one per checkpoint for its log reset. They are counted even under NoSync so
	// benchmarks measure the fsync *pattern* without paying a CI runner's
	// fsync latency.
	Syncs uint64
	// DataSyncs counts data/sidecar fsyncs: two per checkpoint.
	DataSyncs uint64
	// GroupCommits and GroupedTxns both count durable commits: every
	// commit is a group of one.
	//
	// Deprecated: use Commits. Kept for callers that still derive a mean
	// group size from them (it is 1).
	GroupCommits uint64
	GroupedTxns  uint64

	// SizeBytes is the WAL's append offset — the live part of the log: a
	// point-in-time gauge, not a cumulative counter. It grows with every
	// commit and drops to the header size at a checkpoint, so it never
	// passes WALCheckpointBytes by more than one commit.
	SizeBytes uint64
}

// Durability is the type of core.Options.Durability, which nothing reads:
// every commit runs inline on the writer.
//
// Deprecated: core.Open ignores Options.Durability.
type Durability struct {
	Every int
}

// WriteAmplification is physical bytes written (WAL + data + checksums)
// per logical block byte: every block is written once to the log and, at
// the next checkpoint, its newest image once in place — 2x when every
// commit is checkpointed, approaching 1x for blocks rewritten often.
func (w WALStats) WriteAmplification(blockSize int) float64 {
	logical := w.LogicalWrites * uint64(blockSize)
	if logical == 0 {
		return 0
	}
	return float64(w.WALBytes+w.DataBytes) / float64(logical)
}

// RecoveryInfo reports what OpenFile found in the write-ahead log.
type RecoveryInfo struct {
	Replayed       bool  // one or more committed transactions were applied at open
	ReplayedTxns   int   // committed transactions replayed
	ReplayedFrames int   // block images the replay wrote
	DiscardedBytes int64 // uncommitted WAL tail discarded at open
	SidecarRebuilt bool  // the checksum sidecar was missing and rebuilt
}

// FileBackend persists blocks in a single file. Block n occupies bytes
// [n*blockSize, (n+1)*blockSize); block 0 holds the header, so BlockID 0
// is naturally unusable, matching NilBlock. Freed blocks are chained into
// a free list through their first 8 bytes.
//
// Every block carries a CRC32-C in a sidecar (<path>.crc) verified on
// each read, and all writes flow through a write-ahead log
// (<path>.wal): a batch of writes (one Store operation) is staged in
// memory, logged with a commit record and fsynced — the acknowledgement —
// and applied in place by a later checkpoint, so a power cut at any
// instant leaves the store at a clean operation boundary. OpenFile
// replays or discards the WAL tail.
type FileBackend struct {
	path      string
	f         blockFile // data file
	wal       blockFile // write-ahead log
	crc       blockFile // checksum sidecar
	blockSize int
	flags     uint32
	nosync    bool

	next      BlockID // next never-used block
	freeHead  BlockID // head of the free list, NilBlock if empty
	allocated uint64
	metaRoot  BlockID // head of the store's metadata blob, NilBlock if none

	inBatch  bool
	stage    map[BlockID][]byte // staged images of the open batch
	snap     walHeaderState     // header state at BeginBatch, for abort
	walSize  int64              // current WAL append offset
	walSizeA atomic.Int64       // mirror of walSize for lock-free WALStats scrapes

	// The exclusive writer, the log's one appender, owns the rest of the
	// WAL state: the generation mixed into every record checksum, the
	// encode buffer, and what the next checkpoint owes the data file (the
	// newest logged image of each block, the last logged header and the
	// commits they cover). readRaw serves unapplied images ahead of the
	// data file; the caller's lock keeps readers out while the writer
	// commits or checkpoints.
	walGen    uint32
	enc       []byte
	unapplied map[BlockID][]byte
	cpHdr     walHeaderState
	cpCommits int

	recovery RecoveryInfo
	statsMu  sync.Mutex // WALStats scrapes run beside the writer
	stats    WALStats
	obs      *obs.Registry // nil-safe
	closed   bool

	// poison is set (under poisonMu) the moment a commit fails in a way
	// that leaves the durable state ambiguous or the WAL ahead of the
	// data file: a failed fsync, or any phase-2/3 failure. Every later
	// commit fails fast with it; see ErrPoisoned.
	poisonMu sync.Mutex
	poison   error
}

// CreateFile creates (or truncates) a file-backed store at path with the
// given block size (DefaultBlockSize if size <= 0).
func CreateFile(path string, size int) (*FileBackend, error) {
	return CreateFileOpts(path, FileOptions{BlockSize: size})
}

// CreateFileOpts creates (or truncates) a file-backed store at path.
func CreateFileOpts(path string, opts FileOptions) (*FileBackend, error) {
	size := opts.BlockSize
	if size <= 0 {
		size = DefaultBlockSize
	}
	if size < fileHeaderSize {
		return nil, fmt.Errorf("pager: block size %d smaller than header", size)
	}
	fb := &FileBackend{
		path:      path,
		blockSize: size,
		flags:     flagsRequired,
		next:      1,
		nosync:    opts.NoSync,
	}
	var err error
	if fb.f, err = openRaw(path, true, opts.DiskControl); err != nil {
		return nil, err
	}
	if fb.crc, err = openRaw(path+".crc", true, opts.DiskControl); err != nil {
		fb.closeFiles()
		return nil, err
	}
	if _, err := fb.crc.WriteAt(encodeCRCHeader(size), 0); err != nil {
		fb.closeFiles()
		return nil, err
	}
	if fb.wal, err = openRaw(path+".wal", true, opts.DiskControl); err != nil {
		fb.closeFiles()
		return nil, err
	}
	if _, err := fb.wal.WriteAt(encodeWALHeader(size, 0), 0); err != nil {
		fb.closeFiles()
		return nil, err
	}
	fb.setWALSize(walHeaderSize)
	if err := fb.writeHeader(); err != nil {
		fb.closeFiles()
		return nil, err
	}
	if err := fb.syncAll(); err != nil {
		fb.closeFiles()
		return nil, err
	}
	return fb, nil
}

// OpenFile opens an existing file-backed store created by CreateFile,
// replaying or discarding the write-ahead log tail so the store is at a
// clean operation boundary before the first read.
func OpenFile(path string) (*FileBackend, error) {
	return OpenFileOpts(path, FileOptions{})
}

// OpenFileOpts opens an existing store. The block size comes from the
// stored header; NoSync and DiskControl are honored.
func OpenFileOpts(path string, opts FileOptions) (*FileBackend, error) {
	f, err := openRaw(path, false, opts.DiskControl)
	if err != nil {
		return nil, err
	}
	fb := &FileBackend{path: path, f: f, nosync: opts.NoSync}

	hdr := make([]byte, fileHeaderSize)
	hdrErr := func() error {
		if _, err := fb.f.ReadAt(hdr, 0); err != nil {
			return corruptRegion("header", "reading: %v", err)
		}
		return fb.decodeHeader(hdr)
	}()
	if hdrErr != nil {
		// A torn header is recoverable when the WAL holds a committed
		// transaction: its commit frame carries the full header state.
		if rerr := fb.recoverHeaderFromWAL(path, opts.DiskControl); rerr != nil {
			fb.f.Close()
			if errors.Is(hdrErr, ErrCorrupt) {
				return nil, hdrErr
			}
			return nil, rerr
		}
	}

	if err := fb.validateGeometry(); err != nil {
		fb.f.Close()
		return nil, err
	}
	if err := fb.openSidecar(opts.DiskControl); err != nil {
		fb.closeFiles()
		return nil, err
	}
	if fb.wal == nil { // already open when the header was rebuilt from it
		if err := fb.openWAL(opts.DiskControl); err != nil {
			fb.closeFiles()
			return nil, err
		}
	}
	if err := fb.recoverWAL(); err != nil {
		fb.closeFiles()
		return nil, err
	}
	if err := fb.validateGeometry(); err != nil { // replay may have grown the file
		fb.closeFiles()
		return nil, err
	}
	return fb, nil
}

// openRaw opens one of the store's files, optionally routed through a
// disk controller.
func openRaw(path string, create bool, dc *DiskController) (blockFile, error) {
	mode := os.O_RDWR
	if create {
		mode |= os.O_CREATE | os.O_TRUNC
	}
	osf, err := os.OpenFile(path, mode, 0o644)
	if err != nil {
		return nil, err
	}
	if dc != nil {
		return &diskFile{f: osf, ctrl: dc}, nil
	}
	return osf, nil
}

func encodeCRCHeader(blockSize int) []byte {
	buf := make([]byte, crcFileHeaderSize)
	copy(buf[:8], crcFileMagic[:])
	binary.LittleEndian.PutUint32(buf[8:12], uint32(blockSize))
	return buf
}

// decodeHeader parses and verifies the 52-byte header.
func (fb *FileBackend) decodeHeader(hdr []byte) error {
	var magic [8]byte
	copy(magic[:], hdr[:8])
	if magic != fileMagic {
		return errors.New("pager: not a box pager file")
	}
	if got, want := binary.LittleEndian.Uint32(hdr[48:52]), checksum(hdr[:48]); got != want {
		return corruptRegion("header", "checksum mismatch (stored %08x, computed %08x)", got, want)
	}
	fb.blockSize = int(binary.LittleEndian.Uint32(hdr[8:12]))
	fb.next = BlockID(binary.LittleEndian.Uint64(hdr[12:20]))
	fb.freeHead = BlockID(binary.LittleEndian.Uint64(hdr[20:28]))
	fb.allocated = binary.LittleEndian.Uint64(hdr[28:36])
	fb.metaRoot = BlockID(binary.LittleEndian.Uint64(hdr[36:44]))
	fb.flags = binary.LittleEndian.Uint32(hdr[44:48])
	return nil
}

// validateGeometry rejects a header of the unsupported in-place format, or
// one inconsistent with the file itself, instead of letting later reads
// return garbage.
func (fb *FileBackend) validateGeometry() error {
	if fb.flags&flagsRequired != flagsRequired {
		return fmt.Errorf("%w (header flags %#x)", ErrUnsupportedFormat, fb.flags)
	}
	if fb.blockSize < fileHeaderSize {
		return corruptRegion("header", "block size %d smaller than header", fb.blockSize)
	}
	if fb.next < 1 {
		return corruptRegion("header", "next block %d out of range", fb.next)
	}
	if fb.allocated > uint64(fb.next-1) {
		return corruptRegion("header", "%d blocks allocated but only %d ever existed", fb.allocated, fb.next-1)
	}
	if fb.freeHead >= fb.next {
		return corruptRegion("header", "free list head %d beyond next=%d", fb.freeHead, fb.next)
	}
	size, err := fileSize(fb.f)
	if err != nil {
		return err
	}
	required := int64(fileHeaderSize)
	if fb.next > 1 {
		required = int64(fb.next) * int64(fb.blockSize)
	}
	if size < required {
		return corruptRegion("header", "header claims %d blocks of %d bytes but the file holds %d bytes",
			fb.next, fb.blockSize, size)
	}
	return nil
}

// fileSize reports a store file's current length.
func fileSize(f blockFile) (int64, error) {
	st, err := f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// openSidecar opens (or rebuilds) the checksum sidecar.
func (fb *FileBackend) openSidecar(dc *DiskController) error {
	if _, err := os.Stat(fb.path + ".crc"); err != nil {
		if !os.IsNotExist(err) {
			return err
		}
		// The sidecar is gone (deleted, or never copied along with the
		// store). Rebuild it from the data we have: no verification is
		// possible for the rebuilt entries, but every later write is
		// protected again.
		c, err := openRaw(fb.path+".crc", true, dc)
		if err != nil {
			return err
		}
		fb.crc = c
		if _, err := fb.crc.WriteAt(encodeCRCHeader(fb.blockSize), 0); err != nil {
			return err
		}
		buf := make([]byte, fb.blockSize)
		for id := BlockID(1); id < fb.next; id++ {
			if _, err := fb.f.ReadAt(buf, fb.offset(id)); err != nil {
				return err
			}
			if err := fb.writeCRCEntry(id, checksum(buf)); err != nil {
				return err
			}
		}
		fb.recovery.SidecarRebuilt = true
		return fb.sync(fb.crc)
	}
	c, err := openRaw(fb.path+".crc", false, dc)
	if err != nil {
		return err
	}
	fb.crc = c
	hdr := make([]byte, crcFileHeaderSize)
	if _, err := fb.crc.ReadAt(hdr, 0); err != nil {
		return corruptRegion("checksum-file", "reading header: %v", err)
	}
	var magic [8]byte
	copy(magic[:], hdr[:8])
	if magic != crcFileMagic {
		return corruptRegion("checksum-file", "bad magic")
	}
	if bs := int(binary.LittleEndian.Uint32(hdr[8:12])); bs != fb.blockSize {
		return corruptRegion("checksum-file", "block size %d, store uses %d", bs, fb.blockSize)
	}
	return nil
}

// openWAL opens (or creates) the write-ahead log file.
func (fb *FileBackend) openWAL(dc *DiskController) error {
	_, statErr := os.Stat(fb.path + ".wal")
	missing := os.IsNotExist(statErr)
	if statErr != nil && !missing {
		return statErr
	}
	w, err := openRaw(fb.path+".wal", missing, dc)
	if err != nil {
		return err
	}
	fb.wal = w
	if missing {
		if _, err := fb.wal.WriteAt(encodeWALHeader(fb.blockSize, 0), 0); err != nil {
			return err
		}
	}
	fb.setWALSize(walHeaderSize)
	return nil
}

// recoverHeaderFromWAL rebuilds a torn header from the committed
// transaction in the WAL, if there is one. The WAL header supplies the
// block size the store header could not.
func (fb *FileBackend) recoverHeaderFromWAL(path string, dc *DiskController) error {
	if _, err := os.Stat(path + ".wal"); err != nil {
		return err
	}
	w, err := openRaw(path+".wal", false, dc)
	if err != nil {
		return err
	}
	fb.wal = w
	data, err := readAll(fb.wal)
	if err != nil {
		return err
	}
	if len(data) < walHeaderSize {
		return corruptRegion("header", "header unreadable and WAL empty")
	}
	var magic [8]byte
	copy(magic[:], data[:8])
	if magic != walMagic {
		return corruptRegion("wal", "bad magic")
	}
	fb.blockSize = int(binary.LittleEndian.Uint32(data[8:12]))
	txns, _, err := scanWAL(data, fb.blockSize)
	if err != nil {
		return err
	}
	if len(txns) == 0 {
		return corruptRegion("header", "header unreadable and WAL holds no committed transaction")
	}
	// The last committed transaction carries the newest header state; the
	// replay in recoverWAL (called by OpenFileOpts) rewrites the header
	// from it.
	fb.restoreHeaderState(txns[len(txns)-1].hdr)
	fb.setWALSize(walHeaderSize)
	return nil
}

// recoverWAL scans the log, replays every committed transaction in append
// order (a crash leaves every commit since the last checkpoint), and
// discards an uncommitted or stale tail, leaving the WAL empty.
func (fb *FileBackend) recoverWAL() error {
	data, err := readAll(fb.wal)
	if err != nil {
		return err
	}
	txns, discarded, err := scanWAL(data, fb.blockSize)
	if err != nil {
		return err
	}
	if len(data) >= walHeaderSize {
		fb.walGen = binary.LittleEndian.Uint32(data[12:16])
	}
	fb.recovery.DiscardedBytes = discarded
	if len(txns) > 0 {
		// Header state comes from the last commit record; each replayed
		// image is pure physical redo, so replaying every transaction in
		// order is idempotent and lands on the committed prefix exactly.
		last := txns[len(txns)-1]
		fb.restoreHeaderState(last.hdr)
		// Redo writes every logged image in append order — no newest-per-
		// block merge — so a cut during recovery itself meets the same write
		// points whatever the transaction structure of the log was.
		var images []walImage
		for _, txn := range txns {
			if err := validateWALImages(txn, fb.blockSize); err != nil {
				return err
			}
			images = append(images, txn.images...)
		}
		if err := fb.applyInPlace(images, last.hdr); err != nil {
			return err
		}
		fb.recovery.Replayed = true
		fb.recovery.ReplayedTxns = len(txns)
		fb.recovery.ReplayedFrames = len(images)
	}
	if len(data) != walHeaderSize {
		if err := fb.resetWAL(); err != nil {
			return err
		}
		return fb.wal.Truncate(walHeaderSize)
	}
	return nil
}

// RecoveryInfo reports what the open-time WAL scan found.
func (fb *FileBackend) RecoveryInfo() RecoveryInfo { return fb.recovery }

// WALStats reports cumulative durability I/O counters. Safe to call
// concurrently with the writer.
func (fb *FileBackend) WALStats() WALStats {
	fb.statsMu.Lock()
	defer fb.statsMu.Unlock()
	st := fb.stats
	st.SizeBytes = uint64(fb.walSizeA.Load())
	return st
}

// setWALSize moves the WAL append offset and its atomic mirror together.
// The offset itself is only touched with the backend quiescent (open,
// recovery) or by the writer, but WALStats scrapes run beside the writer,
// so they read the mirror.
func (fb *FileBackend) setWALSize(n int64) {
	fb.walSize = n
	fb.walSizeA.Store(n)
}

// Bound returns the exclusive upper bound of ever-allocated block IDs.
func (fb *FileBackend) Bound() BlockID { return fb.next }

// Path returns the store file's path.
func (fb *FileBackend) Path() string { return fb.path }

// SetObserver attaches a metrics registry for WAL/commit/corruption
// counters. NewStore propagates its own observer automatically.
func (fb *FileBackend) SetObserver(r *obs.Registry) { fb.obs = r }

func (fb *FileBackend) writeHeader() error {
	return fb.writeHeaderState(fb.headerState())
}

// writeHeaderState writes a specific header snapshot in place — a
// checkpoint persists the last *logged* header.
func (fb *FileBackend) writeHeaderState(st walHeaderState) error {
	hdr := fb.encBuf()[:fileHeaderSize]
	copy(hdr[:8], fileMagic[:])
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(fb.blockSize))
	binary.LittleEndian.PutUint64(hdr[12:20], uint64(st.next))
	binary.LittleEndian.PutUint64(hdr[20:28], uint64(st.freeHead))
	binary.LittleEndian.PutUint64(hdr[28:36], st.allocated)
	binary.LittleEndian.PutUint64(hdr[36:44], uint64(st.metaRoot))
	binary.LittleEndian.PutUint32(hdr[44:48], st.flags)
	binary.LittleEndian.PutUint32(hdr[48:52], checksum(hdr[:48]))
	_, err := fb.f.WriteAt(hdr, 0)
	if err == nil {
		fb.statsMu.Lock()
		fb.stats.HeaderWrites++
		fb.stats.DataBytes += fileHeaderSize
		fb.statsMu.Unlock()
	}
	return err
}

// encBuf is the buffer every WAL record and store header is rendered into
// before its one raw write; it belongs to the writer, the log's one
// appender, which also checkpoints.
func (fb *FileBackend) encBuf() []byte {
	if fb.enc == nil {
		fb.enc = make([]byte, walFrameSize(fb.blockSize))
	}
	return fb.enc
}

// writeCRCEntry records a block's checksum in the sidecar.
func (fb *FileBackend) writeCRCEntry(id BlockID, sum uint32) error {
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], sum)
	_, err := fb.crc.WriteAt(buf[:], crcEntryOffset(id))
	return err
}

func crcEntryOffset(id BlockID) int64 {
	return crcFileHeaderSize + 4*int64(id)
}

// readCRCEntry fetches a block's stored checksum through the head of img,
// the image about to be verified, restoring the four bytes it displaces: a
// local array would escape via blockFile, one allocation per verified read.
func (fb *FileBackend) readCRCEntry(id BlockID, img []byte) (uint32, error) {
	head := [4]byte(img)
	_, err := fb.crc.ReadAt(img[:4], crcEntryOffset(id))
	sum := binary.LittleEndian.Uint32(img)
	copy(img, head[:])
	if err != nil {
		return 0, corruptBlock(id, "checksum entry unreadable: %v", err)
	}
	return sum, nil
}

func (fb *FileBackend) offset(id BlockID) int64 {
	return int64(id) * int64(fb.blockSize)
}

// Poisoned returns the error that poisoned the backend, or nil. A
// poisoned backend fails every commit fast (see ErrPoisoned); reads keep
// working so degraded-mode lookups can continue until the reopen.
func (fb *FileBackend) Poisoned() error {
	fb.poisonMu.Lock()
	defer fb.poisonMu.Unlock()
	return fb.poison
}

// poisonWith latches cause as the backend's poison (first cause wins).
func (fb *FileBackend) poisonWith(cause error) {
	fb.poisonMu.Lock()
	defer fb.poisonMu.Unlock()
	if fb.poison == nil {
		fb.poison = fmt.Errorf("%w: %w", ErrPoisoned, cause)
		fb.obs.Inc(obs.CtrPagerPoisoned)
	}
}

// sync fsyncs one of the store's files. The durability counter (WAL vs
// data) is charged only on success: a failed fsync is NOT a durability
// point, and trusting a retried one would be the fsyncgate bug — after a
// failed fsync the kernel may have dropped the dirty pages, so a later
// clean return proves nothing about these writes. A failure is therefore
// wrapped in faults.SyncError (classified Permanent regardless of errno,
// so no caller re-runs it as a flake) and poisons the backend: the
// commit in flight is unresolved until a reopen replays or discards it
// from the WAL. Under NoSync the call trivially succeeds and is still
// counted, so the fsync *pattern* stays measurable in fsync-free
// benchmark runs.
func (fb *FileBackend) sync(f blockFile) error {
	if !fb.nosync {
		if err := f.Sync(); err != nil {
			serr := &faults.SyncError{Err: err}
			fb.poisonWith(serr)
			return serr
		}
	}
	fb.statsMu.Lock()
	if f == fb.wal {
		fb.stats.Syncs++
	} else {
		fb.stats.DataSyncs++
	}
	fb.statsMu.Unlock()
	if f == fb.wal {
		fb.obs.Inc(obs.CtrPagerWALSyncs)
	}
	return nil
}

func (fb *FileBackend) syncAll() error {
	if err := fb.sync(fb.f); err != nil {
		return err
	}
	if err := fb.sync(fb.crc); err != nil {
		return err
	}
	return fb.sync(fb.wal)
}

func (fb *FileBackend) closeFiles() {
	if fb.f != nil {
		fb.f.Close()
	}
	if fb.crc != nil {
		fb.crc.Close()
	}
	if fb.wal != nil {
		fb.wal.Close()
	}
}

// SetMetaRoot implements MetaRooter. Inside a batch the new root commits
// with the batch; outside it commits immediately.
func (fb *FileBackend) SetMetaRoot(id BlockID) error {
	if fb.closed {
		return ErrClosed
	}
	pre := fb.headerState()
	fb.metaRoot = id
	if fb.inBatch {
		return nil
	}
	return fb.commit(nil, pre)
}

// MetaRoot implements MetaRooter.
func (fb *FileBackend) MetaRoot() (BlockID, error) {
	if fb.closed {
		return NilBlock, ErrClosed
	}
	return fb.metaRoot, nil
}

// BlockSize implements Backend.
func (fb *FileBackend) BlockSize() int { return fb.blockSize }

// headerState snapshots the in-memory header fields.
func (fb *FileBackend) headerState() walHeaderState {
	return walHeaderState{
		next:      fb.next,
		freeHead:  fb.freeHead,
		allocated: fb.allocated,
		metaRoot:  fb.metaRoot,
		flags:     fb.flags,
	}
}

func (fb *FileBackend) restoreHeaderState(s walHeaderState) {
	fb.next = s.next
	fb.freeHead = s.freeHead
	fb.allocated = s.allocated
	fb.metaRoot = s.metaRoot
	fb.flags = s.flags
}

// BeginBatch implements TxBackend: subsequent writes, allocations and
// frees stage in memory and commit together at CommitBatch. No I/O.
func (fb *FileBackend) BeginBatch() {
	if fb.inBatch {
		return
	}
	fb.inBatch = true
	fb.stage = make(map[BlockID][]byte, 8)
	fb.snap = fb.headerState()
}

// AbortBatch implements TxBackend: staged state is dropped and the header
// fields roll back, as if the batch never started.
func (fb *FileBackend) AbortBatch() {
	if !fb.inBatch {
		return
	}
	fb.inBatch = false
	fb.stage = nil
	fb.restoreHeaderState(fb.snap)
}

// takeBatch closes the open batch and hands over its staged images; ok is
// false when there is nothing to commit (no batch open, or a read-only one).
func (fb *FileBackend) takeBatch() (stage map[BlockID][]byte, ok bool) {
	if !fb.inBatch {
		return nil, false
	}
	fb.inBatch = false
	stage, fb.stage = fb.stage, nil
	return stage, len(stage) > 0 || fb.headerState() != fb.snap
}

// CommitBatch implements TxBackend: the staged images are logged with a
// commit record and fsynced; a later checkpoint applies them in place.
func (fb *FileBackend) CommitBatch() error {
	stage, ok := fb.takeBatch()
	if !ok {
		return nil
	}
	return fb.commit(stage, fb.snap)
}

// mapNoSpace surfaces an out-of-space write failure as the typed
// ErrNoSpace so callers can tell a full-but-healthy disk (clean abort,
// stay writable) from a broken one (degrade).
func mapNoSpace(err error) error {
	if err == nil || errors.Is(err, faults.ErrNoSpace) {
		return err
	}
	if errors.Is(err, syscall.ENOSPC) {
		return fmt.Errorf("%w (%v)", faults.ErrNoSpace, err)
	}
	return err
}

// commit runs the WAL protocol inline for a set of staged images plus the
// current header state. On failure before the commit record is durable the
// header fields roll back to pre — the abort is clean, the store stays
// usable, and an ENOSPC surfaces as the typed ErrNoSpace. A failed WAL
// fsync or a failed checkpoint has poisoned the backend by the time
// commitWAL returns (see ErrPoisoned).
func (fb *FileBackend) commit(stage map[BlockID][]byte, pre walHeaderState) error {
	if err := fb.Poisoned(); err != nil {
		fb.restoreHeaderState(pre)
		return err
	}
	durable, err := fb.commitWAL(sortedImages(stage), fb.headerState())
	if !durable {
		fb.restoreHeaderState(pre)
	}
	return err
}

// commitWAL is the commit half of the write-ahead protocol, the only place
// it is written down: the transaction's block frames (sorted by block ID)
// and its commit record carrying hdr are appended to the log — one raw
// write each — and one fsync makes them durable. That fsync is the end of
// the commit: the images are recorded as owed to the data file and the
// caller acknowledges.
//
// durable reports whether the WAL fsync — the durability point — was
// passed. Before it nothing is decided and the failure policy is the
// caller's (the log tail past walSize is garbage the next append
// overwrites; an out-of-space append surfaces as the typed ErrNoSpace).
// After it the only thing that can fail is the checkpoint this commit may
// have triggered by taking the log past WALCheckpointBytes.
//
// The "wal"-row phases (frame_write, fsync) nest inside the operation's
// wal_commit phase and trace as writer-lane children of the operation.
func (fb *FileBackend) commitWAL(images []walImage, hdr walHeaderState) (durable bool, err error) {
	t0 := time.Now()
	logged := 0
	for _, img := range images {
		frame := encodeWALFrame(fb.encBuf(), img.id, img.data, fb.walGen)
		if _, err := fb.wal.WriteAt(frame, fb.walSize+int64(logged)); err != nil {
			return false, mapNoSpace(err)
		}
		logged += len(frame)
	}
	rec := encodeWALCommit(fb.encBuf(), len(images), hdr, fb.walGen)
	if _, err := fb.wal.WriteAt(rec, fb.walSize+int64(logged)); err != nil {
		return false, mapNoSpace(err)
	}
	logged += len(rec)
	fb.walSection(nil, obs.PhaseFrameWrite, t0, len(images))
	t0 = time.Now()
	if err := fb.sync(fb.wal); err != nil {
		return false, err
	}
	fb.walSection(nil, obs.PhaseFsync, t0, 0)
	fb.setWALSize(fb.walSize + int64(logged))
	fb.statsMu.Lock()
	fb.stats.Commits++
	fb.stats.GroupCommits++
	fb.stats.GroupedTxns++
	fb.stats.Frames += uint64(len(images))
	fb.stats.WALBytes += uint64(logged)
	fb.statsMu.Unlock()
	fb.obs.Inc(obs.CtrPagerWALCommits)
	fb.obs.Add(obs.CtrPagerWALFrames, uint64(len(images)))

	if fb.unapplied == nil {
		fb.unapplied = make(map[BlockID][]byte)
	}
	for _, img := range images {
		fb.unapplied[img.id] = img.data
	}
	fb.cpHdr = hdr
	fb.cpCommits++
	if fb.walSize < WALCheckpointBytes {
		return true, nil
	}
	return true, fb.checkpoint()
}

// checkpoint pays the data file what the log holds: the newest logged image
// of each block and the last logged header are applied in place and fsynced,
// and the log is reset in place. It runs on the writer — after the commit
// that took the log past WALCheckpointBytes, and at Sync and Close — and
// traces as a writer-lane span. Any failure poisons the backend: the log
// still holds every commit, and only a reopen's redo can tell what the data
// file got.
func (fb *FileBackend) checkpoint() error {
	if err := fb.Poisoned(); err != nil {
		return err
	}
	if fb.walSize == walHeaderSize {
		return nil
	}
	t0 := time.Now()
	sp := fb.obs.Tracer().StartAuto(false, "checkpoint")
	images := sortedImages(fb.unapplied)
	err := fb.applyInPlace(images, fb.cpHdr)
	fb.walSection(&sp, obs.PhaseApply, t0, len(images))
	if err == nil {
		err = fb.resetWAL()
	}
	sp.EndCount(fb.cpCommits, err)
	fb.obs.ObservePhaseWAL(obs.PhaseCheckpoint, time.Since(t0))
	if err != nil {
		fb.poisonWith(err)
		return err
	}
	clear(fb.unapplied)
	fb.cpCommits = 0
	fb.obs.Inc(obs.CtrPagerCheckpoints)
	return nil
}

// resetWAL empties the log in place: its header is rewritten with the next
// generation and fsynced before anything of that generation is appended
// (wal.go says why), and the append offset returns to the top. The file
// keeps its length.
func (fb *FileBackend) resetWAL() error {
	if _, err := fb.wal.WriteAt(encodeWALHeader(fb.blockSize, fb.walGen+1), 0); err != nil {
		return err
	}
	if err := fb.sync(fb.wal); err != nil {
		return err
	}
	fb.walGen++
	fb.setWALSize(walHeaderSize)
	fb.statsMu.Lock()
	fb.stats.Checkpoints++
	fb.statsMu.Unlock()
	return nil
}

// applyInPlace is the in-place half of the protocol, shared by checkpoint
// and open-time redo: each image and its checksum entry in the order
// given, then the header, then the data and sidecar fsyncs.
func (fb *FileBackend) applyInPlace(images []walImage, hdr walHeaderState) error {
	for _, img := range images {
		if _, err := fb.f.WriteAt(img.data, fb.offset(img.id)); err != nil {
			return err
		}
		fb.statsMu.Lock()
		fb.stats.DataBytes += uint64(len(img.data))
		fb.statsMu.Unlock()
		if err := fb.writeCRCEntry(img.id, checksum(img.data)); err != nil {
			return err
		}
	}
	if err := fb.writeHeaderState(hdr); err != nil {
		return err
	}
	if err := fb.sync(fb.f); err != nil {
		return err
	}
	return fb.sync(fb.crc)
}

// walSection attributes one protocol section to its "wal"-row phase and,
// when tracing, records it as a writer-lane span: a child of parent
// carrying the count n, or of the writer's operation when parent is nil.
func (fb *FileBackend) walSection(parent *obs.Span, ph obs.Phase, start time.Time, n int) {
	if fb.obs == nil {
		return
	}
	d := time.Since(start)
	fb.obs.ObservePhaseWAL(ph, d)
	if parent != nil {
		parent.RecordChild(ph.String(), start, d, n)
	} else {
		fb.obs.Tracer().RecordAuto(false, ph.String(), start, d)
	}
}

func sortedImages(stage map[BlockID][]byte) []walImage {
	if len(stage) == 0 {
		return nil
	}
	images := make([]walImage, 0, len(stage))
	for id, data := range stage {
		images = append(images, walImage{id: id, data: data})
	}
	slices.SortFunc(images, func(a, b walImage) int { return cmp.Compare(a.id, b.id) })
	return images
}

// readRaw fetches a block image: the open batch's staged copy first, then
// the newest committed image no checkpoint has applied yet, then the data
// file.
func (fb *FileBackend) readRaw(id BlockID, buf []byte) error {
	if fb.inBatch {
		if img, ok := fb.stage[id]; ok {
			copy(buf, img)
			return nil
		}
	}
	if img, ok := fb.unapplied[id]; ok {
		copy(buf, img)
		return nil
	}
	if _, err := fb.f.ReadAt(buf, fb.offset(id)); err != nil {
		return err
	}
	want, err := fb.readCRCEntry(id, buf)
	if err != nil {
		fb.obs.Inc(obs.CtrPagerChecksumFailures)
		return err
	}
	if got := checksum(buf); got != want {
		fb.obs.Inc(obs.CtrPagerChecksumFailures)
		return corruptBlock(id, "checksum mismatch (stored %08x, computed %08x)", want, got)
	}
	return nil
}

// stageWrite records a block image into the open batch or commits it as a
// single-write transaction (commit restores only to the header state passed
// in, so a caller that already mutated the header rolls that back itself).
func (fb *FileBackend) stageWrite(id BlockID, data []byte) error {
	img := make([]byte, len(data))
	copy(img, data)
	if fb.inBatch {
		fb.stage[id] = img
		return nil
	}
	return fb.commit(map[BlockID][]byte{id: img}, fb.headerState())
}

// Allocate implements Backend.
func (fb *FileBackend) Allocate() (BlockID, error) {
	if fb.closed {
		return NilBlock, ErrClosed
	}
	var id BlockID
	pre := fb.headerState()
	if fb.freeHead != NilBlock {
		id = fb.freeHead
		buf := make([]byte, fb.blockSize)
		if err := fb.readRaw(id, buf); err != nil {
			return NilBlock, err
		}
		fb.freeHead = BlockID(binary.LittleEndian.Uint64(buf[:8]))
	} else {
		id = fb.next
		fb.next++
	}
	fb.allocated++
	// Zeroing (allocation semantics match MemBackend) is staged: it becomes
	// durable with the batch's commit.
	if err := fb.stageWrite(id, make([]byte, fb.blockSize)); err != nil {
		fb.restoreHeaderState(pre)
		return NilBlock, err
	}
	return id, nil
}

// Free implements Backend: the block is chained into the free list through
// its first 8 bytes.
func (fb *FileBackend) Free(id BlockID) error {
	if fb.closed {
		return ErrClosed
	}
	if id == NilBlock || id >= fb.next {
		return fmt.Errorf("pager: free of invalid block %d", id)
	}
	pre := fb.headerState()
	img := make([]byte, fb.blockSize)
	binary.LittleEndian.PutUint64(img[:8], uint64(fb.freeHead))
	fb.freeHead = id
	fb.allocated--
	if err := fb.stageWrite(id, img); err != nil {
		fb.restoreHeaderState(pre)
		return err
	}
	return nil
}

// ReadBlock implements Backend, verifying the block's checksum.
func (fb *FileBackend) ReadBlock(id BlockID, buf []byte) error {
	if fb.closed {
		return ErrClosed
	}
	if id == NilBlock || id >= fb.next {
		return fmt.Errorf("pager: read of invalid block %d", id)
	}
	if len(buf) != fb.blockSize {
		return fmt.Errorf("pager: read buffer of %d bytes, want %d", len(buf), fb.blockSize)
	}
	return fb.readRaw(id, buf)
}

// WriteBlock implements Backend: the write stages into the open batch, or
// commits alone outside one.
func (fb *FileBackend) WriteBlock(id BlockID, buf []byte) error {
	if fb.closed {
		return ErrClosed
	}
	if id == NilBlock || id >= fb.next {
		return fmt.Errorf("pager: write of invalid block %d", id)
	}
	if len(buf) != fb.blockSize {
		return fmt.Errorf("pager: write buffer of %d bytes, want %d", len(buf), fb.blockSize)
	}
	fb.statsMu.Lock()
	fb.stats.LogicalWrites++
	fb.statsMu.Unlock()
	return fb.stageWrite(id, buf)
}

// VerifyBlock reads a block and checks its checksum without returning the
// contents (boxfsck's per-block scan).
func (fb *FileBackend) VerifyBlock(id BlockID) error {
	buf := make([]byte, fb.blockSize)
	return fb.ReadBlock(id, buf)
}

// FreeBlocks walks the free list and returns every block on it. A cycle,
// an out-of-range ID, or an unreadable link surfaces as an error wrapping
// ErrCorrupt.
func (fb *FileBackend) FreeBlocks() ([]BlockID, error) {
	if fb.closed {
		return nil, ErrClosed
	}
	var out []BlockID
	seen := make(map[BlockID]bool)
	buf := make([]byte, fb.blockSize)
	for id := fb.freeHead; id != NilBlock; {
		if id >= fb.next {
			return out, corruptBlock(id, "free list references block beyond next=%d", fb.next)
		}
		if seen[id] {
			return out, corruptBlock(id, "free list cycle")
		}
		seen[id] = true
		out = append(out, id)
		if err := fb.readRaw(id, buf); err != nil {
			return out, err
		}
		id = BlockID(binary.LittleEndian.Uint64(buf[:8]))
	}
	return out, nil
}

// NumBlocks implements Backend.
func (fb *FileBackend) NumBlocks() uint64 { return fb.allocated }

// Sync checkpoints: when it returns, every acknowledged commit is applied
// in the data file and its sidecar, both are fsynced, and the log is empty.
// Durability never waits for it — a commit is durable once logged.
func (fb *FileBackend) Sync() error {
	if fb.closed {
		return ErrClosed
	}
	if fb.inBatch {
		return errors.New("pager: sync inside an open batch")
	}
	return fb.checkpoint()
}

// Close implements Backend: a final checkpoint, after which the log is
// truncated back to its header (only here and after open-time recovery
// does it shrink).
func (fb *FileBackend) Close() error {
	if fb.closed {
		return nil
	}
	if fb.inBatch {
		fb.AbortBatch()
	}
	err := fb.checkpoint()
	if err == nil {
		err = fb.wal.Truncate(walHeaderSize)
	}
	fb.closed = true
	if cerr := fb.f.Close(); err == nil {
		err = cerr
	}
	if cerr := fb.crc.Close(); err == nil {
		err = cerr
	}
	if cerr := fb.wal.Close(); err == nil {
		err = cerr
	}
	return err
}

var _ TxBackend = (*FileBackend)(nil)
