package pager

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"boxes/internal/faults"
)

// The durability tests share one tiny scripted workload: a root block
// holding an op counter, four data blocks rewritten round-robin, one
// free-then-reallocate cycle. Small enough that a full crash-point sweep
// stays fast, rich enough to cover writes, growth, free-list churn and
// meta-root updates in every transaction position.

const (
	scriptBlockSize = 128
	scriptOps       = 10
	// scriptWritePoints is the number of raw write points the ten scripted
	// ops perform on an inline-committing backend that checkpoints after
	// every op (see TestCrashPointSweep): 32 log appends (22 frames, 10
	// commit records), a block write and a checksum entry per frame, and a
	// header write and a log reset per checkpoint — the count of the
	// protocol that applied every commit in place and truncated the log.
	scriptWritePoints = 32 + 22*2 + 10*2
	// scriptCheckpointWritePoints is the same script checkpointing after ops
	// 3 and 7 only (see TestCheckpointCrashSweep): each checkpoint writes the
	// four or five blocks touched since the last one, once.
	scriptCheckpointWritePoints = 32 + (4*2 + 2) + (5*2 + 2)
)

// everyOp and afterOps3And7 are the two checkpoint schedules the sweeps run
// the script under.
func everyOp(int) bool         { return true }
func afterOps3And7(i int) bool { return i == 3 || i == 7 }

// powerCut returns a disk controller that cuts power at the at-th raw
// write point (0 = never: it only counts, which is how a sweep discovers
// its range), persisting only the first half of the fatal write when torn.
func powerCut(at int, torn bool) *DiskController {
	dc := NewDiskController()
	if at > 0 {
		kind := DiskCrash
		if torn {
			kind = DiskTornCrash
		}
		dc.PlanWrite(at, kind)
	}
	return dc
}

// scriptSetup creates the store and its initial blocks (root=1, data=2..5)
// without crash injection, so the sweep's crash points all land inside the
// scripted ops rather than file creation.
func scriptSetup(t *testing.T, path string, opts FileOptions) {
	t.Helper()
	opts.BlockSize = scriptBlockSize
	fb, err := CreateFileOpts(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	st := NewStore(fb)
	st.BeginOp()
	for i := 0; i < 5; i++ {
		if _, err := st.Allocate(); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]byte, scriptBlockSize)
	for id := BlockID(1); id <= 5; id++ {
		if err := st.Write(id, buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.EndOp(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// scriptOp applies the i-th op (1-based) to the store. Every op bumps the
// root counter and rewrites one data block; op 4 frees block 5 and op 7
// reallocates it.
func scriptOp(st *Store, i int) error {
	st.BeginOp()
	root, err := st.Read(1)
	if err != nil {
		st.EndOp()
		return err
	}
	binary.LittleEndian.PutUint64(root[:8], uint64(i))
	if err := st.Write(1, root); err != nil {
		st.EndOp()
		return err
	}
	target := BlockID(2 + (i % 3)) // blocks 2..4 (5 may be freed)
	buf := make([]byte, scriptBlockSize)
	for j := range buf {
		buf[j] = byte(i)
	}
	if err := st.Write(target, buf); err != nil {
		st.EndOp()
		return err
	}
	switch i {
	case 4:
		if err := st.Free(5); err != nil {
			st.EndOp()
			return err
		}
	case 7:
		id, err := st.Allocate()
		if err != nil {
			st.EndOp()
			return err
		}
		if err := st.Write(id, buf); err != nil {
			st.EndOp()
			return err
		}
	}
	return st.EndOp()
}

// scriptRun applies the ten scripted ops, checkpointing after the ops
// checkpointAfter selects — so the ops that follow overwrite, in place, a
// log that still holds the frames of an earlier generation — and reports
// how many ops returned success before the first error, and whether that
// error came from a checkpoint rather than an op.
func scriptRun(st *Store, fb *FileBackend, checkpointAfter func(op int) bool) (done int, inCheckpoint bool, err error) {
	for i := 1; i <= scriptOps; i++ {
		if err := scriptOp(st, i); err != nil {
			return done, false, err
		}
		done++
		if checkpointAfter(i) {
			if err := fb.Sync(); err != nil {
				return done, true, err
			}
		}
	}
	return done, false, nil
}

// scriptState is the externally observable store state after k ops.
type scriptState struct {
	counter uint64
	blocks  map[BlockID][]byte // live blocks only
	free    []BlockID
	num     uint64
}

// captureState reads the observable state of an open backend.
func captureState(t *testing.T, fb *FileBackend) scriptState {
	t.Helper()
	free, err := fb.FreeBlocks()
	if err != nil {
		t.Fatalf("free list walk: %v", err)
	}
	isFree := make(map[BlockID]bool)
	for _, id := range free {
		isFree[id] = true
	}
	s := scriptState{blocks: make(map[BlockID][]byte), free: free, num: fb.NumBlocks()}
	for id := BlockID(1); id < fb.Bound(); id++ {
		if isFree[id] {
			continue
		}
		buf := make([]byte, fb.BlockSize())
		if err := fb.ReadBlock(id, buf); err != nil {
			t.Fatalf("read block %d: %v", id, err)
		}
		s.blocks[id] = buf
	}
	s.counter = binary.LittleEndian.Uint64(s.blocks[1][:8])
	return s
}

func statesEqual(a, b scriptState) bool {
	if a.counter != b.counter || a.num != b.num || len(a.blocks) != len(b.blocks) || len(a.free) != len(b.free) {
		return false
	}
	for id, buf := range a.blocks {
		if !bytes.Equal(buf, b.blocks[id]) {
			return false
		}
	}
	for i, id := range a.free {
		if b.free[i] != id {
			return false
		}
	}
	return true
}

// goldenStates runs the script with no crash injection, capturing the
// state after each op: goldenStates[k] is the state after k successful ops.
func goldenStates(t *testing.T, dir string) []scriptState {
	t.Helper()
	path := filepath.Join(dir, "golden.box")
	scriptSetup(t, path, FileOptions{})
	states := make([]scriptState, 0, scriptOps+1)
	for k := 0; k <= scriptOps; k++ {
		fb, err := OpenFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if k > 0 {
			if err := scriptOp(NewStore(fb), k); err != nil {
				t.Fatalf("golden op %d: %v", k, err)
			}
		}
		states = append(states, captureState(t, fb))
		if err := fb.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return states
}

// countScriptWrites runs the whole script under a counting controller and
// reports the number of raw write points.
func countScriptWrites(t *testing.T, dir string, checkpointAfter func(op int) bool) int {
	t.Helper()
	path := filepath.Join(dir, "count.box")
	scriptSetup(t, path, FileOptions{})
	ctrl := powerCut(0, false)
	fb, err := OpenFileOpts(path, FileOptions{DiskControl: ctrl})
	if err != nil {
		t.Fatal(err)
	}
	st := NewStore(fb)
	if done, _, err := scriptRun(st, fb, checkpointAfter); err != nil {
		t.Fatalf("after op %d: %v", done, err)
	}
	writes := ctrl.Writes() // before Close, which writes too
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return writes
}

// TestCrashPointSweep is the pager-level crash matrix with a checkpoint
// after every op — every commit followed by its apply and a log reset, each
// later commit overwriting the log of the generation before.
func TestCrashPointSweep(t *testing.T) {
	crashPointSweep(t, everyOp, scriptWritePoints)
}

// TestCheckpointCrashSweep is the same matrix with checkpoints after ops 3
// and 7 only: cuts between commits that nothing has applied yet, inside
// checkpoints that cover several commits and apply each block once, and in
// commits that overwrite a longer stale log.
func TestCheckpointCrashSweep(t *testing.T) {
	crashPointSweep(t, afterOps3And7, scriptCheckpointWritePoints)
}

// crashPointSweep kills the scripted workload at every raw write point
// (full cut and torn write) — log appends over a fresh and over a reused
// log, every write of a checkpoint's apply, the header write, the log reset
// — reopens the store with plain OpenFile, and requires the recovered state
// to match the golden state after k or k+1 ops, where k ops returned
// success before the cut (k+1 when the dying op's commit record was already
// durable; a cut inside a checkpoint must recover to exactly k).
func crashPointSweep(t *testing.T, checkpointAfter func(op int) bool, pinned int) {
	dir := t.TempDir()
	golden := goldenStates(t, dir)
	writes := countScriptWrites(t, dir, checkpointAfter)
	// Pinned: the protocol's raw write order is part of its contract, and a
	// refactor that adds, drops or merges a write point must show up here,
	// not pass because the sweep re-discovered its own range.
	if writes != pinned {
		t.Fatalf("script has %d raw write points, want %d", writes, pinned)
	}
	for _, torn := range []bool{false, true} {
		for at := 1; at <= writes; at++ {
			name := fmt.Sprintf("crash@%d", at)
			if torn {
				name = fmt.Sprintf("torn@%d", at)
			}
			t.Run(name, func(t *testing.T) {
				path := filepath.Join(t.TempDir(), "sweep.box")
				scriptSetup(t, path, FileOptions{})
				ctrl := powerCut(at, torn)
				fb, err := OpenFileOpts(path, FileOptions{DiskControl: ctrl})
				if err != nil {
					t.Fatal(err)
				}
				st := NewStore(fb)
				k, inCheckpoint, err := scriptRun(st, fb, checkpointAfter)
				if !errors.Is(err, ErrCrashed) {
					t.Fatalf("script stopped after op %d with %v, want ErrCrashed", k, err)
				}
				if !ctrl.Crashed() {
					t.Fatalf("controller never fired (crashAt=%d, %d writes)", at, ctrl.Writes())
				}
				st.Close() // descriptors must not leak; errors expected

				rec, err := OpenFile(path)
				if err != nil {
					t.Fatalf("recovery open after crash@%d: %v", at, err)
				}
				defer rec.Close()
				got := captureState(t, rec)
				if !statesEqual(got, golden[k]) && (inCheckpoint || !statesEqual(got, golden[k+1])) {
					t.Fatalf("recovered state (counter=%d) matches neither golden[%d] nor golden[%d] (cut inside a checkpoint: %v)",
						got.counter, k, k+1, inCheckpoint)
				}
				// Every block — live or free — must verify cleanly.
				for id := BlockID(1); id < rec.Bound(); id++ {
					if err := rec.VerifyBlock(id); err != nil {
						t.Fatalf("block %d fails verification after recovery: %v", id, err)
					}
				}
			})
		}
	}
}

// TestCrashDuringSetupStillOpens covers the one scenario the sweep skips:
// a cut during file creation. The store may be unusable, but opening it
// must fail cleanly, never panic.
func TestCrashDuringSetupStillOpens(t *testing.T) {
	for at := 1; at <= 6; at++ {
		path := filepath.Join(t.TempDir(), "young.box")
		ctrl := powerCut(at, true)
		fb, err := CreateFileOpts(path, FileOptions{BlockSize: scriptBlockSize, DiskControl: ctrl})
		if err == nil {
			fb.Close()
		}
		if _, statErr := os.Stat(path); statErr != nil {
			continue // the data file never came to exist
		}
		rec, err := OpenFile(path)
		if err == nil {
			rec.Close()
		}
	}
}

func TestRecoveryReplaysCommittedTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "replay.box")
	scriptSetup(t, path, FileOptions{})

	// The op's commit is durable once its frames (root + data block) and
	// commit record = 3 WAL writes are fsynced; the cut comes at the first
	// write of the checkpoint that would have applied it.
	ctrl := powerCut(4, false) // 3 WAL appends, then die on first apply
	fb, err := OpenFileOpts(path, FileOptions{DiskControl: ctrl})
	if err != nil {
		t.Fatal(err)
	}
	st := NewStore(fb)
	if err := scriptOp(st, 1); err != nil {
		t.Fatalf("acknowledged op: %v", err)
	}
	if err := fb.Sync(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("checkpoint survived: %v", err)
	}
	st.Close()

	rec, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	info := rec.RecoveryInfo()
	if !info.Replayed || info.ReplayedFrames == 0 {
		t.Fatalf("recovery did not replay: %+v", info)
	}
	buf := make([]byte, scriptBlockSize)
	if err := rec.ReadBlock(1, buf); err != nil {
		t.Fatal(err)
	}
	if c := binary.LittleEndian.Uint64(buf[:8]); c != 1 {
		t.Fatalf("counter = %d after replay, want 1", c)
	}
}

func TestRecoveryDiscardsUncommittedTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "discard.box")
	scriptSetup(t, path, FileOptions{})

	ctrl := powerCut(2, false) // die before the commit record
	fb, err := OpenFileOpts(path, FileOptions{DiskControl: ctrl})
	if err != nil {
		t.Fatal(err)
	}
	st := NewStore(fb)
	err = scriptOp(st, 1)
	if !errors.Is(err, ErrCrashed) {
		t.Fatalf("op survived: %v", err)
	}
	st.Close()

	rec, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	info := rec.RecoveryInfo()
	if info.Replayed {
		t.Fatalf("uncommitted tail was replayed: %+v", info)
	}
	if info.DiscardedBytes == 0 {
		t.Fatalf("no tail discarded: %+v", info)
	}
	buf := make([]byte, scriptBlockSize)
	if err := rec.ReadBlock(1, buf); err != nil {
		t.Fatal(err)
	}
	if c := binary.LittleEndian.Uint64(buf[:8]); c != 0 {
		t.Fatalf("counter = %d after discard, want 0", c)
	}
}

func TestChecksumCatchesBitFlip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "flip.box")
	scriptSetup(t, path, FileOptions{})

	// Flip one byte in the middle of block 3's payload.
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	off := int64(3*scriptBlockSize + 17)
	one := make([]byte, 1)
	if _, err := f.ReadAt(one, off); err != nil {
		t.Fatal(err)
	}
	one[0] ^= 0x40
	if _, err := f.WriteAt(one, off); err != nil {
		t.Fatal(err)
	}
	f.Close()

	fb, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fb.Close()
	buf := make([]byte, scriptBlockSize)
	err = fb.ReadBlock(3, buf)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bit flip not detected: %v", err)
	}
	var ce *CorruptError
	if !errors.As(err, &ce) || ce.Block != 3 {
		t.Fatalf("corruption error does not carry the block ID: %v", err)
	}
	// Other blocks stay readable.
	if err := fb.ReadBlock(2, buf); err != nil {
		t.Fatalf("healthy block unreadable: %v", err)
	}
}

func TestHeaderBitFlipRejectedAtOpen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hdrflip.box")
	scriptSetup(t, path, FileOptions{})

	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	one := make([]byte, 1)
	if _, err := f.ReadAt(one, 20); err != nil { // inside the freeHead field
		t.Fatal(err)
	}
	one[0] ^= 0x01
	if _, err := f.WriteAt(one, 20); err != nil {
		t.Fatal(err)
	}
	f.Close()

	_, err = OpenFile(path)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt header accepted: %v", err)
	}
}

func TestWALTailGarbageDiscarded(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tail.box")
	scriptSetup(t, path, FileOptions{})

	w, err := os.OpenFile(path+".wal", os.O_RDWR|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(bytes.Repeat([]byte{0xEE}, 37)); err != nil {
		t.Fatal(err)
	}
	w.Close()

	fb, err := OpenFile(path)
	if err != nil {
		t.Fatalf("garbage WAL tail blocked open: %v", err)
	}
	defer fb.Close()
	if d := fb.RecoveryInfo().DiscardedBytes; d != 37 {
		t.Fatalf("discarded %d bytes, want 37", d)
	}
}

func TestOpenRejectsTruncatedFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trunc.box")
	scriptSetup(t, path, FileOptions{})

	if err := os.Truncate(path, int64(3*scriptBlockSize)); err != nil {
		t.Fatal(err)
	}
	// The WAL is empty (clean close), so the intact header now disagrees
	// with the file size.
	_, err := OpenFile(path)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated file accepted: %v", err)
	}
}

func TestSidecarRebuiltWhenMissing(t *testing.T) {
	path := filepath.Join(t.TempDir(), "nocrc.box")
	scriptSetup(t, path, FileOptions{})
	if err := os.Remove(path + ".crc"); err != nil {
		t.Fatal(err)
	}
	fb, err := OpenFile(path)
	if err != nil {
		t.Fatalf("open without sidecar: %v", err)
	}
	defer fb.Close()
	if !fb.RecoveryInfo().SidecarRebuilt {
		t.Fatal("sidecar not flagged as rebuilt")
	}
	for id := BlockID(1); id < fb.Bound(); id++ {
		if err := fb.VerifyBlock(id); err != nil {
			t.Fatalf("block %d fails after rebuild: %v", id, err)
		}
	}
}

func TestWALWriteAmplificationBounded(t *testing.T) {
	path := filepath.Join(t.TempDir(), "amp.box")
	scriptSetup(t, path, FileOptions{})
	fb, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	st := NewStore(fb)
	for i := 1; i <= scriptOps; i++ {
		if err := scriptOp(st, i); err != nil {
			t.Fatal(err)
		}
	}
	stats := fb.WALStats()
	amp := stats.WriteAmplification(fb.BlockSize())
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if amp <= 1.0 {
		t.Fatalf("write amplification %.2f <= 1, stats not plausible: %+v", amp, stats)
	}
	// Each block is written once to the WAL and at most once more in place
	// at the checkpoint, plus per-txn commit records; with tiny test blocks
	// the fixed overhead is larger than it would be at 8 KB, so the bound
	// here is loose.
	if amp > 4.0 {
		t.Fatalf("write amplification %.2f > 4, WAL writing too much: %+v", amp, stats)
	}
}

func TestFaultBackendPowerCut(t *testing.T) {
	inner := NewMemBackend(64)
	sched := faults.NewSchedule(1)
	sched.CrashAtWrite(2, false)
	cb := NewFaultBackend(inner, sched)
	a, err := cb.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	b, err := cb.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	buf := bytes.Repeat([]byte{1}, 64)
	if err := cb.WriteBlock(a, buf); err != nil {
		t.Fatal(err)
	}
	err = cb.WriteBlock(b, buf)
	if !errors.Is(err, ErrCrashed) {
		t.Fatalf("second write survived: %v", err)
	}
	if !sched.Dead() {
		t.Fatal("schedule not marked dead")
	}
	// Everything after the cut fails, reads included.
	if err := cb.ReadBlock(a, buf); !errors.Is(err, ErrCrashed) {
		t.Fatalf("read after crash: %v", err)
	}
	if _, err := cb.Allocate(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("allocate after crash: %v", err)
	}
	// The block the fatal write targeted kept its old contents (full cut).
	out := make([]byte, 64)
	if err := inner.ReadBlock(b, out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, make([]byte, 64)) {
		t.Fatal("full-cut write partially applied")
	}
}

func TestFaultBackendTornWrite(t *testing.T) {
	inner := NewMemBackend(64)
	sched := faults.NewSchedule(1)
	sched.CrashAtWrite(2, true)
	cb := NewFaultBackend(inner, sched)
	id, _ := cb.Allocate()
	old := bytes.Repeat([]byte{0xAA}, 64)
	if err := cb.WriteBlock(id, old); err != nil {
		t.Fatal(err)
	}
	niu := bytes.Repeat([]byte{0xBB}, 64)
	if err := cb.WriteBlock(id, niu); !errors.Is(err, ErrCrashed) {
		t.Fatalf("fatal write returned %v", err)
	}
	out := make([]byte, 64)
	if err := inner.ReadBlock(id, out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out[:32], niu[:32]) || !bytes.Equal(out[32:], old[32:]) {
		t.Fatal("torn write did not produce half-new half-old image")
	}
}

func TestFaultBackendHeals(t *testing.T) {
	sched := faults.NewSchedule(1)
	fl := NewFaultBackend(NewMemBackend(64), sched)
	id, err := fl.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	sched.ArmFailNext(2)
	if err := fl.WriteBlock(id, buf); !errors.Is(err, ErrInjected) {
		t.Fatalf("first armed op: %v", err)
	}
	if err := fl.ReadBlock(id, buf); !errors.Is(err, ErrInjected) {
		t.Fatalf("second armed op: %v", err)
	}
	if sched.Armed() != 0 {
		t.Fatal("fault still armed after two failures")
	}
	if err := fl.WriteBlock(id, buf); err != nil {
		t.Fatalf("op after heal: %v", err)
	}
	if got := sched.Injected(); got != 2 {
		t.Fatalf("injected = %d, want 2", got)
	}
}

func TestStoreRetriesAfterTransientFault(t *testing.T) {
	sched := faults.NewSchedule(1)
	st := NewStore(NewFaultBackend(NewMemBackend(64), sched))
	id, err := st.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	buf := bytes.Repeat([]byte{7}, 64)

	sched.ArmFailNext(1)
	st.BeginOp()
	if err := st.Write(id, buf); err != nil {
		t.Fatal(err) // staged, no backend I/O yet
	}
	if err := st.EndOp(); !errors.Is(err, ErrInjected) {
		t.Fatalf("flush with armed fault: %v", err)
	}

	// The device healed; the same logical op retried now succeeds.
	st.BeginOp()
	if err := st.Write(id, buf); err != nil {
		t.Fatal(err)
	}
	if err := st.EndOp(); err != nil {
		t.Fatalf("retry after heal: %v", err)
	}
	got, err := st.Read(id)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, buf) {
		t.Fatal("retried write not visible")
	}
}

// TestOpenRejectsFlaglessHeader: a header whose checksum is valid but whose
// feature flags lack the WAL or the checksum sidecar describes the removed
// in-place format; opening it must fail with the typed error rather than
// pick a write path for it.
func TestOpenRejectsFlaglessHeader(t *testing.T) {
	for _, flags := range []uint32{0, flagChecksums, flagWAL} {
		path := filepath.Join(t.TempDir(), "legacy.box")
		scriptSetup(t, path, FileOptions{})
		f, err := os.OpenFile(path, os.O_RDWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		hdr := make([]byte, fileHeaderSize)
		if _, err := f.ReadAt(hdr, 0); err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint32(hdr[44:48], flags)
		binary.LittleEndian.PutUint32(hdr[48:52], checksum(hdr[:48]))
		if _, err := f.WriteAt(hdr, 0); err != nil {
			t.Fatal(err)
		}
		f.Close()
		if _, err := OpenFile(path); !errors.Is(err, ErrUnsupportedFormat) {
			t.Fatalf("flags %#x: open returned %v, want ErrUnsupportedFormat", flags, err)
		}
	}
}
