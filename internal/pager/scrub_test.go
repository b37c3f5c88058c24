package pager

import (
	"bytes"
	"errors"
	"path/filepath"
	"testing"
	"time"

	"boxes/internal/obs"
)

const scrubBS = 256

// scrubStore builds a file-backed store with a handful of written blocks,
// checkpointed so the data file — what the scrubber verifies — holds them,
// and returns the store, the backend, and the block ids.
func scrubStore(t *testing.T, n int) (*Store, *FileBackend, []BlockID) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "store.box")
	fb, err := CreateFile(path, scrubBS)
	if err != nil {
		t.Fatal(err)
	}
	st := NewStore(fb, WithObserver(obs.NewRegistry()))
	t.Cleanup(func() { st.Close() })
	ids := make([]BlockID, 0, n)
	for i := 0; i < n; i++ {
		id, err := st.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, scrubBS)
		for j := range buf {
			buf[j] = byte(i + j)
		}
		if err := st.Write(id, buf); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := fb.Sync(); err != nil {
		t.Fatal(err)
	}
	return st, fb, ids
}

// rot flips bytes of a block's on-disk image behind the pager's back,
// leaving the checksum sidecar stale — silent media corruption.
func rot(t *testing.T, fb *FileBackend, id BlockID) {
	t.Helper()
	junk := make([]byte, scrubBS)
	for i := range junk {
		junk[i] = 0xAA
	}
	if _, err := fb.f.WriteAt(junk, fb.offset(id)); err != nil {
		t.Fatal(err)
	}
}

// A scrub pass over a clean store finds nothing; after silent on-disk
// corruption it detects the block, quarantines it (reads fail fast with a
// typed error), and a fresh write through the store lifts the quarantine.
func TestScrubDetectsAndQuarantines(t *testing.T) {
	st, fb, ids := scrubStore(t, 8)
	sc, err := st.NewScrubber(ScrubConfig{BatchBlocks: 3})
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := sc.RunPass(); n != 0 {
		t.Fatalf("clean store scrubbed %d corrupt blocks", n)
	}
	victim := ids[4]
	rot(t, fb, victim)
	n, _ := sc.RunPass()
	if n != 1 {
		t.Fatalf("scrub found %d corrupt blocks, want 1", n)
	}
	if got := st.QuarantinedBlocks(); len(got) != 1 || got[0] != victim {
		t.Fatalf("QuarantinedBlocks = %v, want [%d]", got, victim)
	}
	_, err = st.Read(victim)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("read of rotted block: %v, want ErrCorrupt", err)
	}
	var ce *CorruptError
	if !errors.As(err, &ce) || ce.Block != victim {
		t.Fatalf("corrupt error should name block %d, got %v", victim, err)
	}
	p := sc.Progress()
	if p.Passes != 2 || p.Corrupt != 1 || p.Scanned == 0 || p.LastErr == "" {
		t.Fatalf("unexpected progress: %+v", p)
	}
	reg := st.Observer()
	if reg.Counter(obs.CtrPagerScrubCorrupt) != 1 || reg.Counter(obs.CtrPagerScrubPasses) != 2 {
		t.Fatalf("scrub counters off: corrupt=%d passes=%d",
			reg.Counter(obs.CtrPagerScrubCorrupt), reg.Counter(obs.CtrPagerScrubPasses))
	}

	// A rewrite through the store heals the block and lifts the quarantine.
	if err := st.Write(victim, make([]byte, scrubBS)); err != nil {
		t.Fatalf("healing rewrite: %v", err)
	}
	if got := st.QuarantinedBlocks(); len(got) != 0 {
		t.Fatalf("rewrite should lift the quarantine, still have %v", got)
	}
	if n, _ := sc.RunPass(); n != 0 {
		t.Fatalf("healed store still scrubs %d corrupt blocks", n)
	}
}

// commitOnFailure is a RawVerifier whose first failed verification is
// followed by a commit of the block's good image: the one order of events —
// detect, then find the image in the overlay — in which the scrubber's
// repair has a source, since a block already in the overlay is never
// verified on disk.
type commitOnFailure struct {
	*FileBackend
	good []walImage
}

func (c *commitOnFailure) VerifyBlockRaw(id BlockID) error {
	err := c.FileBackend.VerifyBlockRaw(id)
	if err != nil && c.good != nil {
		c.gcPublish(c.good)
		c.good = nil
	}
	return err
}

// A corrupt block whose committed image sits in the overlay by the time the
// repair looks for it is repaired in place: scrub detects, reconstructs from
// the overlay, and lifts the quarantine — the read path never sees the rot.
func TestScrubRepairsFromOverlay(t *testing.T) {
	st, fb, ids := scrubStore(t, 4)
	victim := ids[2]
	good, err := st.Read(victim)
	if err != nil {
		t.Fatal(err)
	}
	rot(t, fb, victim)

	sc, err := st.NewScrubber(ScrubConfig{Repair: true})
	if err != nil {
		t.Fatal(err)
	}
	sc.rv = &commitOnFailure{FileBackend: fb, good: []walImage{{id: victim, data: good}}}
	if n, _ := sc.RunPass(); n != 0 {
		t.Fatalf("%d blocks stayed quarantined; overlay repair should have healed", n)
	}
	p := sc.Progress()
	if p.Corrupt != 1 || p.Repaired != 1 {
		t.Fatalf("progress = %+v, want corrupt=1 repaired=1", p)
	}
	buf := make([]byte, scrubBS)
	if _, err := fb.f.ReadAt(buf, fb.offset(victim)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, good) {
		t.Fatal("repaired on-disk image differs from the committed one")
	}
	if st.Observer().Counter(obs.CtrPagerScrubRepairs) != 1 {
		t.Fatalf("pager_scrub_repairs_total = %d, want 1", st.Observer().Counter(obs.CtrPagerScrubRepairs))
	}
}

// While a committed transaction waits in the overlay, its disk image is
// stale by design: raw verify treats the block as clean, and RepairBlock
// can rewrite the disk image from the overlay ahead of the checkpoint.
func TestScrubOverlayMasksAndRepairs(t *testing.T) {
	_, fb, ids := scrubStore(t, 3)
	if err := fb.StartGroupCommit(Durability{Every: 4}); err != nil {
		t.Fatal(err)
	}
	fb.HoldGroupCommit(true)
	victim := ids[1]
	img := make([]byte, scrubBS)
	for i := range img {
		img[i] = 0x5C
	}
	fb.BeginBatch()
	if err := fb.WriteBlock(victim, img); err != nil {
		t.Fatal(err)
	}
	tk, err := fb.CommitBatchAsync()
	if err != nil {
		t.Fatal(err)
	}

	rot(t, fb, victim)
	if err := fb.VerifyBlockRaw(victim); err != nil {
		t.Fatalf("overlay-resident block should verify clean, got %v", err)
	}
	fixed, err := fb.RepairBlock(victim)
	if err != nil || !fixed {
		t.Fatalf("RepairBlock = (%v, %v), want (true, nil)", fixed, err)
	}
	buf := make([]byte, scrubBS)
	if _, err := fb.f.ReadAt(buf, fb.offset(victim)); err != nil {
		t.Fatal(err)
	}
	for i := range buf {
		if buf[i] != img[i] {
			t.Fatalf("overlay repair wrote wrong image at byte %d", i)
		}
	}

	fb.HoldGroupCommit(false)
	if err := tk.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := fb.StopGroupCommit(); err != nil {
		t.Fatal(err)
	}
}

// Unrecoverable rot (no overlay image) stays quarantined even with repair
// enabled.
func TestScrubUnrepairableStaysQuarantined(t *testing.T) {
	st, fb, ids := scrubStore(t, 3)
	rot(t, fb, ids[0])
	sc, err := st.NewScrubber(ScrubConfig{Repair: true})
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := sc.RunPass(); n != 1 {
		t.Fatalf("scrub quarantined %d blocks, want 1", n)
	}
	if p := sc.Progress(); p.Repaired != 0 {
		t.Fatalf("nothing should be repairable, progress = %+v", p)
	}
}

// The background loop walks the store continuously and stops cleanly.
func TestScrubBackgroundLoop(t *testing.T) {
	st, _, _ := scrubStore(t, 16)
	sc, err := st.NewScrubber(ScrubConfig{BatchBlocks: 4, Interval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	sc.Start()
	deadline := time.Now().Add(5 * time.Second)
	for sc.Progress().Passes == 0 {
		if time.Now().After(deadline) {
			t.Fatal("background scrubber made no full pass in 5s")
		}
		time.Sleep(time.Millisecond)
	}
	sc.Stop()
	sc.Stop() // idempotent
	if sc.Progress().Scanned == 0 {
		t.Fatal("no blocks scanned")
	}
}

// Scrubbing requires a raw-verifiable backend.
func TestScrubRequiresFileBackend(t *testing.T) {
	mem := NewMemStore(256)
	if _, err := mem.NewScrubber(ScrubConfig{}); err == nil {
		t.Fatal("MemBackend store should not scrub")
	}
}
