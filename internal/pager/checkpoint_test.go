package pager

import (
	"bytes"
	"encoding/binary"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"boxes/internal/obs"
)

// TestAcknowledgedImagesAcrossCheckpoint: every reader of committed state —
// ReadBlock and BackupTo — sees an acknowledged image while only the log and
// the overlay hold it, and the same image once a checkpoint has moved it
// into the data file and emptied the overlay. On both commit paths.
func TestAcknowledgedImagesAcrossCheckpoint(t *testing.T) {
	for _, group := range []bool{false, true} {
		dir := t.TempDir()
		path := filepath.Join(dir, "ack.box")
		scriptSetup(t, path, FileOptions{})
		fb, err := OpenFile(path)
		if err != nil {
			t.Fatal(err)
		}
		st := NewStore(fb)
		if group {
			if err := fb.StartGroupCommit(Durability{Every: 4}); err != nil {
				t.Fatal(err)
			}
		}
		for i := 1; i <= scriptOps; i++ {
			if err := scriptOp(st, i); err != nil {
				t.Fatal(err)
			}
			if err := st.TakeTicket().Wait(); err != nil {
				t.Fatal(err)
			}
		}
		want := captureState(t, fb)
		if want.counter != scriptOps {
			t.Fatalf("group=%v: counter %d before the checkpoint, want %d", group, want.counter, scriptOps)
		}
		check := func(when string, overlayBlocks int) {
			t.Helper()
			if n := fb.GroupQueueStats().OverlayBlocks; n != overlayBlocks {
				t.Fatalf("group=%v, %s: %d overlay blocks, want %d", group, when, n, overlayBlocks)
			}
			if got := captureState(t, fb); !statesEqual(got, want) {
				t.Fatalf("group=%v, %s: reads differ from the acknowledged state", group, when)
			}
			bak := filepath.Join(dir, when+".bak")
			if err := fb.BackupTo(bak); err != nil {
				t.Fatalf("group=%v, %s: backup: %v", group, when, err)
			}
			b, err := OpenFile(bak)
			if err != nil {
				t.Fatal(err)
			}
			defer b.Close()
			if got := captureState(t, b); !statesEqual(got, want) {
				t.Fatalf("group=%v, %s: backup differs from the acknowledged state", group, when)
			}
		}
		check("logged", 5)
		if err := fb.Sync(); err != nil {
			t.Fatal(err)
		}
		check("checkpointed", 0)
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCheckpointUnderConcurrentReaders runs the committer through several
// bound-triggered checkpoints while readers, excluded only for the moment a
// transaction is staged and enqueued (core.Store's lock discipline), keep
// reading every block: each read must be a whole image of one version, and
// versions must never run backwards — a reader that went to the file before
// the checkpoint had written the block, or lost an image enqueued after the
// checkpoint took its list, would show an older one.
func TestCheckpointUnderConcurrentReaders(t *testing.T) {
	const (
		bs     = 8192
		blocks = 8
		txns   = 4 * WALCheckpointBytes / (blocks * bs) // four checkpoints' worth of log
	)
	path := filepath.Join(t.TempDir(), "readers.box")
	fb, err := CreateFileOpts(path, FileOptions{BlockSize: bs, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	fb.BeginBatch()
	for i := 0; i < blocks; i++ {
		if _, err := fb.Allocate(); err != nil {
			t.Fatal(err)
		}
	}
	if err := fb.CommitBatch(); err != nil {
		t.Fatal(err)
	}
	if err := fb.StartGroupCommit(Durability{Every: 4}); err != nil {
		t.Fatal(err)
	}

	var lock sync.RWMutex
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			buf := make([]byte, bs)
			var seen [blocks + 1]uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				for id := BlockID(1); id <= blocks; id++ {
					lock.RLock()
					err := fb.ReadBlock(id, buf)
					lock.RUnlock()
					if err != nil {
						t.Errorf("read of block %d: %v", id, err)
						return
					}
					v := binary.LittleEndian.Uint64(buf)
					if !bytes.Equal(buf[8:], bytes.Repeat([]byte{byte(v)}, bs-8)) {
						t.Errorf("block %d: torn image of version %d", id, v)
						return
					}
					if v < seen[id] {
						t.Errorf("block %d went back from version %d to %d", id, seen[id], v)
						return
					}
					seen[id] = v
				}
			}
		}()
	}

	img := make([]byte, bs)
	var tickets []*CommitTicket
	for v := uint64(1); v <= txns; v++ {
		binary.LittleEndian.PutUint64(img, v)
		copy(img[8:], bytes.Repeat([]byte{byte(v)}, bs-8))
		lock.Lock()
		fb.BeginBatch()
		for id := BlockID(1); id <= blocks; id++ {
			if err := fb.WriteBlock(id, img); err != nil {
				t.Fatal(err)
			}
		}
		tk, err := fb.CommitBatchAsync()
		lock.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		// Stay a few transactions ahead of the committer, so checkpoints
		// run with images enqueued but not yet logged.
		if tickets = append(tickets, tk); len(tickets) > 3 {
			if err := tickets[0].Wait(); err != nil {
				t.Fatal(err)
			}
			tickets = tickets[1:]
		}
	}
	for _, tk := range tickets {
		if err := tk.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	readers.Wait()
	if ws := fb.WALStats(); ws.Checkpoints < 3 {
		t.Fatalf("only %d checkpoints ran under the readers", ws.Checkpoints)
	}
	if err := fb.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	for id := BlockID(1); id <= blocks; id++ {
		if err := rec.ReadBlock(id, img); err != nil {
			t.Fatal(err)
		}
		if v := binary.LittleEndian.Uint64(img); v != txns {
			t.Fatalf("block %d closed at version %d, want %d", id, v, txns)
		}
	}
}

// TestCheckpointObservability: a checkpoint counts itself, times itself as
// the "wal" row's checkpoint phase with the apply inside it, and traces as
// one committer-lane span carrying the commits it covered whose apply child
// carries the images it wrote.
func TestCheckpointObservability(t *testing.T) {
	path := filepath.Join(t.TempDir(), "obs.box")
	scriptSetup(t, path, FileOptions{})
	fb, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	st := NewStore(fb, WithObserver(reg))
	defer st.Close()
	reg.Tracer().Start(obs.TraceOptions{})
	if _, _, err := scriptRun(st, fb, afterOps3And7); err != nil {
		t.Fatal(err)
	}
	if err := fb.Sync(); err != nil {
		t.Fatal(err)
	}

	if n := reg.Counter(obs.CtrPagerCheckpoints); n != 3 {
		t.Fatalf("pager_checkpoints_total = %d, want 3", n)
	}
	phases := map[string]uint64{}
	for _, ph := range reg.SpansDebug().Phases {
		if ph.Op == "wal" {
			phases[ph.Phase] = ph.Count
		}
	}
	if phases["checkpoint"] != 3 || phases["apply"] != 3 || phases["fsync"] != scriptOps {
		t.Fatalf("wal-row phase counts %v, want 3 checkpoints, 3 applies, %d fsyncs", phases, scriptOps)
	}
	var commits, images []int
	byID := map[uint64]obs.SpanRecord{}
	for _, sp := range reg.Tracer().Spans() {
		byID[sp.ID] = sp
	}
	for _, sp := range byID {
		switch sp.Name {
		case "checkpoint":
			commits = append(commits, sp.N)
		case "apply":
			if byID[sp.Parent].Name != "checkpoint" || sp.Lane != byID[sp.Parent].Lane {
				t.Fatalf("apply span %+v is not a same-lane child of a checkpoint span", sp)
			}
			images = append(images, sp.N)
		}
	}
	slices.Sort(commits)
	slices.Sort(images)
	if !slices.Equal(commits, []int{3, 3, 4}) || !slices.Equal(images, []int{4, 4, 5}) {
		t.Fatalf("checkpoint spans covered %v commits and applied %v images, want [3 3 4] and [4 4 5]", commits, images)
	}
}
