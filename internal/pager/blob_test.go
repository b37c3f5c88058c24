package pager

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"testing/quick"
	"time"

	"boxes/internal/faults"
)

func TestBlobRoundTripSizes(t *testing.T) {
	s := NewMemStore(128) // payload 116 per block
	sizes := []int{0, 1, 115, 116, 117, 500, 5000}
	for _, n := range sizes {
		data := make([]byte, n)
		for i := range data {
			data[i] = byte(i * 7)
		}
		head, err := s.WriteBlob(data)
		if err != nil {
			t.Fatalf("size %d: %v", n, err)
		}
		got, err := s.ReadBlob(head)
		if err != nil {
			t.Fatalf("size %d: %v", n, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("size %d: round trip mismatch (got %d bytes)", n, len(got))
		}
		if err := s.FreeBlob(head); err != nil {
			t.Fatalf("size %d: free: %v", n, err)
		}
	}
}

func TestFreeBlobReleasesAllBlocks(t *testing.T) {
	s := NewMemStore(128)
	before := s.NumBlocks()
	head, err := s.WriteBlob(make([]byte, 1000))
	if err != nil {
		t.Fatal(err)
	}
	if s.NumBlocks() == before {
		t.Fatal("blob allocated no blocks")
	}
	if err := s.FreeBlob(head); err != nil {
		t.Fatal(err)
	}
	if got := s.NumBlocks(); got != before {
		t.Fatalf("blocks = %d after free, want %d", got, before)
	}
}

func TestMemBackendMetaRoot(t *testing.T) {
	m := NewMemBackend(128)
	root, err := m.MetaRoot()
	if err != nil || root != NilBlock {
		t.Fatalf("fresh meta root = %d, %v", root, err)
	}
	if err := m.SetMetaRoot(42); err != nil {
		t.Fatal(err)
	}
	root, err = m.MetaRoot()
	if err != nil || root != 42 {
		t.Fatalf("meta root = %d, %v", root, err)
	}
}

func TestFileBackendMetaRootPersists(t *testing.T) {
	path := filepath.Join(t.TempDir(), "meta.box")
	fb, err := CreateFile(path, 256)
	if err != nil {
		t.Fatal(err)
	}
	id, err := fb.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if err := fb.SetMetaRoot(id); err != nil {
		t.Fatal(err)
	}
	if err := fb.Close(); err != nil {
		t.Fatal(err)
	}
	fb2, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fb2.Close()
	root, err := fb2.MetaRoot()
	if err != nil || root != id {
		t.Fatalf("meta root after reopen = %d, %v (want %d)", root, err, id)
	}
}

func TestQuickBlobRoundTrip(t *testing.T) {
	s := NewMemStore(64)
	f := func(data []byte) bool {
		head, err := s.WriteBlob(data)
		if err != nil {
			return false
		}
		got, err := s.ReadBlob(head)
		if err != nil {
			return false
		}
		ok := bytes.Equal(got, data) || (len(data) == 0 && len(got) == 0)
		return s.FreeBlob(head) == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// cyclicBlob links two fresh blocks of s into a blob chain whose second
// block points back at the first, as a corrupted metadata chain can, and
// returns its head. Each block claims one payload byte, so a walk that
// misses the cycle costs time rather than memory.
func cyclicBlob(t *testing.T, s *Store) BlockID {
	t.Helper()
	var ids [2]BlockID
	for i := range ids {
		id, err := s.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	for i, id := range ids {
		buf := make([]byte, s.BlockSize())
		binary.LittleEndian.PutUint64(buf[0:8], uint64(ids[1-i]))
		binary.LittleEndian.PutUint32(buf[8:12], 1)
		if err := s.Write(id, buf); err != nil {
			t.Fatal(err)
		}
	}
	return ids[0]
}

// TestBlobChainCycleIsCorrupt: BlobBlocks and FreeBlob each report a
// two-block cycle as ErrCorrupt within the allocated-block bound, and
// FreeBlob frees nothing of a chain it cannot walk.
func TestBlobChainCycleIsCorrupt(t *testing.T) {
	s := NewMemStore(512)
	head := cyclicBlob(t, s)
	start := time.Now()
	if _, err := s.BlobBlocks(head); !errors.Is(err, ErrCorrupt) {
		t.Errorf("BlobBlocks on a cycle: err = %v, want ErrCorrupt", err)
	}
	before := s.NumBlocks()
	if err := s.FreeBlob(head); !errors.Is(err, ErrCorrupt) {
		t.Errorf("FreeBlob on a cycle: err = %v, want ErrCorrupt", err)
	}
	if got := s.NumBlocks(); got != before {
		t.Errorf("FreeBlob on a cycle left %d blocks allocated, want all %d", got, before)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("cycle detection took %v", d)
	}
}

// TestReadBlobCycleIsCorrupt: ReadBlob reports a two-block cycle as
// ErrCorrupt in well under a second. The read runs in a child process with
// a deadline, so a walk that spins or exhausts memory fails this test
// instead of hanging or killing the test binary.
func TestReadBlobCycleIsCorrupt(t *testing.T) {
	if os.Getenv("PAGER_CYCLIC_BLOB") == "1" {
		s := NewMemStore(512)
		head := cyclicBlob(t, s)
		start := time.Now()
		if _, err := s.ReadBlob(head); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("ReadBlob on a cycle: err = %v, want ErrCorrupt", err)
		}
		if d := time.Since(start); d > time.Second {
			t.Fatalf("cycle detection took %v", d)
		}
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], "-test.run=^TestReadBlobCycleIsCorrupt$")
	cmd.Env = append(os.Environ(), "PAGER_CYCLIC_BLOB=1")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("child read: %v\n%s", err, out)
	}
}

// TestBlobWalkKeepsFaultClasses: a read fault injected on a blob chain's
// head or on a block reached through its next pointer comes back in its
// own class, transient or permanent, never relabeled ErrCorrupt (only a
// pointer the backend holds no block for is corruption).
func TestBlobWalkKeepsFaultClasses(t *testing.T) {
	for _, c := range []struct {
		name  string
		arm   func(*faults.Schedule)
		class faults.Class
	}{
		{"head/transient", func(s *faults.Schedule) { s.ArmFailNext(1) }, faults.Transient},
		{"next/transient", func(s *faults.Schedule) { s.FailEveryKth(2, faults.ModeTransient, faults.OpRead) }, faults.Transient},
		{"next/permanent", func(s *faults.Schedule) { s.FailEveryKth(2, faults.ModePermanent, faults.OpRead) }, faults.Permanent},
	} {
		t.Run(c.name, func(t *testing.T) {
			sched := faults.NewSchedule(1)
			s := NewStore(NewFaultBackend(NewMemBackend(512), sched))
			head, err := s.WriteBlob(bytes.Repeat([]byte{7}, 3*512))
			if err != nil {
				t.Fatal(err)
			}
			c.arm(sched)
			_, err = s.ReadBlob(head)
			if !errors.Is(err, ErrInjected) || errors.Is(err, ErrCorrupt) || faults.Classify(err) != c.class {
				t.Fatalf("ReadBlob: err = %v (class %v), want an injected %v fault, not ErrCorrupt", err, faults.Classify(err), c.class)
			}
		})
	}
}
