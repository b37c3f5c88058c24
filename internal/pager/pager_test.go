package pager

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"

	"boxes/internal/faults"
)

func TestMemBackendAllocateFreeReuse(t *testing.T) {
	m := NewMemBackend(128)
	a, err := m.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if a == NilBlock || b == NilBlock || a == b {
		t.Fatalf("bad ids a=%d b=%d", a, b)
	}
	if got := m.NumBlocks(); got != 2 {
		t.Fatalf("NumBlocks = %d, want 2", got)
	}
	if err := m.Free(a); err != nil {
		t.Fatal(err)
	}
	if got := m.NumBlocks(); got != 1 {
		t.Fatalf("NumBlocks after free = %d, want 1", got)
	}
	c, err := m.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if c != a {
		t.Fatalf("freed block not reused: got %d, want %d", c, a)
	}
}

func TestMemBackendFreshBlockIsZero(t *testing.T) {
	m := NewMemBackend(64)
	id, _ := m.Allocate()
	buf := make([]byte, 64)
	for i := range buf {
		buf[i] = 0xFF
	}
	if err := m.WriteBlock(id, buf); err != nil {
		t.Fatal(err)
	}
	m.Free(id)
	id2, _ := m.Allocate()
	if id2 != id {
		t.Fatalf("expected reuse of %d, got %d", id, id2)
	}
	out := make([]byte, 64)
	if err := m.ReadBlock(id2, out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, make([]byte, 64)) {
		t.Fatal("reallocated block is not zeroed")
	}
}

func TestMemBackendErrors(t *testing.T) {
	m := NewMemBackend(64)
	buf := make([]byte, 64)
	if err := m.ReadBlock(NilBlock, buf); err == nil {
		t.Fatal("read of nil block succeeded")
	}
	if err := m.ReadBlock(99, buf); err == nil {
		t.Fatal("read of unallocated block succeeded")
	}
	id, _ := m.Allocate()
	if err := m.ReadBlock(id, make([]byte, 3)); err == nil {
		t.Fatal("short read buffer accepted")
	}
	if err := m.WriteBlock(id, make([]byte, 3)); err == nil {
		t.Fatal("short write buffer accepted")
	}
	m.Free(id)
	if err := m.ReadBlock(id, buf); err == nil {
		t.Fatal("read of freed block succeeded")
	}
}

func TestStoreCountsReadsAndWrites(t *testing.T) {
	s := NewMemStore(128)
	id, err := s.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 128)
	buf[0] = 42
	if err := s.Write(id, buf); err != nil {
		t.Fatal(err)
	}
	got, err := s.Read(id)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 42 {
		t.Fatalf("read back %d, want 42", got[0])
	}
	st := s.Stats()
	if st.Reads != 1 || st.Writes != 1 {
		t.Fatalf("stats = %v, want 1 read 1 write", st)
	}
}

func TestStoreOpPinsBlocks(t *testing.T) {
	s := NewMemStore(128)
	id, _ := s.Allocate()
	buf := make([]byte, 128)
	if err := s.Write(id, buf); err != nil {
		t.Fatal(err)
	}
	s.ResetStats()

	s.BeginOp()
	for i := 0; i < 10; i++ {
		b, err := s.Read(id)
		if err != nil {
			t.Fatal(err)
		}
		b[0]++
		if err := s.Write(id, b); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.EndOp(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Reads != 1 {
		t.Errorf("op reads = %d, want 1 (block revisits are free)", st.Reads)
	}
	if st.Writes != 1 {
		t.Errorf("op writes = %d, want 1 (dirty flush once)", st.Writes)
	}
	b, _ := s.Read(id)
	if b[0] != 10 {
		t.Errorf("final value = %d, want 10", b[0])
	}
}

func TestStoreOpFreshAllocationCostsNoRead(t *testing.T) {
	s := NewMemStore(128)
	s.BeginOp()
	id, _ := s.Allocate()
	b, err := s.Read(id)
	if err != nil {
		t.Fatal(err)
	}
	b[5] = 7
	if err := s.Write(id, b); err != nil {
		t.Fatal(err)
	}
	if err := s.EndOp(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Reads != 0 {
		t.Errorf("reads = %d, want 0 for a freshly allocated block", st.Reads)
	}
	if st.Writes != 1 {
		t.Errorf("writes = %d, want 1", st.Writes)
	}
}

func TestStoreNestedOps(t *testing.T) {
	s := NewMemStore(128)
	id, _ := s.Allocate()
	s.BeginOp()
	s.BeginOp()
	buf := make([]byte, 128)
	buf[0] = 1
	if err := s.Write(id, buf); err != nil {
		t.Fatal(err)
	}
	if err := s.EndOp(); err != nil {
		t.Fatal(err)
	}
	if s.Stats().Writes != 0 {
		t.Fatal("inner EndOp flushed; should flush only at outermost")
	}
	if err := s.EndOp(); err != nil {
		t.Fatal(err)
	}
	if s.Stats().Writes != 1 {
		t.Fatalf("writes = %d, want 1 after outer EndOp", s.Stats().Writes)
	}
}

func TestStoreFreeInsideOp(t *testing.T) {
	s := NewMemStore(128)
	id, _ := s.Allocate()
	if err := s.Write(id, make([]byte, 128)); err != nil {
		t.Fatal(err)
	}
	s.ResetStats()
	s.BeginOp()
	if _, err := s.Read(id); err != nil {
		t.Fatal(err)
	}
	if err := s.Write(id, make([]byte, 128)); err != nil {
		t.Fatal(err)
	}
	if err := s.Free(id); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Read(id); err == nil {
		t.Fatal("read of freed block inside op succeeded")
	}
	if err := s.EndOp(); err != nil {
		t.Fatal(err)
	}
	if w := s.Stats().Writes; w != 0 {
		t.Fatalf("writes = %d, want 0 (freed dirty block must not flush)", w)
	}
}

func TestStoreCacheMakesRereadsFree(t *testing.T) {
	s := NewMemStore(128, WithCache(8))
	id, _ := s.Allocate()
	if err := s.Write(id, make([]byte, 128)); err != nil {
		t.Fatal(err)
	}
	s.ResetStats()
	for i := 0; i < 5; i++ {
		if _, err := s.Read(id); err != nil {
			t.Fatal(err)
		}
	}
	if r := s.Stats().Reads; r != 0 {
		t.Fatalf("reads = %d, want 0 (block cached by write)", r)
	}
}

func TestLRUCacheEviction(t *testing.T) {
	c := newLRUCache(2)
	c.put(1, []byte{1})
	c.put(2, []byte{2})
	if _, ok := c.get(1); !ok {
		t.Fatal("block 1 missing")
	}
	c.put(3, []byte{3}) // evicts 2 (least recently used)
	if _, ok := c.get(2); ok {
		t.Fatal("block 2 should have been evicted")
	}
	if _, ok := c.get(1); !ok {
		t.Fatal("block 1 should remain")
	}
	if _, ok := c.get(3); !ok {
		t.Fatal("block 3 should be present")
	}
	if c.len() != 2 {
		t.Fatalf("len = %d, want 2", c.len())
	}
	c.drop(1)
	if _, ok := c.get(1); ok {
		t.Fatal("dropped block still present")
	}
}

func TestFileBackendRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.box")
	fb, err := CreateFile(path, 256)
	if err != nil {
		t.Fatal(err)
	}
	a, err := fb.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	b, err := fb.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	bufA := bytes.Repeat([]byte{0xAA}, 256)
	bufB := bytes.Repeat([]byte{0xBB}, 256)
	if err := fb.WriteBlock(a, bufA); err != nil {
		t.Fatal(err)
	}
	if err := fb.WriteBlock(b, bufB); err != nil {
		t.Fatal(err)
	}
	if err := fb.Free(a); err != nil {
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
	if fb2.BlockSize() != 256 {
		t.Fatalf("block size = %d, want 256", fb2.BlockSize())
	}
	if fb2.NumBlocks() != 1 {
		t.Fatalf("NumBlocks = %d, want 1", fb2.NumBlocks())
	}
	out := make([]byte, 256)
	if err := fb2.ReadBlock(b, out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, bufB) {
		t.Fatal("block B corrupted across close/open")
	}
	// The freed block must be reused.
	c, err := fb2.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if c != a {
		t.Fatalf("free list not persisted: got %d, want %d", c, a)
	}
	if err := fb2.ReadBlock(c, out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, make([]byte, 256)) {
		t.Fatal("reallocated file block is not zeroed")
	}
}

func TestOpenFileRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "junk")
	if err := writeJunk(path); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFile(path); err == nil {
		t.Fatal("OpenFile accepted a non-store file")
	}
}

func writeJunk(path string) error {
	fb, err := CreateFile(path, 128)
	if err != nil {
		return err
	}
	if err := fb.Close(); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	if _, err := f.WriteAt([]byte("NOTMAGIC"), 0); err != nil {
		return err
	}
	return f.Close()
}

// TestStoreWriteThenReadQuick property: any sequence of (block, byte)
// writes is readable back, with the last write winning.
func TestStoreWriteThenReadQuick(t *testing.T) {
	f := func(vals []byte) bool {
		s := NewMemStore(32)
		ids := make([]BlockID, 4)
		for i := range ids {
			id, err := s.Allocate()
			if err != nil {
				return false
			}
			ids[i] = id
		}
		want := make(map[BlockID]byte)
		for i, v := range vals {
			id := ids[i%len(ids)]
			buf := make([]byte, 32)
			buf[0] = v
			if err := s.Write(id, buf); err != nil {
				return false
			}
			want[id] = v
		}
		for id, v := range want {
			got, err := s.Read(id)
			if err != nil || got[0] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestStatsSub(t *testing.T) {
	a := IOStats{Reads: 10, Writes: 7}
	b := IOStats{Reads: 4, Writes: 2}
	d := a.Sub(b)
	if d.Reads != 6 || d.Writes != 5 || d.Total() != 11 {
		t.Fatalf("Sub = %v", d)
	}
}

// A transient write fault fails its call without latching the store's
// write fault; a permanent one latches it, and the latch stays after the
// device heals until ClearWriteFault.
func TestWriteFaultLatchIsSticky(t *testing.T) {
	sched := faults.NewSchedule(1)
	st := NewStore(NewFaultBackend(NewMemBackend(512), sched))
	id, err := st.Allocate()
	if err != nil {
		t.Fatalf("allocate: %v", err)
	}

	sched.ArmFailNext(1)
	err = st.Write(id, make([]byte, 512))
	if !errors.Is(err, ErrInjected) || faults.Classify(err) != faults.Transient {
		t.Fatalf("transient write: err = %v, want an injected transient", err)
	}
	if st.WriteFault() != nil {
		t.Fatalf("a transient fault latched the write fault: %v", st.WriteFault())
	}

	sched.FailEveryKth(1, faults.ModePermanent, faults.OpWrite)
	err = st.Write(id, make([]byte, 512))
	if faults.Classify(err) != faults.Permanent {
		t.Fatalf("permanent write: err = %v, want a permanent fault", err)
	}
	if st.WriteFault() == nil {
		t.Fatalf("a permanent write fault must latch")
	}

	sched.FailEveryKth(0, faults.ModePermanent)
	if err := st.Write(id, make([]byte, 512)); err != nil {
		t.Fatalf("write after heal: %v", err)
	}
	if st.WriteFault() == nil {
		t.Fatalf("write fault latch must be sticky")
	}
	st.ClearWriteFault()
	if st.WriteFault() != nil {
		t.Fatalf("ClearWriteFault did not clear")
	}
}
