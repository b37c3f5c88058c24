package pager

import (
	"bytes"
	"path/filepath"
	"testing"
)

// Frame poisoning is on for every test of this package: a test that reads
// a frame after releasing it sees 0xDB, not stale-but-plausible bytes.
func init() { HookPoisonFrames = true }

func filled(size int, v byte) []byte { return bytes.Repeat([]byte{v}, size) }

// storeWithBlocks returns a store holding n blocks, block i filled with
// byte i+1, and their ids.
func storeWithBlocks(t testing.TB, s *Store, n int) []BlockID {
	t.Helper()
	ids := make([]BlockID, n)
	for i := range ids {
		id, err := s.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Write(id, filled(s.BlockSize(), byte(i+1))); err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	return ids
}

// A view outside an operation is the caller's until Release; the frame then
// goes back to the free list (poisoned here) and serves the next view, so a
// steady stream of views allocates nothing.
func TestViewReleaseRecyclesFrames(t *testing.T) {
	s := NewMemStore(128)
	ids := storeWithBlocks(t, s, 2)
	a, err := s.View(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.View(ids[1])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, filled(128, 1)) || !bytes.Equal(b, filled(128, 2)) {
		t.Fatal("two live views do not hold their own blocks")
	}
	s.Release(a)
	if !bytes.Equal(a, filled(128, 0xDB)) {
		t.Fatal("released frame was not poisoned")
	}
	if !bytes.Equal(b, filled(128, 2)) {
		t.Fatal("releasing one view disturbed another")
	}
	c, err := s.View(ids[1])
	if err != nil {
		t.Fatal(err)
	}
	if &c[0] != &a[0] {
		t.Fatal("released frame was not reused by the next view")
	}
	s.Release(b)
	s.Release(c)
	if n := testing.AllocsPerRun(100, func() {
		v, err := s.View(ids[0])
		if err != nil || v[0] != 1 {
			t.Fatal(v[0], err)
		}
		s.Release(v)
	}); n != 0 {
		t.Fatalf("View+Release allocates %.1f times per call", n)
	}
	if st := s.Stats(); st.Reads != 3+101 {
		t.Fatalf("views counted %d reads, want every one counted", st.Reads)
	}
}

// Inside an operation a view is the pinned frame: Release does nothing, a
// second view of the block is the same frame and costs no read, and the
// frame dies (poisoned) when the operation ends.
func TestViewInsideOpIsPinnedUntilEndOp(t *testing.T) {
	s := NewMemStore(128)
	id := storeWithBlocks(t, s, 1)[0]
	s.ResetStats()
	s.BeginOp()
	v, err := s.View(id)
	if err != nil {
		t.Fatal(err)
	}
	s.Release(v)
	if v[0] != 1 {
		t.Fatal("Release inside an operation gave the pinned frame away")
	}
	w, err := s.Read(id)
	if err != nil {
		t.Fatal(err)
	}
	if &w[0] != &v[0] || s.Stats().Reads != 1 {
		t.Fatalf("re-access inside the op: same frame %v, reads %d", &w[0] == &v[0], s.Stats().Reads)
	}
	if err := s.EndOp(); err != nil {
		t.Fatal(err)
	}
	if v[0] != 0xDB {
		t.Fatal("pinned frame outlived its operation unpoisoned")
	}
	// A read-only operation allocates nothing: the pin map and the frame
	// are both reused.
	if n := testing.AllocsPerRun(100, func() {
		s.BeginOp()
		if _, err := s.View(id); err != nil {
			t.Fatal(err)
		}
		s.EndOp()
	}); n != 0 {
		t.Fatalf("pinned read-only op allocates %.1f times", n)
	}
}

// Read outside an operation still returns memory the caller owns: it may be
// mutated and written back, and it survives later traffic.
func TestReadOutsideOpIsCallerOwned(t *testing.T) {
	for _, cache := range []int{0, 4} {
		s := NewMemStore(128, WithCache(cache))
		ids := storeWithBlocks(t, s, 2)
		buf, err := s.Read(ids[0])
		if err != nil {
			t.Fatal(err)
		}
		buf[0] = 99
		for i := 0; i < 3; i++ {
			v, err := s.View(ids[1])
			if err != nil {
				t.Fatal(err)
			}
			s.Release(v)
		}
		if buf[0] != 99 || buf[1] != 1 {
			t.Fatalf("cache=%d: caller-owned copy changed under later views: % x", cache, buf[:2])
		}
		again, err := s.Read(ids[0])
		if err != nil {
			t.Fatal(err)
		}
		if again[0] != 1 {
			t.Fatalf("cache=%d: mutating a Read result leaked into the store", cache)
		}
	}
}

// With the LRU on, a view is the resident frame. A put over that block —
// write-through, or an operation's flush — replaces the frame, so the
// holder keeps seeing the bytes it was handed; and a pin inside an
// operation is a copy, so a writer scribbling on it never touches the
// resident image.
func TestViewOfResidentFrameSurvivesPut(t *testing.T) {
	s := NewMemStore(128, WithCache(4))
	id := storeWithBlocks(t, s, 1)[0]
	held, err := s.View(id)
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := s.View(id); &again[0] != &held[0] {
		t.Fatal("LRU hit did not hand out the resident frame")
	}
	if err := s.Write(id, filled(128, 7)); err != nil { // write-through put
		t.Fatal(err)
	}
	s.BeginOp()
	pinned, err := s.Read(id)
	if err != nil {
		t.Fatal(err)
	}
	resident, _ := s.cache.get(id)
	if &pinned[0] == &resident[0] {
		t.Fatal("operation pinned the resident frame instead of a copy")
	}
	pinned[0] = 8
	if resident[0] != 7 {
		t.Fatal("writer's scribble reached the resident frame before Write/EndOp")
	}
	if err := s.Write(id, pinned); err != nil {
		t.Fatal(err)
	}
	if err := s.EndOp(); err != nil { // flush put: the pinned frame goes resident
		t.Fatal(err)
	}
	s.Release(held)
	if !bytes.Equal(held, filled(128, 1)) {
		t.Fatalf("held view changed under two puts: % x", held[:4])
	}
	now, err := s.View(id)
	if err != nil {
		t.Fatal(err)
	}
	if now[0] != 8 || now[1] != 7 || &now[0] != &pinned[0] {
		t.Fatalf("resident frame after the flush: % x (flushed frame adopted: %v)", now[:2], &now[0] == &pinned[0])
	}
}

// A failed fetch hands the frame back and surfaces the backend's error
// through View exactly as through Read.
func TestViewErrorsMatchRead(t *testing.T) {
	s := NewMemStore(128)
	id := storeWithBlocks(t, s, 1)[0]
	_, verr := s.View(id + 100)
	_, rerr := s.Read(id + 100)
	if verr == nil || rerr == nil || verr.Error() != rerr.Error() {
		t.Fatalf("unallocated block: View %v, Read %v", verr, rerr)
	}
	if _, err := s.View(NilBlock); err == nil {
		t.Fatal("view of the nil block succeeded")
	}
	s.Close()
	if _, err := s.View(id); err != ErrClosed {
		t.Fatalf("view on a closed store: %v", err)
	}
}

// benchView times View+Release beside the copying Read over 32 blocks of s.
func benchView(b *testing.B, s *Store) {
	HookPoisonFrames = false
	b.Cleanup(func() { HookPoisonFrames = true; s.Close() })
	ids := storeWithBlocks(b, s, 32)
	b.Run("view", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			v, err := s.View(ids[i%len(ids)])
			if err != nil {
				b.Fatal(err)
			}
			s.Release(v)
		}
	})
	b.Run("read", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := s.Read(ids[i%len(ids)]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkStoreViewHit: a MemBackend store behind a warm LRU.
func BenchmarkStoreViewHit(b *testing.B) {
	benchView(b, NewMemStore(0, WithCache(64)))
}

// BenchmarkStoreViewMiss: a checksum-verifying FileBackend store, no cache.
func BenchmarkStoreViewMiss(b *testing.B) {
	fb, err := CreateFileOpts(filepath.Join(b.TempDir(), "bench.box"), FileOptions{NoSync: true})
	if err != nil {
		b.Fatal(err)
	}
	benchView(b, NewStore(fb))
}

// TestFileReadAllocations pins the file-backed read path: a verified block
// read through View allocates nothing (the CRC entry no longer escapes),
// and Read adds exactly its caller-owned copy.
func TestFileReadAllocations(t *testing.T) {
	fb, err := CreateFileOpts(filepath.Join(t.TempDir(), "alloc.box"), FileOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	s := NewStore(fb)
	defer s.Close()
	ids := storeWithBlocks(t, s, 4)
	i := 0
	if n := testing.AllocsPerRun(100, func() {
		v, err := s.View(ids[i%len(ids)])
		if err != nil || v[0] != byte(i%len(ids)+1) {
			t.Fatal(err)
		}
		s.Release(v)
		i++
	}); n != 0 {
		t.Errorf("file-backed View allocates %.1f times per block", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := s.Read(ids[i%len(ids)]); err != nil {
			t.Fatal(err)
		}
		i++
	}); n != 1 {
		t.Errorf("file-backed Read allocates %.1f times per block, want its one copy", n)
	}
}

// A ReadOp counts each block once however often it views it — past its
// in-place pins too — and keeps every frame valid until End, after which
// the frames are back on the (poisoning) free list. Begun inside an
// exclusive operation it reads through that operation's pins, staged
// writes included, and counts nothing the operation already fetched.
func TestReadOpPinsEachBlockOnce(t *testing.T) {
	s := NewMemStore(128)
	ids := storeWithBlocks(t, s, 2*readPins)
	before := s.Stats()
	r := s.BeginRead()
	var frames [][]byte
	for pass := 0; pass < 2; pass++ {
		for i, id := range ids {
			buf, err := r.View(id)
			if err != nil {
				t.Fatal(err)
			}
			if buf[0] != byte(i+1) {
				t.Fatalf("pass %d: block %d reads %#x, want %#x", pass, id, buf[0], i+1)
			}
			if pass == 0 {
				frames = append(frames, buf)
			} else if &buf[0] != &frames[i][0] {
				t.Fatalf("block %d: a revisit got a different frame", id)
			}
		}
	}
	if got := s.Stats().Sub(before).Reads; got != uint64(len(ids)) {
		t.Fatalf("%d reads for %d blocks viewed twice, want one each", got, len(ids))
	}
	r.End()
	if frames[0][0] != 0xDB || frames[len(frames)-1][0] != 0xDB {
		t.Fatal("End did not return the frames to the free list")
	}

	s.BeginOp()
	if err := s.Write(ids[0], filled(s.BlockSize(), 0x77)); err != nil {
		t.Fatal(err)
	}
	before = s.Stats()
	r = s.BeginRead()
	buf, err := r.View(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0x77 {
		t.Fatalf("a read op inside an operation reads %#x, want the staged 0x77", buf[0])
	}
	r.End()
	if got := s.Stats().Sub(before).Reads; got != 0 {
		t.Fatalf("reading a staged block counted %d reads", got)
	}
	if err := s.EndOp(); err != nil {
		t.Fatal(err)
	}
}
