package lidf

import (
	"encoding/binary"
	"errors"
	"os"
	"os/exec"
	"testing"

	"boxes/internal/order"
	"boxes/internal/pager"
)

func TestMetaRoundTrip(t *testing.T) {
	store := pager.NewMemStore(256)
	f, err := New(store, 8)
	if err != nil {
		t.Fatal(err)
	}
	var lids []order.LID
	for i := 0; i < 40; i++ {
		lid, err := f.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		if err := f.SetU64(lid, uint64(1000+i)); err != nil {
			t.Fatal(err)
		}
		lids = append(lids, lid)
	}
	for _, lid := range lids[10:20] {
		if err := f.Free(lid); err != nil {
			t.Fatal(err)
		}
	}
	meta := f.MarshalMeta()

	// A fresh File over the same store, restored from metadata, must see
	// identical state.
	f2, err := New(store, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := f2.RestoreMeta(meta); err != nil {
		t.Fatal(err)
	}
	if f2.Count() != f.Count() || f2.Blocks() != f.Blocks() {
		t.Fatalf("count/blocks = %d/%d, want %d/%d", f2.Count(), f2.Blocks(), f.Count(), f.Blocks())
	}
	for i, lid := range lids {
		if i >= 10 && i < 20 {
			if _, err := f2.Get(lid); err == nil {
				t.Fatalf("freed lid %d readable after restore", lid)
			}
			continue
		}
		v, err := f2.GetU64(lid)
		if err != nil {
			t.Fatal(err)
		}
		if v != uint64(1000+i) {
			t.Fatalf("lid %d = %d", lid, v)
		}
	}
	// Free-list continuity: new allocations reuse the freed range.
	lid, err := f2.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if lid < lids[10] || lid > lids[19] {
		t.Fatalf("alloc %d did not reuse the persisted free list", lid)
	}
}

func TestRestoreMetaRejectsWrongPayload(t *testing.T) {
	store := pager.NewMemStore(256)
	f, err := New(store, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Alloc(); err != nil {
		t.Fatal(err)
	}
	meta := f.MarshalMeta()
	f2, err := New(store, 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := f2.RestoreMeta(meta); err == nil {
		t.Fatal("payload-size mismatch accepted")
	}
}

// TestRestoreMetaBoundsExtentCount feeds RestoreMeta a well-formed 32-byte
// header whose extent count is 0xFFFFFFFF with no extents after it: the
// count must be refused as corrupt before anything is allocated for it. The
// restore runs in a child process, so an unbounded allocation fails this
// test instead of killing the test binary.
func TestRestoreMetaBoundsExtentCount(t *testing.T) {
	if os.Getenv("LIDF_HOSTILE_EXTENT_COUNT") == "1" {
		f, err := New(pager.NewMemStore(256), 8)
		if err != nil {
			t.Fatal(err)
		}
		blob := binary.LittleEndian.AppendUint32(nil, 8) // payload size
		blob = append(blob, make([]byte, 24)...)         // next, free head, count
		blob = binary.LittleEndian.AppendUint32(blob, 0xFFFFFFFF)
		if err := f.RestoreMeta(blob); !errors.Is(err, pager.ErrCorrupt) {
			t.Fatalf("extent count 0xFFFFFFFF in %d bytes: err = %v, want ErrCorrupt", len(blob), err)
		}
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestRestoreMetaBoundsExtentCount$")
	cmd.Env = append(os.Environ(), "LIDF_HOSTILE_EXTENT_COUNT=1")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("child restore: %v\n%s", err, out)
	}
}
