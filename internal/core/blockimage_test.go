package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"testing"

	"boxes/internal/order"
	"boxes/internal/pager"
	"boxes/internal/xmlgen"
)

// highWater is a MemBackend that remembers the largest block id it ever
// handed out, so a test can visit every block without knowing the backend's
// internals (freed ids are reused, so the high-water mark bounds them all).
type highWater struct {
	*pager.MemBackend
	max pager.BlockID
}

func (h *highWater) Allocate() (pager.BlockID, error) {
	id, err := h.MemBackend.Allocate()
	if err == nil && id > h.max {
		h.max = id
	}
	return id, err
}

// blockImageDigest runs a fixed history against scheme opts in memory and
// returns the SHA-256 of every readable block's id and bytes, in id order:
// a seeded XMark of 5,000 elements, then 6,000 operations at random anchors
// (seed 7), one in five a DeleteElement and the rest InsertElementBefore.
func blockImageDigest(t *testing.T, opts Options) string {
	t.Helper()
	be := &highWater{MemBackend: pager.NewMemBackend(pager.DefaultBlockSize)}
	opts.Backend = be
	st, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	doc, err := st.Load(xmlgen.XMark(5000, 1))
	if err != nil {
		t.Fatal(err)
	}
	live := append([]order.ElemLIDs(nil), doc.Elems...)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 6000; i++ {
		if rng.Intn(5) == 0 && len(live) > 1 {
			j := 1 + rng.Intn(len(live)-1) // never the document element
			if err := st.DeleteElement(live[j]); err != nil {
				t.Fatalf("op %d: delete: %v", i, err)
			}
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
			continue
		}
		e := live[rng.Intn(len(live))]
		anchor := e.Start
		if rng.Intn(2) == 0 {
			anchor = e.End
		}
		ne, err := st.InsertElementBefore(anchor)
		if err != nil {
			t.Fatalf("op %d: insert: %v", i, err)
		}
		live = append(live, ne)
	}
	if err := st.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	buf := make([]byte, pager.DefaultBlockSize)
	var id [8]byte
	for blk := pager.BlockID(1); blk <= be.max; blk++ {
		if be.ReadBlock(blk, buf) != nil {
			continue // freed
		}
		binary.LittleEndian.PutUint64(id[:], uint64(blk))
		h.Write(id[:])
		h.Write(buf)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestBlockImagesGolden pins the exact bytes every BOX scheme leaves in its
// blocks after a mixed insert/delete history. A refactor of the block
// codecs or of how writers reach their frames must leave every digest
// where it is; a change that means to alter the on-disk image re-pins it
// and says so.
func TestBlockImagesGolden(t *testing.T) {
	want := map[string]string{
		"wbox":   "1a102ffc4cfc42052b61f0b501889576235e518b309ba8a3a121841673323d66",
		"wbox-o": "628394286691d6fff5c0f247009df7b29e1e7de768e8c3119e03e89536c10f68",
		"bbox":   "5b27421105dcd756f6efc89b23a586fbc1c9f71144d5c3938ab6605d017c088b",
		"bbox-o": "0032cb8416f028c727414bce2395e518b57c24b365f81c760a272a4a2d76ee40",
	}
	for _, sc := range lookupSchemes[:4] {
		t.Run(sc.name, func(t *testing.T) {
			t.Parallel()
			if got := blockImageDigest(t, sc.opts); got != want[sc.name] {
				t.Errorf("block image digest %s, pinned %s", got, want[sc.name])
			}
		})
	}
}
