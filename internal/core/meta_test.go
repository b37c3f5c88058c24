package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"testing"

	"boxes/internal/bbox"
	"boxes/internal/pager"
	"boxes/internal/wbox"
	"boxes/internal/xmlgen"
)

// TestMetaRejectsMismatchedParameters ensures RestoreMeta refuses to load
// state into a structure built with different structural parameters, which
// would silently corrupt interpretation of every block.
func TestMetaRejectsMismatchedParameters(t *testing.T) {
	store := pager.NewMemStore(512)
	pw, err := wbox.NewParams(512, wbox.Basic, false)
	if err != nil {
		t.Fatal(err)
	}
	wl, err := wbox.New(store, pw)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wl.BulkLoad(xmlgen.TwoLevel(50).TagStream()); err != nil {
		t.Fatal(err)
	}
	meta := wl.MarshalMeta()

	// Pair-optimized target must refuse basic-variant metadata.
	po, err := wbox.NewParams(512, wbox.PairOptimized, false)
	if err != nil {
		t.Fatal(err)
	}
	wl2, err := wbox.New(pager.NewMemStore(512), po)
	if err != nil {
		t.Fatal(err)
	}
	if err := wl2.RestoreMeta(meta); err == nil {
		t.Fatal("variant mismatch accepted")
	}

	// Same story for B-BOX flags.
	pb, err := bbox.NewParams(512, false, false)
	if err != nil {
		t.Fatal(err)
	}
	bl, err := bbox.New(pager.NewMemStore(512), pb)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bl.InsertFirstElement(); err != nil {
		t.Fatal(err)
	}
	bmeta := bl.MarshalMeta()
	pbo, err := bbox.NewParams(512, true, false)
	if err != nil {
		t.Fatal(err)
	}
	bl2, err := bbox.New(pager.NewMemStore(512), pbo)
	if err != nil {
		t.Fatal(err)
	}
	if err := bl2.RestoreMeta(bmeta); err == nil {
		t.Fatal("ordinal mismatch accepted")
	}
}

// TestOpenExistingRejectsCorruptMeta corrupts the saved blob and expects a
// clean error.
func TestOpenExistingRejectsCorruptMeta(t *testing.T) {
	backend := pager.NewMemBackend(512)
	st, err := Open(Options{Scheme: SchemeWBox, BlockSize: 512, Backend: backend})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Load(xmlgen.TwoLevel(50)); err != nil {
		t.Fatal(err)
	}
	if err := st.Save(); err != nil {
		t.Fatal(err)
	}
	// Point the meta root at an arbitrary data block: the magic check
	// must fail.
	root, err := backend.MetaRoot()
	if err != nil {
		t.Fatal(err)
	}
	if err := backend.SetMetaRoot(root + 1); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenExisting(backend, Options{}); err == nil {
		t.Fatal("corrupt metadata accepted")
	}
}

// TestOpenExistingRejectsCyclicMetaChain points the meta root at a
// two-block blob chain whose second block links back to the first:
// OpenExisting must report corruption, not walk the loop. Each block claims
// one payload byte, so a walk that misses the cycle spins instead of
// exhausting memory.
func TestOpenExistingRejectsCyclicMetaChain(t *testing.T) {
	backend := pager.NewMemBackend(512)
	store := pager.NewStore(backend)
	var ids [2]pager.BlockID
	for i := range ids {
		id, err := store.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	for i, id := range ids {
		buf := make([]byte, 512)
		binary.LittleEndian.PutUint64(buf[0:8], uint64(ids[1-i]))
		binary.LittleEndian.PutUint32(buf[8:12], 1)
		if err := store.Write(id, buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := backend.SetMetaRoot(ids[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenExisting(backend, Options{}); !errors.Is(err, pager.ErrCorrupt) {
		t.Fatalf("OpenExisting over a cyclic meta chain: err = %v, want ErrCorrupt", err)
	}
}

// TestOpenExistingBlockSizeMismatch ensures a saved store cannot be opened
// with the wrong block size.
func TestOpenExistingBlockSizeMismatch(t *testing.T) {
	// Saved metadata claims 512; reopening over a backend reporting a
	// different size must fail. (With a real file this cannot happen —
	// the pager file header fixes the size — but a custom backend could.)
	backend := pager.NewMemBackend(512)
	st, err := Open(Options{Scheme: SchemeBBox, BlockSize: 512, Backend: backend})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Load(xmlgen.TwoLevel(50)); err != nil {
		t.Fatal(err)
	}
	if err := st.Save(); err != nil {
		t.Fatal(err)
	}
	st2, err := OpenExisting(backend, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st2.Count() != 100 {
		t.Fatalf("count = %d", st2.Count())
	}
}

// metaBlobGolden pins the SHA-256 of the saved metadata blob of a loaded
// and then edited store of each scheme, as the binary.Write-per-field
// encoders this package and lidf/wbox/bbox used to have produced it
// (recorded at the commit before they were replaced): the append-based
// encoders must render the same bytes.
var metaBlobGolden = map[string]string{
	"wbox":   "aa4dc940b169b3ee2eda069ef97a5fba17174438f0f2c09c37f3a35d5d86856e",
	"wbox-o": "22f2f9bb816fc696e5e3ad70eb177ce3611f35cfd235a9b731e4d6c93bbcd6b0",
	"bbox":   "fd3099fb653f1b791ba655f731449f772c31722c3cb62df9047330388ca83695",
	"bbox-o": "82066d3026de517602fa5ff5298614c074cd561be51bffc3fd18c1ec287cf52d",
}

func TestMetaBlobGolden(t *testing.T) {
	for _, c := range []struct {
		name string
		opts Options
	}{
		{"wbox", Options{Scheme: SchemeWBox}},
		{"wbox-o", Options{Scheme: SchemeWBoxO, Ordinal: true}},
		{"bbox", Options{Scheme: SchemeBBox}},
		{"bbox-o", Options{Scheme: SchemeBBox, Ordinal: true}},
	} {
		backend := pager.NewMemBackend(512)
		c.opts.BlockSize, c.opts.Backend = 512, backend
		st, err := Open(c.opts)
		if err != nil {
			t.Fatal(err)
		}
		doc, err := st.Load(xmlgen.TwoLevel(400))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 60; i++ {
			e, err := st.InsertElementBefore(doc.Elems[(i*37)%len(doc.Elems)].End)
			if err != nil {
				t.Fatal(err)
			}
			if i%6 == 0 {
				if err := st.DeleteElement(e); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := st.Save(); err != nil {
			t.Fatal(err)
		}
		root, err := backend.MetaRoot()
		if err != nil {
			t.Fatal(err)
		}
		blob, err := pager.NewStore(backend).ReadBlob(root)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(blob)
		if got := hex.EncodeToString(sum[:]); got != metaBlobGolden[c.name] {
			t.Errorf("%s: %d-byte meta blob hashes to %s, golden %s", c.name, len(blob), got, metaBlobGolden[c.name])
		}
	}
}

// FuzzRestoreMeta opens a store whose committed metadata blob is the input,
// through readMeta and the scheme's RestoreMeta. It must never panic; every
// error wraps ErrCorrupt, except ErrNotPersistent for a header naming
// naive-k (what such stores saved before naive-k stopped persisting); and a
// blob that opens re-renders to the same bytes. Header bytes 15-18 are
// ignored on read (naive-k's k in older files), so they are compared as
// read. The seed corpus holds the four TestMetaBlobGolden blobs and three
// hostile ones: a W-BOX and a B-BOX blob whose LIDF length prefix overruns
// the bytes that remain, and a W-BOX blob whose LIDF extent count is
// 0xFFFFFFFF.
func FuzzRestoreMeta(f *testing.F) {
	f.Fuzz(func(t *testing.T, blob []byte) {
		backend := pager.NewMemBackend(512)
		head, err := pager.NewStore(backend).WriteBlob(blob)
		if err != nil {
			t.Fatal(err)
		}
		if err := backend.SetMetaRoot(head); err != nil {
			t.Fatal(err)
		}
		st, err := OpenExisting(backend, Options{})
		if errors.Is(err, ErrNotPersistent) {
			return
		}
		if err != nil {
			if !errors.Is(err, pager.ErrCorrupt) {
				t.Fatalf("error does not wrap ErrCorrupt: %v", err)
			}
			return
		}
		got := st.metaBlob()
		copy(got[15:19], blob[15:19])
		if !bytes.Equal(got, blob) {
			t.Fatalf("%d-byte blob opened but re-renders to %d other bytes:\n in  %x\n out %x", len(blob), len(got), blob, got)
		}
	})
}
