package core

import (
	"encoding/binary"
	"errors"
	"fmt"

	"boxes/internal/enc"
	"boxes/internal/obs"
	"boxes/internal/pager"
)

// metaMarshaler is implemented by every persistent labeling scheme (all
// but naive-k): it captures the in-memory bookkeeping (roots, counters,
// extent tables) that complements the on-block data.
type metaMarshaler interface {
	MarshalMeta() []byte
	RestoreMeta(data []byte) error
}

var metaMagic = [8]byte{'B', 'O', 'X', 'M', 'E', 'T', 'A', '1'}

// ErrNotPersistent is returned by Open with Durable, Save, Backup and
// OpenExisting for naive-k, the paper's in-memory baseline: its
// document-order directory lives only in memory.
var ErrNotPersistent = errors.New("core: naive-k is in-memory only and cannot persist")

// ErrNoSavedStore is returned by OpenExisting when the backend holds no
// saved metadata.
var ErrNoSavedStore = errors.New("core: backend holds no saved store")

// Save persists the store's metadata to the backend so that OpenExisting
// can resume it later. The backend must implement pager.MetaRooter
// (FileBackend does; MemBackend too, for tests). The blob is written
// inside one pager operation, so on a WAL-enabled FileBackend the whole
// save is a single atomic transaction; on a FileBackend the file is also
// synced. With Options.Durable every mutating operation already persists
// metadata, so explicit Saves are only needed for non-durable stores. Save
// runs under the write lock.
func (s *Store) Save() error {
	if s.meta == nil {
		return ErrNotPersistent
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	err := s.transact(true, func() error { return nil })
	if err == nil {
		if fb, ok := s.store.Backend().(*pager.FileBackend); ok {
			if err = fb.Sync(); err != nil {
				s.noteFaults(err)
			}
		}
	}
	return err
}

// persistMeta rewrites the metadata blob and repoints the backend's meta
// root at it. It must run inside an open pager operation; all of its
// writes stage into the surrounding transaction.
func (s *Store) persistMeta() error {
	mr, ok := s.store.Backend().(pager.MetaRooter)
	if !ok {
		return errors.New("core: backend cannot persist metadata")
	}
	old, err := mr.MetaRoot()
	if err != nil {
		return err
	}
	if old != pager.NilBlock {
		if err := s.store.FreeBlob(old); err != nil {
			return err
		}
	}
	head, err := s.store.WriteBlob(s.metaBlob())
	if err != nil {
		return err
	}
	return mr.SetMetaRoot(head)
}

// metaBlob renders the metadata blob: a 19-byte header — magic (8), scheme
// (1), block size (4), ordinal (1), relaxed fan-out (1), 4 zero bytes once
// naive-k's k — then the scheme's own metadata.
func (s *Store) metaBlob() []byte {
	meta := s.meta.MarshalMeta()
	buf := make([]byte, 0, 19+len(meta))
	buf = append(buf, metaMagic[:]...)
	buf = append(buf, uint8(s.opts.Scheme))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(s.opts.BlockSize))
	buf = append(buf, b2u8(s.opts.Ordinal), b2u8(s.opts.RelaxedFanout))
	buf = append(buf, 0, 0, 0, 0) // formerly naive-k's k; ignored on read
	return append(buf, meta...)
}

// OpenExisting resumes a store previously persisted with Save (or by a
// Durable store's per-op metadata commits). Structural options (scheme,
// block size, variant flags) come from the saved metadata, overriding
// whatever runtime sets for them; every other field (LRU size,
// durability, metrics, crash dir, slow-op threshold) is taken from
// runtime. When runtime.CrashDir is set, a failure to resume — corrupt
// metadata, a scheme that cannot restore, invariant-violating state —
// writes a flight-recorder dump tagged stage=open-existing before the
// error returns, so a failed recovery leaves an actionable artifact.
func OpenExisting(backend pager.Backend, runtime Options) (*Store, error) {
	st, err := openExisting(backend, runtime)
	if err != nil && runtime.CrashDir != "" {
		reg := runtime.Metrics
		if reg == nil {
			reg = obs.NewRegistry()
		}
		fr := obs.NewFlightRecorder(reg, runtime.CrashDir, crashRing)
		fr.DumpFailure("open-existing", err, map[string]string{
			"stage": "open-existing",
		})
	}
	return st, err
}

func openExisting(backend pager.Backend, runtime Options) (*Store, error) {
	saved, rest, err := readMeta(pager.NewStore(backend))
	if err != nil {
		return nil, err
	}
	if saved.Scheme == SchemeNaive {
		return nil, ErrNotPersistent
	}
	if saved.BlockSize != backend.BlockSize() {
		return nil, fmt.Errorf("core: saved block size %d, backend has %d: %w", saved.BlockSize, backend.BlockSize(), pager.ErrCorrupt)
	}
	opts := runtime
	opts.Scheme = saved.Scheme
	opts.BlockSize = saved.BlockSize
	opts.Ordinal = saved.Ordinal
	opts.RelaxedFanout = saved.RelaxedFanout
	opts.Backend = backend
	st, err := Open(opts)
	if err != nil {
		return nil, err
	}
	if err := st.meta.RestoreMeta(rest); err != nil {
		return nil, err
	}
	return st, nil
}

// readMeta reads the committed metadata blob through store and splits it
// into the structural options of its header and the scheme's own metadata.
// It returns ErrNoSavedStore when the backend has no meta root.
func readMeta(store *pager.Store) (Options, []byte, error) {
	mr, ok := store.Backend().(pager.MetaRooter)
	if !ok {
		return Options{}, nil, errors.New("core: backend cannot persist metadata")
	}
	head, err := mr.MetaRoot()
	if err != nil {
		return Options{}, nil, err
	}
	if head == pager.NilBlock {
		return Options{}, nil, ErrNoSavedStore
	}
	blob, err := store.ReadBlob(head)
	if err != nil {
		return Options{}, nil, err
	}
	r := enc.NewReader(blob)
	magic, scheme, blockSize, ordinal, relaxed := r.Bytes(len(metaMagic)), Scheme(r.U8()), r.U32(), r.U8(), r.U8()
	r.Bytes(4) // formerly naive-k's k; ignored
	rest := r.Rest()
	if r.Done() != nil || string(magic) != string(metaMagic[:]) || scheme > SchemeNaive || ordinal > 1 || relaxed > 1 {
		return Options{}, nil, fmt.Errorf("core: saved metadata header of %d bytes (magic %q, scheme %d, flags %d,%d): %w",
			len(blob), magic, scheme, ordinal, relaxed, pager.ErrCorrupt)
	}
	return Options{Scheme: scheme, BlockSize: int(blockSize), Ordinal: ordinal == 1, RelaxedFanout: relaxed == 1}, rest, nil
}

func b2u8(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}
