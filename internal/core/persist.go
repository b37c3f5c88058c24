package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"

	"boxes/internal/obs"
	"boxes/internal/pager"
)

// metaMarshaler is implemented by every labeling scheme: it captures the
// in-memory bookkeeping (roots, counters, extent tables) that complements
// the on-block data.
type metaMarshaler interface {
	MarshalMeta() []byte
	RestoreMeta(data []byte) error
}

var metaMagic = [8]byte{'B', 'O', 'X', 'M', 'E', 'T', 'A', '1'}

// ErrNoSavedStore is returned by OpenExisting when the backend holds no
// saved metadata.
var ErrNoSavedStore = errors.New("core: backend holds no saved store")

// Save persists the store's metadata to the backend so that OpenExisting
// can resume it later. The backend must implement pager.MetaRooter
// (FileBackend does; MemBackend too, for tests). The blob is written
// inside one pager operation, so on a WAL-enabled FileBackend the whole
// save is a single atomic transaction; on a FileBackend the file is also
// synced. With Options.Durable every mutating operation already persists
// metadata, so explicit Saves are only needed for non-durable stores.
func (s *Store) Save() error {
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
	mm, ok := s.labeler.(metaMarshaler)
	if !ok {
		return fmt.Errorf("core: scheme %v cannot persist metadata", s.opts.Scheme)
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
	meta := mm.MarshalMeta()
	buf := make([]byte, 0, len(metaMagic)+11+len(meta))
	buf = append(buf, metaMagic[:]...)
	buf = append(buf, uint8(s.opts.Scheme))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(s.opts.BlockSize))
	buf = append(buf, b2u8(s.opts.Ordinal), b2u8(s.opts.RelaxedFanout))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(s.opts.NaiveK))
	buf = append(buf, meta...)
	head, err := s.store.WriteBlob(buf)
	if err != nil {
		return err
	}
	return mr.SetMetaRoot(head)
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
	if saved.BlockSize != backend.BlockSize() {
		return nil, fmt.Errorf("core: saved block size %d, backend has %d", saved.BlockSize, backend.BlockSize())
	}
	opts := runtime
	opts.Scheme = saved.Scheme
	opts.BlockSize = saved.BlockSize
	opts.Ordinal = saved.Ordinal
	opts.RelaxedFanout = saved.RelaxedFanout
	opts.NaiveK = saved.NaiveK
	opts.Backend = backend
	st, err := Open(opts)
	if err != nil {
		return nil, err
	}
	mm, ok := st.labeler.(metaMarshaler)
	if !ok {
		return nil, fmt.Errorf("core: scheme %v cannot restore metadata", opts.Scheme)
	}
	if err := mm.RestoreMeta(rest); err != nil {
		return nil, err
	}
	return st, nil
}

// metaHeaderLen is the fixed prefix persistMeta writes before the scheme's
// own metadata: magic (8) + scheme (1) + block size (4) + ordinal (1) +
// relaxed fan-out (1) + naive k (4).
const metaHeaderLen = 19

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
	if len(blob) < metaHeaderLen || !bytes.Equal(blob[:8], metaMagic[:]) {
		return Options{}, nil, errors.New("core: saved metadata is corrupt (bad magic)")
	}
	return Options{
		Scheme:        Scheme(blob[8]),
		BlockSize:     int(binary.LittleEndian.Uint32(blob[9:])),
		Ordinal:       blob[13] == 1,
		RelaxedFanout: blob[14] == 1,
		NaiveK:        int(binary.LittleEndian.Uint32(blob[15:])),
	}, blob[metaHeaderLen:], nil
}

func b2u8(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}
