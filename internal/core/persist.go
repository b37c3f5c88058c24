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
	if err := s.readOnlyErr(); err != nil {
		return err
	}
	s.store.BeginOp()
	err := s.persistMeta()
	if e := s.store.EndOp(); err == nil {
		err = e
	}
	if err == nil {
		if fb, ok := s.store.Backend().(*pager.FileBackend); ok {
			err = fb.Sync()
		}
	}
	s.noteFaults(err)
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
// block size, variant flags) come from the saved metadata; only runtime
// options (caching mode, LRU size, durability, crash dir) are taken from
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
		fr := obs.NewFlightRecorder(reg, runtime.CrashDir, runtime.CrashRing)
		fr.DumpFailure("open-existing", err, map[string]string{
			"stage": "open-existing",
		})
	}
	return st, err
}

func openExisting(backend pager.Backend, runtime Options) (*Store, error) {
	mr, ok := backend.(pager.MetaRooter)
	if !ok {
		return nil, errors.New("core: backend cannot persist metadata")
	}
	head, err := mr.MetaRoot()
	if err != nil {
		return nil, err
	}
	if head == pager.NilBlock {
		return nil, ErrNoSavedStore
	}
	probe := pager.NewStore(backend)
	blob, err := probe.ReadBlob(head)
	if err != nil {
		return nil, err
	}
	r := bytes.NewReader(blob)
	var magic [8]byte
	if _, err := r.Read(magic[:]); err != nil {
		return nil, err
	}
	if magic != metaMagic {
		return nil, errors.New("core: saved metadata is corrupt (bad magic)")
	}
	var scheme uint8
	var blockSize uint32
	var ordinal, relaxed uint8
	var naiveK uint32
	if err := binary.Read(r, binary.LittleEndian, &scheme); err != nil {
		return nil, err
	}
	if err := binary.Read(r, binary.LittleEndian, &blockSize); err != nil {
		return nil, err
	}
	if err := binary.Read(r, binary.LittleEndian, &ordinal); err != nil {
		return nil, err
	}
	if err := binary.Read(r, binary.LittleEndian, &relaxed); err != nil {
		return nil, err
	}
	if err := binary.Read(r, binary.LittleEndian, &naiveK); err != nil {
		return nil, err
	}
	if int(blockSize) != backend.BlockSize() {
		return nil, fmt.Errorf("core: saved block size %d, backend has %d", blockSize, backend.BlockSize())
	}
	opts := Options{
		Scheme:        Scheme(scheme),
		BlockSize:     int(blockSize),
		Ordinal:       ordinal == 1,
		RelaxedFanout: relaxed == 1,
		NaiveK:        int(naiveK),
		Caching:       runtime.Caching,
		LogK:          runtime.LogK,
		CacheBlocks:   runtime.CacheBlocks,
		Backend:       backend,
		Durable:       runtime.Durable,
		Durability:    runtime.Durability,
		Retry:         runtime.Retry,
		Metrics:       runtime.Metrics,
		TraceHooks:    runtime.TraceHooks,
		CrashDir:      runtime.CrashDir,
		CrashRing:     runtime.CrashRing,
	}
	st, err := Open(opts)
	if err != nil {
		return nil, err
	}
	rest := make([]byte, r.Len())
	if _, err := r.Read(rest); err != nil {
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

func b2u8(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}
