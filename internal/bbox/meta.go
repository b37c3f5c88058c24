package bbox

import (
	"fmt"

	"boxes/internal/enc"
	"boxes/internal/pager"
)

// MarshalMeta serializes the B-BOX's root pointer, height, count, and LIDF
// bookkeeping so the structure can be reopened over a persistent backend.
func (l *Labeler) MarshalMeta() []byte {
	lm := l.file.MarshalMeta()
	buf := make([]byte, 0, 26+len(lm))
	buf = append(buf, boolByte(l.p.Ordinal), boolByte(l.p.Relaxed))
	buf = le.AppendUint64(buf, uint64(l.root))
	buf = le.AppendUint32(buf, uint32(l.height))
	buf = le.AppendUint64(buf, l.count)
	buf = le.AppendUint32(buf, uint32(len(lm)))
	return append(buf, lm...)
}

// RestoreMeta restores state saved by MarshalMeta into a freshly created
// (empty) B-BOX with identical parameters over the same backend. Bytes
// MarshalMeta could not have written for these parameters are ErrCorrupt.
func (l *Labeler) RestoreMeta(data []byte) error {
	r := enc.NewReader(data)
	ordinal, relaxed := r.U8(), r.U8()
	root, height, count := r.U64(), r.U32(), r.U64()
	lm := r.Bytes(r.Count(1))
	if err := r.Done(); err != nil {
		return fmt.Errorf("bbox: meta: %w: %w", pager.ErrCorrupt, err)
	}
	if ordinal != boolByte(l.p.Ordinal) || relaxed != boolByte(l.p.Relaxed) {
		return fmt.Errorf("bbox: meta flags (%d,%d) do not match parameters (%v,%v): %w",
			ordinal, relaxed, l.p.Ordinal, l.p.Relaxed, pager.ErrCorrupt)
	}
	if err := l.file.RestoreMeta(lm); err != nil {
		return err
	}
	l.root, l.height, l.count = pager.BlockID(root), int(height), count
	return nil
}

func boolByte(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}
