package wbox

import (
	"fmt"

	"boxes/internal/enc"
	"boxes/internal/pager"
)

// MarshalMeta serializes the W-BOX's root pointer, height, counters, and
// LIDF bookkeeping so the structure can be reopened over a persistent
// backend.
func (l *Labeler) MarshalMeta() []byte {
	lm := l.file.MarshalMeta()
	buf := make([]byte, 0, 34+len(lm))
	buf = append(buf, uint8(l.p.Variant), boolByte(l.p.Ordinal))
	buf = le.AppendUint64(buf, uint64(l.root))
	buf = le.AppendUint32(buf, uint32(l.height))
	buf = le.AppendUint64(buf, l.live)
	buf = le.AppendUint64(buf, l.dead)
	buf = le.AppendUint32(buf, uint32(len(lm)))
	return append(buf, lm...)
}

// RestoreMeta restores state saved by MarshalMeta into a freshly created
// (empty) W-BOX with identical parameters over the same backend. Bytes
// MarshalMeta could not have written for these parameters are ErrCorrupt.
func (l *Labeler) RestoreMeta(data []byte) error {
	r := enc.NewReader(data)
	variant, ordinal := r.U8(), r.U8()
	root, height, live, dead := r.U64(), r.U32(), r.U64(), r.U64()
	lm := r.Bytes(r.Count(1))
	if err := r.Done(); err != nil {
		return fmt.Errorf("wbox: meta: %w: %w", pager.ErrCorrupt, err)
	}
	if variant != uint8(l.p.Variant) || ordinal != boolByte(l.p.Ordinal) {
		return fmt.Errorf("wbox: meta variant/ordinal (%d,%d) do not match parameters (%d,%v): %w",
			variant, ordinal, l.p.Variant, l.p.Ordinal, pager.ErrCorrupt)
	}
	if err := l.file.RestoreMeta(lm); err != nil {
		return err
	}
	l.root, l.height, l.live, l.dead = pager.BlockID(root), int(height), live, dead
	return nil
}

func boolByte(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}
