package wbox

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"boxes/internal/pager"
)

// MarshalMeta serializes the W-BOX's root pointer, height, counters, and
// LIDF bookkeeping so the structure can be reopened over a persistent
// backend.
func (l *Labeler) MarshalMeta() []byte {
	le := binary.LittleEndian
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
// (empty) W-BOX with identical parameters over the same backend.
func (l *Labeler) RestoreMeta(data []byte) error {
	r := bytes.NewReader(data)
	var variant, ordinal uint8
	if err := binary.Read(r, binary.LittleEndian, &variant); err != nil {
		return fmt.Errorf("wbox: meta: %w", err)
	}
	if err := binary.Read(r, binary.LittleEndian, &ordinal); err != nil {
		return err
	}
	if Variant(variant) != l.p.Variant || (ordinal == 1) != l.p.Ordinal {
		return fmt.Errorf("wbox: meta variant/ordinal (%d,%d) do not match parameters (%d,%v)",
			variant, ordinal, l.p.Variant, l.p.Ordinal)
	}
	var root uint64
	var height uint32
	if err := binary.Read(r, binary.LittleEndian, &root); err != nil {
		return err
	}
	if err := binary.Read(r, binary.LittleEndian, &height); err != nil {
		return err
	}
	if err := binary.Read(r, binary.LittleEndian, &l.live); err != nil {
		return err
	}
	if err := binary.Read(r, binary.LittleEndian, &l.dead); err != nil {
		return err
	}
	var lmLen uint32
	if err := binary.Read(r, binary.LittleEndian, &lmLen); err != nil {
		return err
	}
	if int64(lmLen) > int64(r.Len()) {
		return fmt.Errorf("wbox: meta: LIDF metadata of %d bytes overruns %d: %w", lmLen, r.Len(), pager.ErrCorrupt)
	}
	lm := make([]byte, lmLen)
	if _, err := io.ReadFull(r, lm); err != nil {
		return err
	}
	if err := l.file.RestoreMeta(lm); err != nil {
		return err
	}
	l.root = pager.BlockID(root)
	l.height = int(height)
	return nil
}

func boolByte(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}
