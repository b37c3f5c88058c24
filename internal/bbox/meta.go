package bbox

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"boxes/internal/pager"
)

// MarshalMeta serializes the B-BOX's root pointer, height, count, and LIDF
// bookkeeping so the structure can be reopened over a persistent backend.
func (l *Labeler) MarshalMeta() []byte {
	le := binary.LittleEndian
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
// (empty) B-BOX with identical parameters over the same backend.
func (l *Labeler) RestoreMeta(data []byte) error {
	r := bytes.NewReader(data)
	var ordinal, relaxed uint8
	if err := binary.Read(r, binary.LittleEndian, &ordinal); err != nil {
		return fmt.Errorf("bbox: meta: %w", err)
	}
	if err := binary.Read(r, binary.LittleEndian, &relaxed); err != nil {
		return err
	}
	if (ordinal == 1) != l.p.Ordinal || (relaxed == 1) != l.p.Relaxed {
		return fmt.Errorf("bbox: meta flags (%d,%d) do not match parameters (%v,%v)",
			ordinal, relaxed, l.p.Ordinal, l.p.Relaxed)
	}
	var root uint64
	var height uint32
	if err := binary.Read(r, binary.LittleEndian, &root); err != nil {
		return err
	}
	if err := binary.Read(r, binary.LittleEndian, &height); err != nil {
		return err
	}
	if err := binary.Read(r, binary.LittleEndian, &l.count); err != nil {
		return err
	}
	var lmLen uint32
	if err := binary.Read(r, binary.LittleEndian, &lmLen); err != nil {
		return err
	}
	if int64(lmLen) > int64(r.Len()) {
		return fmt.Errorf("bbox: meta: LIDF metadata of %d bytes overruns %d: %w", lmLen, r.Len(), pager.ErrCorrupt)
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
