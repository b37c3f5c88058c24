package naive

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"boxes/internal/order"
)

// MarshalMeta serializes the naive scheme's configuration, counters, LIDF
// bookkeeping, and the in-memory document-order directory (as the LID
// sequence in document order).
func (l *Labeler) MarshalMeta() []byte {
	le := binary.LittleEndian
	lm := l.file.MarshalMeta()
	buf := make([]byte, 0, 28+len(lm)+8*len(l.dir))
	buf = le.AppendUint32(buf, uint32(l.cfg.K))
	buf = le.AppendUint32(buf, uint32(l.cfg.CapacityBits))
	buf = le.AppendUint64(buf, l.relabels)
	buf = le.AppendUint32(buf, uint32(len(lm)))
	buf = append(buf, lm...)
	buf = le.AppendUint64(buf, uint64(len(l.dir)))
	for lid := l.head; lid != order.NilLID; lid = l.dir[lid].next {
		buf = le.AppendUint64(buf, uint64(lid))
	}
	return buf
}

// RestoreMeta restores state saved by MarshalMeta into a freshly created
// (empty) naive labeler with identical configuration.
func (l *Labeler) RestoreMeta(data []byte) error {
	r := bytes.NewReader(data)
	var k, capBits uint32
	if err := binary.Read(r, binary.LittleEndian, &k); err != nil {
		return fmt.Errorf("naive: meta: %w", err)
	}
	if err := binary.Read(r, binary.LittleEndian, &capBits); err != nil {
		return err
	}
	if int(k) != l.cfg.K || int(capBits) != l.cfg.CapacityBits {
		return fmt.Errorf("naive: meta config (k=%d, bits=%d) does not match (k=%d, bits=%d)",
			k, capBits, l.cfg.K, l.cfg.CapacityBits)
	}
	if err := binary.Read(r, binary.LittleEndian, &l.relabels); err != nil {
		return err
	}
	var lmLen uint32
	if err := binary.Read(r, binary.LittleEndian, &lmLen); err != nil {
		return err
	}
	lm := make([]byte, lmLen)
	if _, err := r.Read(lm); err != nil {
		return err
	}
	if err := l.file.RestoreMeta(lm); err != nil {
		return err
	}
	var n uint64
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return err
	}
	l.dir = make(map[order.LID]*dirNode, n)
	l.head = order.NilLID
	l.tail = order.NilLID
	prev := order.NilLID
	for i := uint64(0); i < n; i++ {
		var lid uint64
		if err := binary.Read(r, binary.LittleEndian, &lid); err != nil {
			return err
		}
		cur := order.LID(lid)
		l.dir[cur] = &dirNode{prev: prev}
		if prev == order.NilLID {
			l.head = cur
		} else {
			l.dir[prev].next = cur
		}
		prev = cur
	}
	l.tail = prev
	return nil
}
