package lidf

import (
	"encoding/binary"
	"fmt"

	"boxes/internal/enc"
	"boxes/internal/order"
	"boxes/internal/pager"
)

// MarshalMeta serializes the file's bookkeeping (extent table, free list
// head, allocation cursor) so the LIDF can be reopened over a persistent
// backend.
func (f *File) MarshalMeta() []byte {
	le := binary.LittleEndian
	buf := make([]byte, 0, 32+8*len(f.extents))
	buf = le.AppendUint32(buf, uint32(f.payloadSize))
	buf = le.AppendUint64(buf, uint64(f.next))
	buf = le.AppendUint64(buf, uint64(f.freeHead))
	buf = le.AppendUint64(buf, f.count)
	buf = le.AppendUint32(buf, uint32(len(f.extents)))
	for _, blk := range f.extents {
		buf = le.AppendUint64(buf, uint64(blk))
	}
	return buf
}

// RestoreMeta restores bookkeeping saved by MarshalMeta into a freshly
// created (empty) File over the same backend. Bytes MarshalMeta could not
// have written for this payload size are ErrCorrupt.
func (f *File) RestoreMeta(data []byte) error {
	r := enc.NewReader(data)
	payload, next, freeHead, count := r.U32(), r.U64(), r.U64(), r.U64()
	extents := make([]pager.BlockID, r.Count(8))
	for i := range extents {
		extents[i] = pager.BlockID(r.U64())
	}
	if err := r.Done(); err != nil {
		return fmt.Errorf("lidf: meta: %w: %w", pager.ErrCorrupt, err)
	}
	if int(payload) != f.payloadSize {
		return fmt.Errorf("lidf: meta payload size %d, file configured for %d: %w", payload, f.payloadSize, pager.ErrCorrupt)
	}
	f.next, f.freeHead, f.count, f.extents = order.LID(next), order.LID(freeHead), count, extents
	return nil
}
