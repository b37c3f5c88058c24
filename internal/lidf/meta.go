package lidf

import (
	"bytes"
	"encoding/binary"
	"fmt"

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
// created (empty) File over the same backend.
func (f *File) RestoreMeta(data []byte) error {
	r := bytes.NewReader(data)
	var payload uint32
	if err := binary.Read(r, binary.LittleEndian, &payload); err != nil {
		return fmt.Errorf("lidf: meta: %w", err)
	}
	if int(payload) != f.payloadSize {
		return fmt.Errorf("lidf: meta payload size %d, file configured for %d", payload, f.payloadSize)
	}
	var next, freeHead, count uint64
	var nExt uint32
	if err := binary.Read(r, binary.LittleEndian, &next); err != nil {
		return err
	}
	if err := binary.Read(r, binary.LittleEndian, &freeHead); err != nil {
		return err
	}
	if err := binary.Read(r, binary.LittleEndian, &count); err != nil {
		return err
	}
	if err := binary.Read(r, binary.LittleEndian, &nExt); err != nil {
		return err
	}
	if uint64(nExt)*8 > uint64(r.Len()) {
		return fmt.Errorf("lidf: meta: extent table of %d entries overruns %d bytes: %w", nExt, r.Len(), pager.ErrCorrupt)
	}
	extents := make([]pager.BlockID, nExt)
	for i := range extents {
		var blk uint64
		if err := binary.Read(r, binary.LittleEndian, &blk); err != nil {
			return err
		}
		extents[i] = pager.BlockID(blk)
	}
	f.next = order.LID(next)
	f.freeHead = order.LID(freeHead)
	f.count = count
	f.extents = extents
	return nil
}
