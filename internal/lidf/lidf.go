// Package lidf implements the immutable label ID file of Section 3 of the
// paper: a compact heap file that maps immutable label IDs (LIDs) to small
// fixed-size records.
//
// For the BOX structures each record holds the block address of the BOX
// leaf containing the label's BOX record, so that lookup(lid) costs one
// LIDF I/O plus the structure's own cost. For the naive-k baseline each
// record holds the label value itself. The record payload size is therefore
// a parameter.
//
// LIDs are stable for the lifetime of a label: they may be freely copied
// into other indexes. Freed records are chained into a free list and reused
// by later allocations, keeping the file compact (O(N/B) blocks).
package lidf

import (
	"encoding/binary"
	"errors"
	"fmt"

	"boxes/internal/obs"
	"boxes/internal/order"
	"boxes/internal/pager"
)

const (
	flagFree byte = 0
	flagLive byte = 1
)

// File is an immutable label ID file over a block store.
type File struct {
	store       *pager.Store
	payloadSize int
	recordSize  int // 1 flag byte + payload
	perBlock    int

	extents  []pager.BlockID // logical LIDF block index -> store block
	next     order.LID       // next never-used LID
	freeHead order.LID       // head of the free list (NilLID if empty)
	count    uint64          // live records
}

// New creates an empty LIDF whose records carry payloadSize bytes each.
func New(store *pager.Store, payloadSize int) (*File, error) {
	if payloadSize < 8 {
		// The free list threads the next free LID through the payload.
		return nil, errors.New("lidf: payload must be at least 8 bytes")
	}
	rec := 1 + payloadSize
	per := store.BlockSize() / rec
	if per < 1 {
		return nil, fmt.Errorf("lidf: record size %d exceeds block size %d", rec, store.BlockSize())
	}
	return &File{
		store:       store,
		payloadSize: payloadSize,
		recordSize:  rec,
		perBlock:    per,
		next:        1,
		freeHead:    order.NilLID,
	}, nil
}

// Count reports the number of live records.
func (f *File) Count() uint64 { return f.count }

// Blocks reports the number of blocks the file occupies.
func (f *File) Blocks() int { return len(f.extents) }

// locate maps a LID to its block and intra-block byte offset.
func (f *File) locate(lid order.LID) (pager.BlockID, int, error) {
	if lid == order.NilLID || lid >= f.next {
		return pager.NilBlock, 0, order.ErrUnknownLID
	}
	idx := int(lid-1) / f.perBlock
	slot := int(lid-1) % f.perBlock
	return f.extents[idx], slot * f.recordSize, nil
}

// Alloc reserves a record and returns its LID. The record is marked live
// with a zeroed payload; callers typically follow with Set.
func (f *File) Alloc() (order.LID, error) {
	var lid order.LID
	if f.freeHead != order.NilLID {
		lid = f.freeHead
		blk, off, err := f.locate(lid)
		if err != nil {
			return order.NilLID, err
		}
		buf, err := f.store.Read(blk)
		if err != nil {
			return order.NilLID, err
		}
		if buf[off] != flagFree {
			return order.NilLID, fmt.Errorf("lidf: free-list head %d is live", lid)
		}
		f.freeHead = order.LID(binary.LittleEndian.Uint64(buf[off+1 : off+9]))
		buf[off] = flagLive
		for i := off + 1; i < off+f.recordSize; i++ {
			buf[i] = 0
		}
		if err := f.store.Write(blk, buf); err != nil {
			return order.NilLID, err
		}
		f.count++
		f.store.Observer().Inc(obs.CtrLIDFAllocs)
		return lid, nil
	}
	lid = f.next
	idx := int(lid-1) / f.perBlock
	if idx == len(f.extents) {
		blk, err := f.store.Allocate()
		if err != nil {
			return order.NilLID, err
		}
		f.extents = append(f.extents, blk)
	}
	blk := f.extents[idx]
	off := (int(lid-1) % f.perBlock) * f.recordSize
	buf, err := f.store.Read(blk)
	if err != nil {
		return order.NilLID, err
	}
	buf[off] = flagLive
	for i := off + 1; i < off+f.recordSize; i++ {
		buf[i] = 0
	}
	if err := f.store.Write(blk, buf); err != nil {
		return order.NilLID, err
	}
	f.next++
	f.count++
	f.store.Observer().Inc(obs.CtrLIDFAllocs)
	return lid, nil
}

// AllocPair reserves two records for an element's start and end labels. As
// the paper notes, allocating them next to each other lets a single I/O
// retrieve both; AllocPair places the pair in the same block whenever the
// tail of the file allows it.
func (f *File) AllocPair() (start, end order.LID, err error) {
	// Two consecutive allocations land in the same block whenever the
	// free list is empty (always the case during bulk loading, which is
	// when pair adjacency matters for I/O).
	s, err := f.Alloc()
	if err != nil {
		return 0, 0, err
	}
	e, err := f.Alloc()
	if err != nil {
		return 0, 0, err
	}
	return s, e, nil
}

// view borrows the block holding lid's record (pager.Store.View) and
// returns it with the record's payload, a sub-slice of it. The record must
// be live. The caller reads the payload in place and then hands frame back
// with store.Release.
func (f *File) view(lid order.LID) (frame, payload []byte, err error) {
	blk, off, err := f.locate(lid)
	if err != nil {
		return nil, nil, err
	}
	frame, err = f.store.View(blk)
	if err != nil {
		return nil, nil, err
	}
	if frame[off] != flagLive {
		f.store.Release(frame)
		return nil, nil, order.ErrUnknownLID
	}
	return frame, frame[off+1 : off+f.recordSize], nil
}

// Get copies the payload of lid into a fresh slice.
func (f *File) Get(lid order.LID) ([]byte, error) {
	frame, p, err := f.view(lid)
	if err != nil {
		return nil, err
	}
	out := make([]byte, f.payloadSize)
	copy(out, p)
	f.store.Release(frame)
	return out, nil
}

// Set overwrites the payload of lid. data may be shorter than the payload
// size; the remainder is zeroed.
func (f *File) Set(lid order.LID, data []byte) error {
	if len(data) > f.payloadSize {
		return fmt.Errorf("lidf: payload of %d bytes exceeds record payload %d", len(data), f.payloadSize)
	}
	blk, off, err := f.locate(lid)
	if err != nil {
		return err
	}
	buf, err := f.store.Read(blk)
	if err != nil {
		return err
	}
	if buf[off] != flagLive {
		return order.ErrUnknownLID
	}
	copy(buf[off+1:off+1+len(data)], data)
	for i := off + 1 + len(data); i < off+f.recordSize; i++ {
		buf[i] = 0
	}
	return f.store.Write(blk, buf)
}

// SetU64 stores a single uint64 in the payload's first 8 bytes; it is the
// common case for BOX structures (the leaf block address).
func (f *File) SetU64(lid order.LID, v uint64) error {
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], v)
	return f.Set(lid, tmp[:])
}

// GetU64 reads the payload's first 8 bytes as a uint64.
func (f *File) GetU64(lid order.LID) (uint64, error) {
	frame, p, err := f.view(lid)
	if err != nil {
		return 0, err
	}
	v := binary.LittleEndian.Uint64(p)
	f.store.Release(frame)
	return v, nil
}

// Free releases lid's record for reuse.
func (f *File) Free(lid order.LID) error {
	blk, off, err := f.locate(lid)
	if err != nil {
		return err
	}
	buf, err := f.store.Read(blk)
	if err != nil {
		return err
	}
	if buf[off] != flagLive {
		return order.ErrUnknownLID
	}
	buf[off] = flagFree
	binary.LittleEndian.PutUint64(buf[off+1:off+9], uint64(f.freeHead))
	for i := off + 9; i < off+f.recordSize; i++ {
		buf[i] = 0
	}
	if err := f.store.Write(blk, buf); err != nil {
		return err
	}
	f.freeHead = lid
	f.count--
	f.store.Observer().Inc(obs.CtrLIDFFrees)
	return nil
}

// Live reports whether lid identifies a live record, without counting as a
// data access error if it does not.
func (f *File) Live(lid order.LID) (bool, error) {
	blk, off, err := f.locate(lid)
	if err != nil {
		if errors.Is(err, order.ErrUnknownLID) {
			return false, nil
		}
		return false, err
	}
	buf, err := f.store.Read(blk)
	if err != nil {
		return false, err
	}
	return buf[off] == flagLive, nil
}
