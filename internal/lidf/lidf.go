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
	"slices"

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

// A record is flag(1) payload(payloadSize). A live record's payload holds
// its owner's data, a free record's the next LID on the free list (8
// bytes), each zero-padded to the payload size. locate and record find a
// record in its block; setRecord and nextFree are the only code that
// writes one or reads its free-list link.

// locate maps a LID to its block and intra-block byte offset.
func (f *File) locate(lid order.LID) (pager.BlockID, int, error) {
	if lid == order.NilLID || lid >= f.next {
		return pager.NilBlock, 0, order.ErrUnknownLID
	}
	idx := int(lid-1) / f.perBlock
	slot := int(lid-1) % f.perBlock
	return f.extents[idx], slot * f.recordSize, nil
}

// edit returns lid's block, its frame from Store.Read — the op's pinned
// frame inside an operation, which the caller changes in place before
// handing it to Store.Write — and the record's bytes within it.
func (f *File) edit(lid order.LID) (blk pager.BlockID, frame, rec []byte, err error) {
	blk, off, err := f.locate(lid)
	if err == nil {
		frame, err = f.store.Read(blk)
	}
	if err != nil {
		return 0, nil, nil, err
	}
	return blk, frame, f.record(frame, off), nil
}

func (f *File) record(frame []byte, off int) []byte { return frame[off : off+f.recordSize] }

func setRecord(rec []byte, flag byte, data []byte) {
	rec[0] = flag
	clear(rec[1+copy(rec[1:], data):])
}

func nextFree(rec []byte) order.LID { return order.LID(binary.LittleEndian.Uint64(rec[1:])) }

func u64(v uint64) (b [8]byte) {
	binary.LittleEndian.PutUint64(b[:], v)
	return b
}

// Alloc reserves a record and returns its LID. The record is marked live
// with a zeroed payload; callers typically follow with Set.
func (f *File) Alloc() (order.LID, error) {
	lid := f.freeHead
	if lid == order.NilLID {
		lid = f.next
		if int(lid-1)/f.perBlock == len(f.extents) {
			blk, err := f.store.Allocate()
			if err != nil {
				return order.NilLID, err
			}
			f.extents = append(f.extents, blk)
		}
		f.next++ // locate admits lid from here on
	}
	blk, frame, rec, err := f.edit(lid)
	if err != nil {
		return order.NilLID, err
	}
	if lid == f.freeHead {
		if rec[0] != flagFree {
			return order.NilLID, fmt.Errorf("lidf: free-list head %d is live", lid)
		}
		f.freeHead = nextFree(rec)
	}
	setRecord(rec, flagLive, nil)
	if err := f.store.Write(blk, frame); err != nil {
		return order.NilLID, err
	}
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

// Read returns the payload of the live record lid, read in place through
// r: the slice is a sub-slice of r's pinned frame, valid until r ends.
func (f *File) Read(r *pager.ReadOp, lid order.LID) ([]byte, error) {
	blk, off, err := f.locate(lid)
	if err != nil {
		return nil, err
	}
	frame, err := r.View(blk)
	if err != nil {
		return nil, err
	}
	if rec := f.record(frame, off); rec[0] == flagLive {
		return rec[1:], nil
	}
	return nil, order.ErrUnknownLID
}

// ReadU64 reads the payload's first 8 bytes as a uint64, through r.
func (f *File) ReadU64(r *pager.ReadOp, lid order.LID) (uint64, error) {
	p, err := f.Read(r, lid)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(p), nil
}

// Get copies the payload of lid into a fresh slice, in a read op of its
// own (inside an update, the update's pins).
func (f *File) Get(lid order.LID) ([]byte, error) {
	r := f.store.BeginRead()
	defer r.End()
	p, err := f.Read(r, lid)
	return slices.Clone(p), err
}

// Set overwrites the payload of lid. data may be shorter than the payload
// size; the remainder is zeroed.
func (f *File) Set(lid order.LID, data []byte) error {
	if len(data) > f.payloadSize {
		return fmt.Errorf("lidf: payload of %d bytes exceeds record payload %d", len(data), f.payloadSize)
	}
	blk, frame, rec, err := f.edit(lid)
	if err != nil {
		return err
	}
	if rec[0] != flagLive {
		return order.ErrUnknownLID
	}
	setRecord(rec, flagLive, data)
	return f.store.Write(blk, frame)
}

// SetU64 stores a single uint64 in the payload's first 8 bytes; it is the
// common case for BOX structures (the leaf block address).
func (f *File) SetU64(lid order.LID, v uint64) error {
	b := u64(v)
	return f.Set(lid, b[:])
}

// GetU64 reads the payload's first 8 bytes as a uint64, in a read op of its
// own.
func (f *File) GetU64(lid order.LID) (uint64, error) {
	r := f.store.BeginRead()
	defer r.End()
	return f.ReadU64(r, lid)
}

// Free releases lid's record for reuse.
func (f *File) Free(lid order.LID) error {
	blk, frame, rec, err := f.edit(lid)
	if err != nil {
		return err
	}
	if rec[0] != flagLive {
		return order.ErrUnknownLID
	}
	next := u64(uint64(f.freeHead))
	setRecord(rec, flagFree, next[:])
	if err := f.store.Write(blk, frame); err != nil {
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
	r := f.store.BeginRead()
	defer r.End()
	_, err := f.Read(r, lid)
	if errors.Is(err, order.ErrUnknownLID) {
		return false, nil
	}
	return err == nil, err
}
