package pager

import (
	"encoding/binary"
	"errors"
)

// MetaRooter is implemented by backends that can remember the block ID of
// a metadata blob across restarts (FileBackend persists it in its header;
// MemBackend keeps it in memory for symmetry in tests).
type MetaRooter interface {
	SetMetaRoot(id BlockID) error
	MetaRoot() (BlockID, error)
}

// blobHeaderSize is the per-block overhead of a chained blob: next block
// pointer (8) + payload length in this block (4).
const blobHeaderSize = 12

// WriteBlob stores data as a chain of blocks and returns the head block.
// Blobs hold structure metadata (roots, counts, the LIDF extent table) so
// a labeling store can be closed and reopened.
func (s *Store) WriteBlob(data []byte) (BlockID, error) {
	payload := s.BlockSize() - blobHeaderSize
	if payload <= 0 {
		return NilBlock, errors.New("pager: block too small for blobs")
	}
	// Allocate the chain first so each block can point at its successor.
	nblocks := (len(data) + payload - 1) / payload
	if nblocks == 0 {
		nblocks = 1
	}
	ids := make([]BlockID, nblocks)
	for i := range ids {
		id, err := s.Allocate()
		if err != nil {
			return NilBlock, err
		}
		ids[i] = id
	}
	for i := 0; i < nblocks; i++ {
		buf := make([]byte, s.BlockSize())
		next := NilBlock
		if i+1 < nblocks {
			next = ids[i+1]
		}
		binary.LittleEndian.PutUint64(buf[0:8], uint64(next))
		chunk := data
		if len(chunk) > payload {
			chunk = chunk[:payload]
		}
		binary.LittleEndian.PutUint32(buf[8:12], uint32(len(chunk)))
		copy(buf[blobHeaderSize:], chunk)
		data = data[len(chunk):]
		if err := s.Write(ids[i], buf); err != nil {
			return NilBlock, err
		}
	}
	return ids[0], nil
}

// walkBlob calls visit on each block of the chain headed at head, in
// order, with the block's image. A chain cannot hold more blocks than the
// store has allocated, so one that runs longer loops: the walk reports it
// as ErrCorrupt after at most NumBlocks reads, whatever the chain holds.
// A next pointer the backend holds no block for is ErrCorrupt too, naming
// the block that holds it; any other read error keeps its own class.
func (s *Store) walkBlob(head BlockID, visit func(id BlockID, buf []byte) error) error {
	limit := s.NumBlocks()
	for prev, id, n := NilBlock, head, uint64(0); id != NilBlock; n++ {
		if n == limit {
			return corruptBlock(id, "blob chain runs past the %d allocated blocks (cycle)", limit)
		}
		buf, err := s.Read(id)
		if err != nil {
			if nb := noBlockError(""); prev != NilBlock && errors.As(err, &nb) {
				return corruptBlock(prev, "blob next pointer %d: %v", id, err)
			}
			return err
		}
		if err := visit(id, buf); err != nil {
			return err
		}
		prev, id = id, BlockID(binary.LittleEndian.Uint64(buf[0:8]))
	}
	return nil
}

// ReadBlob reassembles a blob written by WriteBlob. On an error the bytes
// read so far come back with it.
func (s *Store) ReadBlob(head BlockID) ([]byte, error) {
	var out []byte
	err := s.walkBlob(head, func(id BlockID, buf []byte) error {
		n := int(binary.LittleEndian.Uint32(buf[8:12]))
		if n > s.BlockSize()-blobHeaderSize {
			return corruptBlock(id, "blob block claims %d payload bytes", n)
		}
		out = append(out, buf[blobHeaderSize:blobHeaderSize+n]...)
		return nil
	})
	return out, err
}

// BlobBlocks returns the block IDs of a blob chain in order, without
// freeing or copying the payload. fsck uses it to mark the metadata blob's
// blocks reachable. On an error it returns the blocks walked so far.
func (s *Store) BlobBlocks(head BlockID) ([]BlockID, error) {
	var out []BlockID
	err := s.walkBlob(head, func(id BlockID, _ []byte) error {
		out = append(out, id)
		return nil
	})
	return out, err
}

// FreeBlob releases a blob chain. It walks the whole chain before freeing
// any of it, so a chain that fails to walk is left as it was.
func (s *Store) FreeBlob(head BlockID) error {
	ids, err := s.BlobBlocks(head)
	if err != nil {
		return err
	}
	for _, id := range ids {
		if err := s.Free(id); err != nil {
			return err
		}
	}
	return nil
}
