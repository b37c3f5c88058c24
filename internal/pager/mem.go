package pager

import (
	"fmt"
)

// MemBackend keeps all blocks in memory. It is the backend used by the
// benchmarks: costs are reported in counted block I/Os, not in seconds, so
// an in-memory device is faithful to the paper's metric while keeping the
// experiments fast.
type MemBackend struct {
	blockSize int
	blocks    [][]byte // index 0 unused; BlockID n lives at blocks[n]
	free      []BlockID
	metaRoot  BlockID
	closed    bool
}

// SetMetaRoot implements MetaRooter.
func (m *MemBackend) SetMetaRoot(id BlockID) error {
	if m.closed {
		return ErrClosed
	}
	m.metaRoot = id
	return nil
}

// MetaRoot implements MetaRooter.
func (m *MemBackend) MetaRoot() (BlockID, error) {
	if m.closed {
		return NilBlock, ErrClosed
	}
	return m.metaRoot, nil
}

// NewMemBackend creates an in-memory backend with the given block size
// (DefaultBlockSize if size <= 0).
func NewMemBackend(size int) *MemBackend {
	if size <= 0 {
		size = DefaultBlockSize
	}
	return &MemBackend{
		blockSize: size,
		blocks:    make([][]byte, 1), // slot 0 reserved for NilBlock
	}
}

// BlockSize implements Backend.
func (m *MemBackend) BlockSize() int { return m.blockSize }

// Allocate implements Backend.
func (m *MemBackend) Allocate() (BlockID, error) {
	if m.closed {
		return NilBlock, ErrClosed
	}
	if n := len(m.free); n > 0 {
		id := m.free[n-1]
		m.free = m.free[:n-1]
		m.blocks[id] = make([]byte, m.blockSize)
		return id, nil
	}
	m.blocks = append(m.blocks, make([]byte, m.blockSize))
	return BlockID(len(m.blocks) - 1), nil
}

// Free implements Backend.
func (m *MemBackend) Free(id BlockID) error {
	if m.closed {
		return ErrClosed
	}
	if err := m.check(id); err != nil {
		return err
	}
	m.blocks[id] = nil
	m.free = append(m.free, id)
	return nil
}

// ReadBlock implements Backend.
func (m *MemBackend) ReadBlock(id BlockID, buf []byte) error {
	if m.closed {
		return ErrClosed
	}
	if err := m.check(id); err != nil {
		return err
	}
	if len(buf) != m.blockSize {
		return fmt.Errorf("pager: read buffer of %d bytes, want %d", len(buf), m.blockSize)
	}
	copy(buf, m.blocks[id])
	return nil
}

// WriteBlock implements Backend.
func (m *MemBackend) WriteBlock(id BlockID, buf []byte) error {
	if m.closed {
		return ErrClosed
	}
	if err := m.check(id); err != nil {
		return err
	}
	if len(buf) != m.blockSize {
		return fmt.Errorf("pager: write buffer of %d bytes, want %d", len(buf), m.blockSize)
	}
	copy(m.blocks[id], buf)
	return nil
}

// NumBlocks implements Backend.
func (m *MemBackend) NumBlocks() uint64 {
	return uint64(len(m.blocks) - 1 - len(m.free))
}

// Close implements Backend.
func (m *MemBackend) Close() error {
	m.closed = true
	m.blocks = nil
	m.free = nil
	return nil
}

func (m *MemBackend) check(id BlockID) error {
	if id == NilBlock || int(id) >= len(m.blocks) {
		return noBlockError(fmt.Sprintf("pager: block %d out of range", id))
	}
	if m.blocks[id] == nil {
		return noBlockError(fmt.Sprintf("pager: block %d is not allocated", id))
	}
	return nil
}
