package pager

import (
	"errors"
	"fmt"

	"boxes/internal/faults"
)

// ErrInjected marks a failure a FaultBackend injected (as opposed to one
// the wrapped device produced).
var ErrInjected = errors.New("pager: injected I/O failure")

// FaultBackend is the one Backend-level fault injector: it routes every
// data operation of a Backend through a faults.Injector (normally a seeded
// faults.Schedule) and turns the injector's decisions into the pager's
// typed errors. Transient faults wrap ErrInjected and faults.ErrTransient
// (the op fails and may be re-issued), permanent faults wrap
// ErrInjected alone, and crash decisions kill the device with ErrCrashed —
// a torn crash persisting a half-written block image first. A Store
// layered on top counts each injected failure in its error metrics
// (pager_injected_failures_total), so fault-injection runs are observable.
//
// Torn mode writes through to the inner backend, so over a FileBackend —
// whose batching would commit the torn image atomically and mask the tear
// — use a DiskController for intra-commit crash points instead.
//
// Batch and metadata capabilities pass through: when the inner backend is
// a TxBackend or MetaRooter, the wrapper delegates; otherwise BeginBatch /
// AbortBatch are no-ops, CommitBatch succeeds trivially, and the metadata
// root is kept in memory — good enough for fault-injection tests over a
// MemBackend, transparent over a FileBackend. Transaction plumbing
// (commit, batch bookkeeping) is intentionally not charged: faults fire
// at logical block operations.
type FaultBackend struct {
	Inner    Backend
	Injector faults.Injector

	memRoot BlockID // fallback meta root when Inner is not a MetaRooter
}

// NewFaultBackend wraps inner with a fault injector.
func NewFaultBackend(inner Backend, inj faults.Injector) *FaultBackend {
	return &FaultBackend{Inner: inner, Injector: inj}
}

// charge asks the injector for a verdict on op and renders it as an error
// (nil when the operation may proceed).
func (b *FaultBackend) charge(op faults.Op) error {
	d := b.Injector.Decide(op)
	if !d.Fail {
		return nil
	}
	switch d.Mode {
	case faults.ModeCrash:
		return fmt.Errorf("%w (%s)", ErrCrashed, op)
	case faults.ModeTransient:
		return fmt.Errorf("%w (%s, %w)", ErrInjected, op, faults.ErrTransient)
	case faults.ModeNoSpace:
		return fmt.Errorf("%w (%s, %w)", ErrInjected, op, faults.ErrNoSpace)
	default:
		return fmt.Errorf("%w (%s, permanent)", ErrInjected, op)
	}
}

// BlockSize implements Backend.
func (b *FaultBackend) BlockSize() int { return b.Inner.BlockSize() }

// Allocate implements Backend.
func (b *FaultBackend) Allocate() (BlockID, error) {
	if err := b.charge(faults.OpAllocate); err != nil {
		return NilBlock, err
	}
	return b.Inner.Allocate()
}

// Free implements Backend.
func (b *FaultBackend) Free(id BlockID) error {
	if err := b.charge(faults.OpFree); err != nil {
		return err
	}
	return b.Inner.Free(id)
}

// ReadBlock implements Backend.
func (b *FaultBackend) ReadBlock(id BlockID, buf []byte) error {
	if err := b.charge(faults.OpRead); err != nil {
		return err
	}
	return b.Inner.ReadBlock(id, buf)
}

// WriteBlock implements Backend. A torn crash decision persists a merged
// half image (new first half, old second half) before the device dies.
func (b *FaultBackend) WriteBlock(id BlockID, buf []byte) error {
	d := b.Injector.Decide(faults.OpWrite)
	if !d.Fail {
		return b.Inner.WriteBlock(id, buf)
	}
	switch d.Mode {
	case faults.ModeCrash:
		if d.Torn {
			old := make([]byte, b.Inner.BlockSize())
			if err := b.Inner.ReadBlock(id, old); err == nil {
				half := len(buf) / 2
				img := make([]byte, len(buf))
				copy(img, old)
				copy(img[:half], buf[:half])
				b.Inner.WriteBlock(id, img)
			}
		}
		return fmt.Errorf("%w (block %d)", ErrCrashed, id)
	case faults.ModeTransient:
		return fmt.Errorf("%w (write block %d, %w)", ErrInjected, id, faults.ErrTransient)
	case faults.ModeNoSpace:
		return fmt.Errorf("%w (write block %d, %w)", ErrInjected, id, faults.ErrNoSpace)
	default:
		return fmt.Errorf("%w (write block %d, permanent)", ErrInjected, id)
	}
}

// NumBlocks implements Backend.
func (b *FaultBackend) NumBlocks() uint64 { return b.Inner.NumBlocks() }

// Close implements Backend: the inner backend is always closed so a
// harness can reopen the underlying file after a simulated crash.
func (b *FaultBackend) Close() error { return b.Inner.Close() }

// BeginBatch implements TxBackend by delegation (no-op otherwise).
func (b *FaultBackend) BeginBatch() {
	if tx, ok := b.Inner.(TxBackend); ok {
		tx.BeginBatch()
	}
}

// CommitBatch implements TxBackend by delegation (trivially durable
// otherwise).
func (b *FaultBackend) CommitBatch() error {
	if tx, ok := b.Inner.(TxBackend); ok {
		return tx.CommitBatch()
	}
	return nil
}

// AbortBatch implements TxBackend by delegation (no-op otherwise).
func (b *FaultBackend) AbortBatch() {
	if tx, ok := b.Inner.(TxBackend); ok {
		tx.AbortBatch()
	}
}

// SetMetaRoot implements MetaRooter by delegation, falling back to an
// in-memory root over plain backends.
func (b *FaultBackend) SetMetaRoot(id BlockID) error {
	if mr, ok := b.Inner.(MetaRooter); ok {
		return mr.SetMetaRoot(id)
	}
	b.memRoot = id
	return nil
}

// MetaRoot implements MetaRooter by delegation, falling back to an
// in-memory root over plain backends.
func (b *FaultBackend) MetaRoot() (BlockID, error) {
	if mr, ok := b.Inner.(MetaRooter); ok {
		return mr.MetaRoot()
	}
	return b.memRoot, nil
}

var (
	_ TxBackend  = (*FaultBackend)(nil)
	_ MetaRooter = (*FaultBackend)(nil)
)
