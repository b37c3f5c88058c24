// Package enc is the one bounds-checked little-endian reader that every
// decoder of untrusted bytes reads through: the wire protocol and the
// saved metadata blob. No length taken from the input is trusted before it
// has been checked against the bytes that remain, so a hostile count can
// fail a decode but never size an allocation.
package enc

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Reader consumes its input from the front. The first short read latches
// io.ErrUnexpectedEOF and every later read returns zero values, so a
// decoder can chain reads and check once, with Done.
type Reader struct {
	b   []byte
	err error
}

// NewReader returns a Reader over b. Slices it returns alias b.
func NewReader(b []byte) Reader { return Reader{b: b} }

// Bytes returns the next n bytes.
func (r *Reader) Bytes(n int) []byte {
	if r.err != nil || uint(n) > uint(len(r.b)) {
		if r.err == nil {
			r.err = io.ErrUnexpectedEOF
		}
		return nil
	}
	v := r.b[:n:n]
	r.b = r.b[n:]
	return v
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	if b := r.Bytes(1); b != nil {
		return b[0]
	}
	return 0
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	if b := r.Bytes(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	if b := r.Bytes(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// Rest returns every unread byte.
func (r *Reader) Rest() []byte { return r.Bytes(len(r.b)) }

// Count reads a uint32 element count and returns it only when that many
// elements of elemSize bytes fit in the bytes that remain; otherwise it
// latches an error and returns 0.
func (r *Reader) Count(elemSize int) int {
	n := r.U32()
	if r.err == nil && uint64(n)*uint64(elemSize) > uint64(len(r.b)) {
		r.err = fmt.Errorf("enc: count %d of %d-byte elements overruns the %d bytes left: %w", n, elemSize, len(r.b), io.ErrUnexpectedEOF)
		return 0
	}
	return int(n)
}

// Done ends a decode: it returns the latched error, or an error when bytes
// remain unread. The encoders never write trailing bytes, so whatever
// decodes re-encodes to the same bytes.
func (r *Reader) Done() error {
	if r.err == nil && len(r.b) > 0 {
		return fmt.Errorf("enc: %d trailing bytes", len(r.b))
	}
	return r.err
}
