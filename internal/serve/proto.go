// Package serve is the network service layer: a gateway (Server) that
// owns one durable core.Store and speaks a length-prefixed native
// protocol, and the matching Client with retries, deadlines, and
// idempotent reconnect. The layer is robustness-first:
//
//   - every frame is CRC-guarded, so byte corruption on the wire is a
//     detected connection error, never a misparsed op;
//   - every request carries a deadline; requests cancel while queued but
//     never mid-WAL-commit (core.ApplyBatchCtx semantics);
//   - admission is bounded: a full write queue sheds with a typed
//     overload status instead of growing goroutines;
//   - an acknowledged op is durable (the server replies only after its
//     batch's WAL fsync), and an unacknowledged op is atomic:
//     fully present or fully absent, never partial;
//   - sessions carry per-op sequence numbers, so a client that loses an
//     ack can re-send the same seq after reconnect and get exactly-once
//     application within one server lifetime (the handshake's epoch
//     exposes restarts, where the dedup table is gone).
package serve

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"boxes/internal/enc"
	"boxes/internal/order"
)

// Frame layout: [4B length][4B CRC32-C of payload][payload]. The length
// counts payload bytes only.
const (
	frameHeaderSize = 8
	// MaxFrame bounds a single frame's payload so a corrupted or hostile
	// length prefix cannot balloon allocation.
	MaxFrame = 1 << 20
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrBadFrame reports a frame whose CRC did not match its payload or
// whose length prefix was out of bounds. The connection is unusable past
// it (framing is lost).
var ErrBadFrame = errors.New("serve: bad frame (corrupt length or checksum)")

// writeFrame prepends the frame header to payload and writes both with a
// single Write call, so a fault injector's per-write decisions map 1:1 to
// protocol write points.
func writeFrame(w io.Writer, payload []byte) error {
	return sendFrame(w, append(startFrame(make([]byte, 0, frameHeaderSize+len(payload))), payload...))
}

// startFrame resets buf to an empty frame under construction: room for the
// header, after which the caller appends the payload and calls sendFrame.
// A connection that keeps buf across frames allocates for none of them.
func startFrame(buf []byte) []byte {
	return append(buf[:0], make([]byte, frameHeaderSize)...)
}

// sendFrame fills in the header of the frame built in buf since startFrame
// and writes header and payload with a single Write call.
func sendFrame(w io.Writer, buf []byte) error {
	payload := buf[frameHeaderSize:]
	if len(payload) > MaxFrame {
		return fmt.Errorf("serve: frame payload %d exceeds max %d", len(payload), MaxFrame)
	}
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.Checksum(payload, crcTable))
	_, err := w.Write(buf)
	return err
}

// readFrame reads one frame, verifying length bounds and CRC.
func readFrame(r io.Reader) ([]byte, error) { return readFrameInto(r, nil) }

// readFrameInto is readFrame into buf's storage, grown when the frame
// needs more: the returned payload is valid until buf is used again, and a
// connection that passes each payload back as the next buf stops
// allocating once it has seen its largest frame.
func readFrameInto(r io.Reader, buf []byte) ([]byte, error) {
	if cap(buf) < frameHeaderSize {
		buf = make([]byte, 64)
	}
	hdr := buf[:frameHeaderSize]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, err
	}
	n, sum := binary.LittleEndian.Uint32(hdr[0:4]), binary.LittleEndian.Uint32(hdr[4:8])
	if n > MaxFrame {
		return nil, ErrBadFrame
	}
	if int(n) > cap(buf) {
		buf = make([]byte, n)
	}
	payload := buf[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	if crc32.Checksum(payload, crcTable) != sum {
		return nil, ErrBadFrame
	}
	return payload, nil
}

// Opcodes. The write set maps 1:1 onto core.Op kinds; Compare is the
// order query the labeling scheme exists to answer.
const (
	OpInsert        uint8 = 1 // insert one element before LID
	OpInsertFirst   uint8 = 2 // bootstrap insert on an empty document
	OpDeleteElement uint8 = 3 // delete an element's start+end labels
	OpDeleteSubtree uint8 = 4 // delete an element and its descendants
	OpLookup        uint8 = 5 // read the label of LID
	OpCompare       uint8 = 6 // order two LIDs by document position
	OpBatch         uint8 = 7 // several write ops as one atomic batch
)

// OpName returns the wire opcode's human name (metrics row keys).
func OpName(op uint8) string {
	switch op {
	case OpInsert:
		return "insert"
	case OpInsertFirst:
		return "insert-first"
	case OpDeleteElement:
		return "delete-element"
	case OpDeleteSubtree:
		return "delete-subtree"
	case OpLookup:
		return "lookup"
	case OpCompare:
		return "compare"
	case OpBatch:
		return "batch"
	default:
		return fmt.Sprintf("op(%d)", op)
	}
}

// Status codes. Every non-OK status is typed so clients can distinguish
// shed-and-retry (overload) from give-up (draining, restart) without
// parsing message strings.
const (
	StatusOK         uint8 = 0
	StatusError      uint8 = 1 // op-level failure; Msg carries the cause
	StatusOverload   uint8 = 2 // write queue full; retry with backoff
	StatusDeadline   uint8 = 3 // deadline expired while queued; not applied
	StatusDraining   uint8 = 4 // server is draining; op not applied
	StatusUnknownLID uint8 = 5 // the targeted LID does not exist
	StatusReadOnly   uint8 = 6 // store is in read-only degraded mode
	StatusBadRequest uint8 = 7 // malformed or out-of-sequence request
)

func statusName(s uint8) string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusError:
		return "error"
	case StatusOverload:
		return "overload"
	case StatusDeadline:
		return "deadline"
	case StatusDraining:
		return "draining"
	case StatusUnknownLID:
		return "unknown-lid"
	case StatusReadOnly:
		return "read-only"
	case StatusBadRequest:
		return "bad-request"
	default:
		return fmt.Sprintf("status(%d)", s)
	}
}

// BatchOp is one write inside an OpBatch request.
type BatchOp struct {
	Op   uint8 // OpInsert, OpInsertFirst, OpDeleteElement, OpDeleteSubtree
	LID  order.LID
	Elem order.ElemLIDs
}

// Request is one client request. Which fields are read depends on Op.
type Request struct {
	Seq        uint64 // per-session sequence number, strictly increasing
	Op         uint8
	DeadlineMS uint32         // remaining budget in ms when sent; 0 = none
	LID        order.LID      // OpInsert, OpLookup
	Elem       order.ElemLIDs // OpDeleteElement, OpDeleteSubtree
	A, B       order.LID      // OpCompare
	Batch      []BatchOp      // OpBatch
}

// BatchResult is one positional result inside an OpBatch response.
type BatchResult struct {
	Elem order.ElemLIDs // insert results
}

// Response answers the request with the same Seq.
type Response struct {
	Seq    uint64
	Status uint8
	Elem   order.ElemLIDs // OpInsert, OpInsertFirst
	Label  order.Label    // OpLookup
	Cmp    int8           // OpCompare
	Batch  []BatchResult  // OpBatch
	Msg    string         // non-OK detail
}

// encodeRequest serializes r (little-endian, fixed field order).
func encodeRequest(r *Request) []byte {
	buf := make([]byte, 0, 64)
	buf = binary.LittleEndian.AppendUint64(buf, r.Seq)
	buf = append(buf, r.Op)
	buf = binary.LittleEndian.AppendUint32(buf, r.DeadlineMS)
	switch r.Op {
	case OpInsert, OpLookup:
		buf = binary.LittleEndian.AppendUint64(buf, uint64(r.LID))
	case OpDeleteElement, OpDeleteSubtree:
		buf = binary.LittleEndian.AppendUint64(buf, uint64(r.Elem.Start))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(r.Elem.End))
	case OpCompare:
		buf = binary.LittleEndian.AppendUint64(buf, uint64(r.A))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(r.B))
	case OpBatch:
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.Batch)))
		for _, b := range r.Batch {
			buf = append(buf, b.Op)
			buf = binary.LittleEndian.AppendUint64(buf, uint64(b.LID))
			buf = binary.LittleEndian.AppendUint64(buf, uint64(b.Elem.Start))
			buf = binary.LittleEndian.AppendUint64(buf, uint64(b.Elem.End))
		}
	}
	return buf
}

// decodeRequest decodes a request frame's payload; it accepts exactly what
// encodeRequest writes.
func decodeRequest(payload []byte) (*Request, error) {
	c := enc.NewReader(payload)
	r := &Request{}
	r.Seq = c.U64()
	r.Op = c.U8()
	r.DeadlineMS = c.U32()
	switch r.Op {
	case OpInsert, OpLookup:
		r.LID = order.LID(c.U64())
	case OpInsertFirst:
	case OpDeleteElement, OpDeleteSubtree:
		r.Elem.Start = order.LID(c.U64())
		r.Elem.End = order.LID(c.U64())
	case OpCompare:
		r.A = order.LID(c.U64())
		r.B = order.LID(c.U64())
	case OpBatch:
		r.Batch = make([]BatchOp, c.Count(1+3*8))
		for i := range r.Batch {
			r.Batch[i].Op = c.U8()
			r.Batch[i].LID = order.LID(c.U64())
			r.Batch[i].Elem.Start = order.LID(c.U64())
			r.Batch[i].Elem.End = order.LID(c.U64())
		}
	default:
		return nil, fmt.Errorf("serve: unknown opcode %d", r.Op)
	}
	if err := c.Done(); err != nil {
		return nil, fmt.Errorf("serve: malformed request: %w", err)
	}
	return r, nil
}

// appendResponse appends r's encoding to buf.
func appendResponse(buf []byte, r *Response) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, r.Seq)
	buf = append(buf, r.Status)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(r.Elem.Start))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(r.Elem.End))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(r.Label))
	buf = append(buf, byte(r.Cmp))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.Batch)))
	for _, b := range r.Batch {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(b.Elem.Start))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(b.Elem.End))
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.Msg)))
	buf = append(buf, r.Msg...)
	return buf
}

// decodeResponse decodes a response frame's payload; it accepts exactly
// what appendResponse writes.
func decodeResponse(payload []byte) (*Response, error) {
	c := enc.NewReader(payload)
	r := &Response{}
	r.Seq = c.U64()
	r.Status = c.U8()
	r.Elem.Start = order.LID(c.U64())
	r.Elem.End = order.LID(c.U64())
	r.Label = order.Label(c.U64())
	r.Cmp = int8(c.U8())
	if n := c.Count(2 * 8); n > 0 {
		r.Batch = make([]BatchResult, n)
		for i := range r.Batch {
			r.Batch[i].Elem.Start = order.LID(c.U64())
			r.Batch[i].Elem.End = order.LID(c.U64())
		}
	}
	r.Msg = string(c.Bytes(c.Count(1)))
	if err := c.Done(); err != nil {
		return nil, fmt.Errorf("serve: malformed response: %w", err)
	}
	return r, nil
}

// Handshake. The client opens with magic + its session ID (0 = new) +
// the last seq it sent; the server replies with magic + the granted
// session ID + its boot epoch + the last seq it has seen for that session
// (0 for a new or unknown session). A client reconnecting after a lost
// ack compares epochs: same epoch means the dedup table survived and
// re-sending the in-flight seq is exactly-once; a changed epoch means the
// server restarted and the op's outcome must be treated as unknown (but
// atomic — fully present or fully absent).
var helloMagic = [8]byte{'B', 'O', 'X', 'S', 'R', 'V', '0', '1'}

type clientHello struct {
	Session uint64
	LastSeq uint64
}

type serverHello struct {
	Session  uint64
	Epoch    uint64
	KnownSeq uint64
}

func writeClientHello(w io.Writer, h clientHello) error {
	buf := make([]byte, 0, 24)
	buf = append(buf, helloMagic[:]...)
	buf = binary.LittleEndian.AppendUint64(buf, h.Session)
	buf = binary.LittleEndian.AppendUint64(buf, h.LastSeq)
	return writeFrame(w, buf)
}

func readClientHello(r io.Reader) (clientHello, error) {
	payload, err := readFrame(r)
	if err != nil {
		return clientHello{}, err
	}
	c := enc.NewReader(payload)
	magic := c.Bytes(len(helloMagic))
	h := clientHello{Session: c.U64(), LastSeq: c.U64()}
	if c.Done() != nil || string(magic) != string(helloMagic[:]) {
		return clientHello{}, fmt.Errorf("serve: bad client hello")
	}
	return h, nil
}

func writeServerHello(w io.Writer, h serverHello) error {
	buf := make([]byte, 0, 32)
	buf = append(buf, helloMagic[:]...)
	buf = binary.LittleEndian.AppendUint64(buf, h.Session)
	buf = binary.LittleEndian.AppendUint64(buf, h.Epoch)
	buf = binary.LittleEndian.AppendUint64(buf, h.KnownSeq)
	return writeFrame(w, buf)
}

func readServerHello(r io.Reader) (serverHello, error) {
	payload, err := readFrame(r)
	if err != nil {
		return serverHello{}, err
	}
	c := enc.NewReader(payload)
	magic := c.Bytes(len(helloMagic))
	h := serverHello{Session: c.U64(), Epoch: c.U64(), KnownSeq: c.U64()}
	if c.Done() != nil || string(magic) != string(helloMagic[:]) {
		return serverHello{}, fmt.Errorf("serve: bad server hello")
	}
	return h, nil
}
