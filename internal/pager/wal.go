package pager

import (
	"encoding/binary"
	"io"
)

// The write-ahead log makes every pager batch (one logical Store operation)
// all-or-nothing across power cuts. This file is the log's format;
// FileBackend.commitWAL and FileBackend.checkpoint are the protocol's one
// implementation.
//
// Commit — what an acknowledged write pays for:
//
//  1. Append one block frame per staged image to <path>.wal, then a commit
//     record carrying the frame count and the complete header state.
//  2. fsync the WAL. The operation is durable and is acknowledged; its
//     images are owed to the data file, and readers are served them from
//     that debt until the checkpoint pays it.
//
// Both steps, and the checkpoint a commit may trigger, run inline on the
// exclusive writer: the log has one appender and no commit queue.
//
// Checkpoint — when the log passes WALCheckpointBytes, and at Sync and
// Close:
//
//  3. Apply the newest logged image of each block in place, update the
//     checksum sidecar, write the last logged header, fsync data and sidecar.
//  4. Reset the log in place: rewrite its header with generation + 1 and
//     fsync it. The file keeps its length; the next commit overwrites the
//     old frames from the top. Only Close truncates it back to its header.
//
// Every frame and commit-record checksum has the log's generation mixed in,
// so whatever an earlier generation left beyond the live tail fails its
// checksum and scans exactly as a torn tail does. The reset must be durable
// before the first frame of the new generation is appended: were a crash to
// keep the old header over a partly overwritten log, an old-generation
// prefix would replay over a data file that already holds later images.
// Generation 0 with nothing mixed in is the format of logs written before
// the generation existed.
//
// Recovery at open scans the WAL: every complete committed transaction of
// the header's generation is replayed in order (a checkpoint may have been
// interrupted anywhere — replay is pure physical redo and idempotent), an
// incomplete tail is discarded (the cut came before the commit fsync, so the
// operation never happened). A frame whose checksum fails inside a
// *committed* transaction is real corruption and surfaces as ErrCorrupt
// rather than being silently dropped.

// walMagic identifies a FileBackend write-ahead log file.
var walMagic = [8]byte{'B', 'O', 'X', 'W', 'A', 'L', '0', '1'}

// walHeaderSize is magic (8) + block size (4) + generation (4).
const walHeaderSize = 16

// WALCheckpointBytes is the log size past which the goroutine that just
// appended runs a checkpoint: some 80 commits of five 8 KB blocks, so the
// checkpoint's three fsyncs stay out of the write tail latency, and a bound
// on both the redo at open and the memory the unapplied images pin.
const WALCheckpointBytes = 4 << 20

const (
	walKindBlock  = 1
	walKindCommit = 2
)

// walCommitSize is kind (1) + count (4) + next (8) + freeHead (8) +
// allocated (8) + metaRoot (8) + flags (4) + crc (4).
const walCommitSize = 45

// walFrameSize is the size of one block frame for the given block size:
// kind (1) + block ID (8) + payload + crc (4).
func walFrameSize(blockSize int) int { return 13 + blockSize }

// walImage is one staged block image inside a transaction.
type walImage struct {
	id   BlockID
	data []byte
}

// walHeaderState is the header snapshot carried by a commit frame.
type walHeaderState struct {
	next      BlockID
	freeHead  BlockID
	allocated uint64
	metaRoot  BlockID
	flags     uint32
}

// walTxn is one committed transaction recovered from the log.
type walTxn struct {
	images []walImage
	hdr    walHeaderState
}

// encodeWALHeader renders the WAL file header.
func encodeWALHeader(blockSize int, gen uint32) []byte {
	buf := make([]byte, walHeaderSize)
	copy(buf[:8], walMagic[:])
	binary.LittleEndian.PutUint32(buf[8:12], uint32(blockSize))
	binary.LittleEndian.PutUint32(buf[12:16], gen)
	return buf
}

// encodeWALFrame renders one block frame of generation gen into buf, which
// must hold walFrameSize(len(data)) bytes, and returns the frame.
func encodeWALFrame(buf []byte, id BlockID, data []byte, gen uint32) []byte {
	buf = buf[:walFrameSize(len(data))]
	buf[0] = walKindBlock
	binary.LittleEndian.PutUint64(buf[1:9], uint64(id))
	copy(buf[9:], data)
	binary.LittleEndian.PutUint32(buf[len(buf)-4:], checksum(buf[:len(buf)-4])^gen)
	return buf
}

// encodeWALCommit renders a commit record of generation gen into buf, which
// must hold walCommitSize bytes, and returns the record.
func encodeWALCommit(buf []byte, count int, hdr walHeaderState, gen uint32) []byte {
	buf = buf[:walCommitSize]
	buf[0] = walKindCommit
	binary.LittleEndian.PutUint32(buf[1:5], uint32(count))
	binary.LittleEndian.PutUint64(buf[5:13], uint64(hdr.next))
	binary.LittleEndian.PutUint64(buf[13:21], uint64(hdr.freeHead))
	binary.LittleEndian.PutUint64(buf[21:29], hdr.allocated)
	binary.LittleEndian.PutUint64(buf[29:37], uint64(hdr.metaRoot))
	binary.LittleEndian.PutUint32(buf[37:41], hdr.flags)
	binary.LittleEndian.PutUint32(buf[41:45], checksum(buf[:41])^gen)
	return buf
}

// readAll reads the entire file through a blockFile (which has no Seek),
// probing forward in fixed chunks until EOF.
func readAll(f blockFile) ([]byte, error) {
	var out []byte
	buf := make([]byte, 64*1024)
	off := int64(0)
	for {
		n, err := f.ReadAt(buf, off)
		out = append(out, buf[:n]...)
		off += int64(n)
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		if n == 0 {
			return out, nil
		}
	}
}

// scanWAL parses a WAL file's contents (header included). It returns every
// complete committed transaction of the header's generation in append order
// (nil if none), the number of trailing bytes belonging to an uncommitted or
// stale tail, and an error when a committed transaction is unreadable (bit
// rot inside fsynced frames) or the WAL header itself is invalid. The log
// routinely holds many committed transactions; replaying them in order —
// pure idempotent physical redo — reconstructs exactly the committed prefix.
func scanWAL(data []byte, blockSize int) (txns []*walTxn, discarded int64, err error) {
	if len(data) < walHeaderSize {
		// Truncated below its own header: treat as empty (a crash during
		// WAL creation, before anything could have committed).
		return nil, int64(len(data)), nil
	}
	var magic [8]byte
	copy(magic[:], data[:8])
	if magic != walMagic {
		return nil, 0, corruptRegion("wal", "bad magic")
	}
	if bs := int(binary.LittleEndian.Uint32(data[8:12])); bs != blockSize {
		return nil, 0, corruptRegion("wal", "block size %d, store uses %d", bs, blockSize)
	}
	gen := binary.LittleEndian.Uint32(data[12:16])

	frameSize := walFrameSize(blockSize)
	pos := walHeaderSize
	lastCommitEnd := walHeaderSize
	var pending []walImage
	pendingBad := false
	for pos < len(data) {
		switch data[pos] {
		case walKindBlock:
			if pos+frameSize > len(data) {
				return txns, int64(len(data) - lastCommitEnd), nil // torn tail
			}
			frame := data[pos : pos+frameSize]
			if checksum(frame[:frameSize-4])^gen != binary.LittleEndian.Uint32(frame[frameSize-4:]) {
				// Frame size is fixed, so keep scanning: if a valid commit
				// follows, this is corruption inside a committed
				// transaction; if not, it is an ordinary torn tail.
				pendingBad = true
				pos += frameSize
				continue
			}
			id := BlockID(binary.LittleEndian.Uint64(frame[1:9]))
			img := make([]byte, blockSize)
			copy(img, frame[9:9+blockSize])
			pending = append(pending, walImage{id: id, data: img})
			pos += frameSize
		case walKindCommit:
			if pos+walCommitSize > len(data) {
				return txns, int64(len(data) - lastCommitEnd), nil // torn tail
			}
			frame := data[pos : pos+walCommitSize]
			if checksum(frame[:41])^gen != binary.LittleEndian.Uint32(frame[41:45]) {
				return txns, int64(len(data) - lastCommitEnd), nil // torn commit
			}
			count := int(binary.LittleEndian.Uint32(frame[1:5]))
			if pendingBad {
				return nil, 0, corruptRegion("wal", "committed transaction has %d frames but at least one fails its checksum", count)
			}
			if count != len(pending) {
				return nil, 0, corruptRegion("wal", "commit record covers %d frames, found %d", count, len(pending))
			}
			txns = append(txns, &walTxn{
				images: pending,
				hdr: walHeaderState{
					next:      BlockID(binary.LittleEndian.Uint64(frame[5:13])),
					freeHead:  BlockID(binary.LittleEndian.Uint64(frame[13:21])),
					allocated: binary.LittleEndian.Uint64(frame[21:29]),
					metaRoot:  BlockID(binary.LittleEndian.Uint64(frame[29:37])),
					flags:     binary.LittleEndian.Uint32(frame[37:41]),
				},
			})
			pending = nil
			pendingBad = false
			pos += walCommitSize
			lastCommitEnd = pos
		default:
			// Unknown kind byte: a torn append. Everything from the last
			// commit on is an uncommitted tail.
			return txns, int64(len(data) - lastCommitEnd), nil
		}
	}
	return txns, int64(pos - lastCommitEnd), nil
}

// validateWALImages rejects committed frames naming impossible blocks.
func validateWALImages(txn *walTxn, blockSize int) error {
	for _, img := range txn.images {
		if img.id == NilBlock {
			return corruptRegion("wal", "committed frame names block 0")
		}
		if img.id >= txn.hdr.next {
			return corruptRegion("wal", "committed frame names block %d beyond next=%d", img.id, txn.hdr.next)
		}
		if len(img.data) != blockSize {
			return corruptRegion("wal", "committed frame holds %d bytes, block size %d", len(img.data), blockSize)
		}
	}
	return nil
}
