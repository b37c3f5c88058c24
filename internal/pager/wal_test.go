package pager

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

const walTestBS = 64 // a 77-byte frame against the 45-byte commit record: coprime, so tails land at many alignments

// walTestTxn builds transaction number n of a synthetic log: frames block
// images whose contents, like the header state, depend on n and gen, so a
// record surviving from another generation cannot pass for a live one.
func walTestTxn(n, frames int, gen uint32) *walTxn {
	txn := &walTxn{hdr: walHeaderState{next: BlockID(100 + n), allocated: uint64(n), metaRoot: BlockID(gen), flags: flagsRequired}}
	for f := 0; f < frames; f++ {
		txn.images = append(txn.images, walImage{
			id:   BlockID(1 + f),
			data: bytes.Repeat([]byte{byte(16*n + f), byte(gen)}, walTestBS/2),
		})
	}
	return txn
}

// walTestLog renders a whole log of generation gen holding txns.
func walTestLog(gen uint32, txns []*walTxn) []byte {
	log := encodeWALHeader(walTestBS, gen)
	buf := make([]byte, walFrameSize(walTestBS))
	for _, txn := range txns {
		for _, img := range txn.images {
			log = append(log, encodeWALFrame(buf, img.id, img.data, gen)...)
		}
		log = append(log, encodeWALCommit(buf, len(txn.images), txn.hdr, gen)...)
	}
	return log
}

// fuzzWALLog is the valid log FuzzScanWAL extends with arbitrary tails:
// three transactions of one to three frames each.
func fuzzWALLog() ([]*walTxn, []byte) {
	txns := []*walTxn{walTestTxn(1, 2, 5), walTestTxn(2, 1, 5), walTestTxn(3, 3, 5)}
	return txns, walTestLog(5, txns)
}

// FuzzScanWAL scans the input as a whole log and as the tail of a valid
// log. Neither scan may panic or discard more bytes than it was given, and
// every error wraps ErrCorrupt; a clean scan of the valid log plus the tail
// returns the valid log's transactions first and unchanged. The seed
// corpus holds the valid log itself, a copy with its last record torn and
// a copy with one committed frame flipped.
func FuzzScanWAL(f *testing.F) {
	want, log := fuzzWALLog()
	f.Fuzz(func(t *testing.T, data []byte) {
		for i, in := range [][]byte{data, append(slices.Clip(log), data...)} {
			txns, discarded, err := scanWAL(in, walTestBS)
			if discarded < 0 || discarded > int64(len(in)) {
				t.Fatalf("scan %d discarded %d of %d bytes", i, discarded, len(in))
			}
			if err != nil {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("scan %d: error does not wrap ErrCorrupt: %v", i, err)
				}
				continue
			}
			if i == 1 {
				checkTxnPrefix(t, "valid log plus tail", txns, want)
			}
		}
	})
}

// overlay returns stale with its top overwritten by live, as a log reused
// in place looks after a checkpoint: it never shrinks.
func overlay(stale, live []byte) []byte {
	out := append([]byte(nil), stale...)
	if len(live) > len(out) {
		out = append(out, make([]byte, len(live)-len(out))...)
	}
	copy(out, live)
	return out
}

func checkScan(t *testing.T, tag string, data []byte, want []*walTxn) {
	t.Helper()
	got, _, err := scanWAL(data, walTestBS)
	if err != nil {
		t.Fatalf("%s: scan: %v", tag, err)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: scan returned %d transactions, want the %d live ones", tag, len(got), len(want))
	}
	checkTxnPrefix(t, tag, got, want)
}

// checkTxnPrefix fails unless got starts with want's transactions.
func checkTxnPrefix(t *testing.T, tag string, got, want []*walTxn) {
	t.Helper()
	if len(got) < len(want) {
		t.Fatalf("%s: scan returned %d transactions, want at least the %d live ones", tag, len(got), len(want))
	}
	for i := range want {
		if got[i].hdr != want[i].hdr || len(got[i].images) != len(want[i].images) {
			t.Fatalf("%s: transaction %d is not the live one: %+v", tag, i, got[i].hdr)
		}
		for j, img := range want[i].images {
			if got[i].images[j].id != img.id || !bytes.Equal(got[i].images[j].data, img.data) {
				t.Fatalf("%s: transaction %d image %d is not the live one", tag, i, j)
			}
		}
	}
}

// TestScanWALStaleTail: a log of generation g+1 whose tail still holds the
// frames and commit records of generation g (and, beyond those, of g-1)
// scans to the live prefix only — whatever the live tail's alignment
// against the stale records, including a complete stale transaction
// starting exactly where the live tail ends, and with the last live record
// torn over stale bytes.
func TestScanWALStaleTail(t *testing.T) {
	const gen = 7
	var older, old []*walTxn
	for n := 0; n < 14; n++ {
		older = append(older, walTestTxn(n, 3-n%4, gen-1))
	}
	for n := 0; n < 9; n++ {
		old = append(old, walTestTxn(n, n%4, gen))
	}
	stale := overlay(walTestLog(gen-1, older), walTestLog(gen, old))

	// Every live log of up to three transactions of 0..3 frames each: 85
	// tails, ending at 85 offsets of the stale stream.
	var shapes [][]int
	for a := -1; a < 4; a++ {
		for b := -1; b < 4; b++ {
			for c := -1; c < 4; c++ {
				if (a < 0 && b >= 0) || (b < 0 && c >= 0) {
					continue
				}
				var s []int
				for _, f := range []int{a, b, c} {
					if f >= 0 {
						s = append(s, f)
					}
				}
				shapes = append(shapes, s)
			}
		}
	}
	aligned := 0
	for _, shape := range shapes {
		var live []*walTxn
		for n, frames := range shape {
			live = append(live, walTestTxn(n, frames, gen+1))
		}
		liveLog := walTestLog(gen+1, live)
		data := overlay(stale, liveLog)
		tag := fmt.Sprintf("live shape %v", shape)
		checkScan(t, tag, data, live)

		// The same shape as the stale log's first transactions: the next
		// stale transaction, complete, starts exactly at the live tail.
		if staleEnd := len(walTestLog(gen, old[:len(shape)])); staleEnd == len(liveLog) {
			aligned++
		}

		// The last live record torn halfway over the stale bytes: the
		// transaction it belonged to never committed.
		if len(live) > 0 {
			last := walCommitSize
			torn := overlay(stale, liveLog[:len(liveLog)-last/2])
			checkScan(t, tag+", torn commit", torn, live[:len(live)-1])
		}
	}
	if aligned < 3 {
		t.Fatalf("only %d live tails ended exactly on a stale transaction boundary; the sweep lost its aligned cases", aligned)
	}

	// A header of generation g over frames of g+1 — the state a reset that
	// was not durable before the first new append could leave — replays
	// nothing, and neither does a reset log nothing was appended to.
	ahead := walTestLog(gen+1, []*walTxn{walTestTxn(0, 2, gen+1), walTestTxn(1, 1, gen+1)})
	copy(ahead, encodeWALHeader(walTestBS, gen))
	checkScan(t, "header behind its frames", ahead, nil)
	checkScan(t, "freshly reset log", overlay(stale, encodeWALHeader(walTestBS, gen+1)), nil)
}

// parentWAL is a log written by the commit before the generation existed
// (block size 64; the four header bytes after the block size were reserved
// and zero): one committed transaction of two frames — block 1 rewritten,
// block 2 allocated and written — cut down before its apply finished.
const parentWAL = "424f5857414c30314000000000000000" +
	"010100000000000000c0c1c2c3c4c5c6c7c8c9cacbcccdcecfc0c1c2c3c4c5c6c7c8c9cacbcccdcecfc0c1c2c3c4c5c6c7c8c9cacbcccdcecfc0c1c2c3c4c5c6c7c8c9cacbcccdcecf0028ebd4" +
	"010200000000000000000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f202122232425262728292a2b2c2d2e2f303132333435363738393a3b3c3d3e3f1c4c5437" +
	"0202000000030000000000000000000000000000000200000000000000000000000000000003000000afea7cae"

// TestGenerationZeroLogRedoes: a log in the parent's format is a
// generation-0 log, and opens and redoes as it always did.
func TestGenerationZeroLogRedoes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "gen0.box")
	fb, err := CreateFile(path, walTestBS)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fb.Allocate(); err != nil {
		t.Fatal(err)
	}
	if err := fb.Close(); err != nil {
		t.Fatal(err)
	}
	log, err := hex.DecodeString(parentWAL)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path+".wal", log, 0o644); err != nil {
		t.Fatal(err)
	}

	fb, err = OpenFile(path)
	if err != nil {
		t.Fatalf("open over a parent-format log: %v", err)
	}
	defer fb.Close()
	if rec := fb.RecoveryInfo(); rec.ReplayedTxns != 1 || rec.ReplayedFrames != 2 {
		t.Fatalf("recovery = %+v, want one transaction of two frames replayed", rec)
	}
	if fb.Bound() != 3 || fb.NumBlocks() != 2 {
		t.Fatalf("header after redo: bound %d, %d blocks; want 3 and 2", fb.Bound(), fb.NumBlocks())
	}
	buf := make([]byte, walTestBS)
	for id, first := range map[BlockID]byte{1: 0xC0, 2: 0x00} {
		if err := fb.ReadBlock(id, buf); err != nil {
			t.Fatalf("block %d after redo: %v", id, err)
		}
		if buf[0] != first || buf[1] != first+1 {
			t.Fatalf("block %d after redo starts %x %x, want %x %x", id, buf[0], buf[1], first, first+1)
		}
	}
	// The redo reset the log: the next generation, nothing to replay.
	if fb.walGen != 1 || fileLen(t, path+".wal") != walHeaderSize {
		t.Fatalf("after redo: generation %d, log of %d bytes; want 1 and %d", fb.walGen, fileLen(t, path+".wal"), walHeaderSize)
	}
}
