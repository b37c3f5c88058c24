package serve

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"runtime"
	"testing"
)

// The message fuzz targets below FuzzReadFrame share one property: a
// payload that decodes re-encodes to the same bytes, so a decoder accepts
// exactly what its encoder writes and no input is read two ways. Their
// seed corpus under testdata/fuzz holds one request frame per opcode (a
// two-op batch among them), a plain, a batch and an error response, and
// one of each hello.

// frameAllocSlack is what FuzzReadFrame forgives on top of one
// MaxFrame-sized buffer: the reader's own small allocations, plus
// whatever the test process allocates elsewhere while the frame is read.
const frameAllocSlack = 64 << 10

// FuzzReadFrame feeds raw bytes to readFrameInto, which frames every
// message on the wire. A frame comes back only when its length prefix is
// within MaxFrame, that many payload bytes follow, and their CRC matches,
// and then it is exactly those bytes; anything else is a typed error. No
// input panics, and none makes the reader allocate past one MaxFrame
// buffer. The seeds under testdata/fuzz/FuzzReadFrame are a good frame, a
// torn one, one with a bad CRC and one whose length is over the cap.
func FuzzReadFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		payload, err := readFrameInto(r, nil)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > MaxFrame+frameAllocSlack {
			t.Fatalf("reading %d bytes allocated %d, over the %d-byte frame cap", len(data), grew, MaxFrame)
		}
		// short is the error io.ReadFull gives when it finds only have of
		// the bytes it needs.
		short := func(have int) error {
			if have == 0 {
				return io.EOF
			}
			return io.ErrUnexpectedEOF
		}
		if len(data) < frameHeaderSize {
			if want := short(len(data)); !errors.Is(err, want) {
				t.Fatalf("%d-byte header: err = %v, want %v", len(data), err, want)
			}
			return
		}
		n, sum := binary.LittleEndian.Uint32(data[0:4]), binary.LittleEndian.Uint32(data[4:8])
		body := data[frameHeaderSize:]
		var want error
		switch {
		case n > MaxFrame:
			want = ErrBadFrame
		case uint64(len(body)) < uint64(n):
			want = short(len(body))
		case crc32.Checksum(body[:n], crcTable) != sum:
			want = ErrBadFrame
		}
		if !errors.Is(err, want) {
			t.Fatalf("frame of length %d over %d body bytes: err = %v, want %v", n, len(body), err, want)
		}
		if want == nil && !bytes.Equal(payload, body[:n]) {
			t.Fatalf("payload %x, want %x", payload, body[:n])
		}
	})
}

func FuzzDecodeRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, payload []byte) {
		r, err := decodeRequest(payload)
		if err != nil {
			return
		}
		if got := encodeRequest(r); !bytes.Equal(got, payload) {
			t.Fatalf("request %+v decoded from %x re-encodes to %x", r, payload, got)
		}
	})
}

func FuzzDecodeResponse(f *testing.F) {
	f.Fuzz(func(t *testing.T, payload []byte) {
		r, err := decodeResponse(payload)
		if err != nil {
			return
		}
		if got := appendResponse(nil, r); !bytes.Equal(got, payload) {
			t.Fatalf("response %+v decoded from %x re-encodes to %x", r, payload, got)
		}
	})
}

// helloRoundTrip frames payload, reads it back with read, writes what was
// read with write, and fails unless the two frames are byte-identical.
func helloRoundTrip[H any](t *testing.T, payload []byte, read func(io.Reader) (H, error), write func(io.Writer, H) error) {
	var in, out bytes.Buffer
	if writeFrame(&in, payload) != nil {
		return // over MaxFrame: no hello that large can be sent
	}
	framed := bytes.Clone(in.Bytes())
	h, err := read(&in)
	if err != nil {
		return
	}
	if err := write(&out, h); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), framed) {
		t.Fatalf("hello %+v read from %x re-encodes to %x", h, framed, out.Bytes())
	}
}

func FuzzClientHello(f *testing.F) {
	f.Fuzz(func(t *testing.T, payload []byte) {
		helloRoundTrip(t, payload, readClientHello, writeClientHello)
	})
}

func FuzzServerHello(f *testing.F) {
	f.Fuzz(func(t *testing.T, payload []byte) {
		helloRoundTrip(t, payload, readServerHello, writeServerHello)
	})
}
