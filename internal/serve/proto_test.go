package serve

import (
	"bytes"
	"io"
	"testing"
)

// The wire fuzz targets share one property: a payload that decodes
// re-encodes to the same bytes, so a decoder accepts exactly what its
// encoder writes and no input is read two ways. The seed corpus under
// testdata/fuzz holds one request frame per opcode (a two-op batch among
// them), a plain, a batch and an error response, and one of each hello.

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
