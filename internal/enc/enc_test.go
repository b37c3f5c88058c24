package enc

import (
	"errors"
	"io"
	"testing"
)

func TestReaderLatchesFirstShortRead(t *testing.T) {
	r := NewReader([]byte{1, 2, 0, 0, 0, 9})
	if a, b := r.U8(), r.U32(); a != 1 || b != 2 {
		t.Fatalf("read %d, %d", a, b)
	}
	if v := r.U64(); v != 0 {
		t.Fatalf("short U64 = %d, want 0", v)
	}
	if v := r.U8(); v != 0 {
		t.Fatalf("U8 after a short read = %d, want 0 (the error is latched)", v)
	}
	if err := r.Done(); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("Done = %v, want io.ErrUnexpectedEOF", err)
	}
}

func TestCountBoundsByBytesLeft(t *testing.T) {
	for _, c := range []struct {
		in   []byte
		size int
		want int
		ok   bool
	}{
		{[]byte{2, 0, 0, 0, 1, 2, 3, 4}, 4, 2, false}, // 2×4 bytes wanted, 4 left
		{[]byte{2, 0, 0, 0, 1, 2, 3, 4}, 2, 2, true},
		{[]byte{0xFF, 0xFF, 0xFF, 0xFF}, 8, 0, false},
		{[]byte{0, 0, 0, 0}, 8, 0, true},
	} {
		r := NewReader(c.in)
		n := r.Count(c.size)
		r.Bytes(n * c.size)
		if err := r.Done(); (err == nil) != c.ok || (c.ok && n != c.want) {
			t.Errorf("Count(%d) over %x = %d, Done %v; want %d, ok=%v", c.size, c.in, n, err, c.want, c.ok)
		}
	}
}

func TestDoneRejectsTrailingBytes(t *testing.T) {
	r := NewReader([]byte{7, 8})
	r.U8()
	if r.Done() == nil {
		t.Fatal("Done accepted an unread byte")
	}
	if rest := r.Rest(); len(rest) != 1 || rest[0] != 8 || r.Done() != nil {
		t.Fatalf("Rest = %x, then Done = %v", rest, r.Done())
	}
}
