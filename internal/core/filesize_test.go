package core

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"boxes/internal/pager"
	"boxes/internal/xmlgen"
)

// fixedStreamFiles are the size and SHA-256 prefix of the data file and the
// checksum sidecar, and the size of the log (whose header now carries a
// generation), after the fixed request stream below and a clean Close, as the commit before
// checkpoints produced them (every commit applied in place, log truncated
// per commit). A commit that defers its apply must end at the same bytes on
// disk: the served benchmark's file_bytes_per_label moves only with how
// many inserts fit its 20 s window, never with the layout.
var fixedStreamFiles = map[string][3]string{
	"wbox": {"319488 cbd41db7146ab9ae", "172 8c98bb133ea82457", "16"},
	"bbox": {"294912 d9f311211d66842c", "160 15933d2b543c8e5f", "16"},
}

func TestFileSizesForFixedStream(t *testing.T) {
	for _, c := range []struct {
		name   string
		scheme Scheme
	}{{"wbox", SchemeWBox}, {"bbox", SchemeBBox}} {
		path := filepath.Join(t.TempDir(), c.name+".box")
		fb, err := pager.CreateFileOpts(path, pager.FileOptions{BlockSize: 8192, NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		st, err := Open(Options{Scheme: c.scheme, BlockSize: 8192, Backend: fb, Durable: true})
		if err != nil {
			t.Fatal(err)
		}
		doc, err := st.Load(xmlgen.TwoLevel(5000))
		if err != nil {
			t.Fatal(err)
		}
		// The mixed_hot write stream: inserts packed before 16 targets, which
		// forces splits and leaves half-full leaves behind — the layout
		// file_bytes_per_label is sensitive to.
		for i := 0; i < 1200; i++ {
			if _, err := st.InsertElementBefore(doc.Elems[1+(i%16)*311].Start); err != nil {
				t.Fatalf("%s insert %d: %v", c.name, i, err)
			}
		}
		if ws := fb.WALStats(); ws.Checkpoints < 3 {
			t.Fatalf("%s: only %d checkpoints; the stream no longer exercises the deferred apply", c.name, ws.Checkpoints)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		var got [3]string
		for i, suffix := range []string{"", ".crc", ".wal"} {
			data, err := os.ReadFile(path + suffix)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(data)
			got[i] = strconv.Itoa(len(data))
			if suffix != ".wal" {
				got[i] += " " + hex.EncodeToString(sum[:8])
			}
		}
		if got != fixedStreamFiles[c.name] {
			t.Errorf("%s: data/sidecar/log are\n %q, the parent commit produced\n %q", c.name, got, fixedStreamFiles[c.name])
		}
	}
}
