// Command boxbackup manages snapshots of stored box files.
//
//	boxbackup backup  <store.box> <backup.box>   take a snapshot
//	boxbackup restore <backup.box> <store.box>   restore from a snapshot
//	boxbackup verify  <store.box>                offline consistency check
//
// backup opens the source (running WAL recovery exactly like any open),
// copies every committed block image with its checksum verified, and
// writes a self-contained store — fresh header, fresh checksum sidecar,
// empty WAL — so a restore is a plain file copy with nothing to replay.
// Live processes snapshot through the library API (Store.Backup, which
// keeps lookups running during the copy); this command works on files no
// process has open.
//
// restore copies the snapshot (and its .crc/.wal sidecars) over the target
// path and verifies the result with the offline checker; a snapshot missing
// either sidecar is refused and the target left as it was. verify runs the
// checker alone.
//
// Exit codes: 0 success, 1 the store/backup failed verification, 2 the
// operation could not be performed.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"boxes/internal/fsck"
	"boxes/internal/pager"
)

func main() {
	flag.Usage = usage
	flag.Parse()
	args := flag.Args()
	if len(args) < 1 {
		usage()
		os.Exit(2)
	}
	switch args[0] {
	case "backup":
		if len(args) != 3 {
			usage()
			os.Exit(2)
		}
		backup(args[1], args[2])
	case "restore":
		if len(args) != 3 {
			usage()
			os.Exit(2)
		}
		restore(args[1], args[2])
	case "verify":
		if len(args) != 2 {
			usage()
			os.Exit(2)
		}
		verify(args[1])
	default:
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  boxbackup backup  <store.box> <backup.box>
  boxbackup restore <backup.box> <store.box>
  boxbackup verify  <store.box>`)
}

func backup(src, dst string) {
	fb, err := pager.OpenFile(src)
	if err != nil {
		fatal(err)
	}
	defer fb.Close()
	if rec := fb.RecoveryInfo(); rec.Replayed || rec.DiscardedBytes > 0 {
		fmt.Printf("recovery: replayed=%v frames=%d discarded=%dB\n",
			rec.Replayed, rec.ReplayedFrames, rec.DiscardedBytes)
	}
	if err := fb.BackupTo(dst); err != nil {
		fatal(err)
	}
	fmt.Printf("backup  : %s -> %s (%d blocks, bound %d)\n", src, dst, fb.NumBlocks(), fb.Bound())
}

func restore(src, dst string) {
	// A backup carries no WAL state, so restore is a verbatim copy of the
	// three files; the subsequent check proves the result opens clean. Every
	// store has all three, so a backup missing one is refused before any
	// file of the target is touched.
	exts := []string{"", ".crc", ".wal"}
	for _, ext := range exts {
		if _, err := os.Stat(src + ext); err != nil {
			fatal(fmt.Errorf("incomplete backup: %w", err))
		}
	}
	for _, ext := range exts {
		if err := copyFile(src+ext, dst+ext); err != nil {
			fatal(err)
		}
	}
	fmt.Printf("restore : %s -> %s\n", src, dst)
	verify(dst)
}

func verify(path string) {
	rep, err := fsck.Check(path, fsck.Options{})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("blocks  : %d allocated, %d free, bound %d, %d bytes each\n",
		rep.Allocated, rep.FreeCount, rep.Bound, rep.BlockSize)
	if rep.Scheme != "" {
		fmt.Printf("scheme  : %s (%d labels)\n", rep.Scheme, rep.Labels)
	}
	for _, p := range rep.Problems {
		fmt.Printf("problem : %s\n", p)
	}
	if !rep.Clean() {
		fmt.Println("verdict : UNCLEAN")
		os.Exit(1)
	}
	fmt.Println("verdict : clean")
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	if err := out.Sync(); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "boxbackup: %v\n", err)
	os.Exit(2)
}
