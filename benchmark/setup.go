package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"boxes/internal/core"
	"boxes/internal/order"
	"boxes/internal/pager"
	"boxes/internal/serve"
	"boxes/internal/xmlgen"
)

const blockSize = 8192

// opTimeout is the per-op deadline every client carries.
const opTimeout = 5 * time.Second

// storeOptions are the runtime options cmd/boxserve opens its store with
// at default flags: durable per-op transactions, group commit of 8, LRU
// off. The set-up image and the file rungs of the ladder use the same.
func storeOptions() core.Options {
	return core.Options{Durable: true, Durability: &pager.Durability{Every: 8}}
}

// image is the set-up document: a saved store file plus what the client
// side needs to generate requests against it and to check the answers.
type image struct {
	path   string
	scheme core.Scheme
	tree   *xmlgen.Tree
	elems  []order.ElemLIDs // by preorder element index
	labels uint64

	// Filled by index(): the document position of each element's tags and
	// the LID of the tag at each position.
	startPos, endPos []int32
	tagLID           []order.LID
}

// buildImage generates the XMark document and bulk-loads it into a fresh
// store file, closed and ready for boxserve to open.
func buildImage(path string, scheme core.Scheme, elements int, seed int64) (*image, error) {
	tree := xmlgen.XMark(elements, seed)
	fb, err := pager.CreateFile(path, blockSize)
	if err != nil {
		return nil, fmt.Errorf("create %s: %w", path, err)
	}
	opts := storeOptions()
	opts.Scheme = scheme
	opts.BlockSize = blockSize
	opts.Backend = fb
	st, err := core.Open(opts)
	if err != nil {
		fb.Close()
		return nil, err
	}
	doc, err := st.Load(tree)
	if err == nil {
		err = st.Save()
	}
	labels := st.Count()
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("build image %s: %w", path, err)
	}
	return &image{path: path, scheme: scheme, tree: tree, elems: doc.Elems, labels: labels}, nil
}

// index derives the client-side position tables. It is the benchmark's
// bookkeeping, not the system's set-up, so it runs outside setup_s.
func (img *image) index() {
	tags := img.tree.TagStream()
	img.startPos = make([]int32, len(img.elems))
	img.endPos = make([]int32, len(img.elems))
	img.tagLID = make([]order.LID, len(tags))
	for p, t := range tags {
		if t.Start {
			img.startPos[t.Elem] = int32(p)
			img.tagLID[p] = img.elems[t.Elem].Start
		} else {
			img.endPos[t.Elem] = int32(p)
			img.tagLID[p] = img.elems[t.Elem].End
		}
	}
}

// storeFiles are the three files of one store: blocks, checksum sidecar
// and write-ahead log.
func storeFiles(path string) []string {
	return []string{path, path + ".crc", path + ".wal"}
}

// copyImage copies a quiescent store to dst and returns the new .box path.
func copyImage(src, dstDir string) (string, error) {
	if err := os.MkdirAll(dstDir, 0o755); err != nil {
		return "", err
	}
	dst := filepath.Join(dstDir, filepath.Base(src))
	for i, from := range storeFiles(src) {
		if err := copyFile(from, storeFiles(dst)[i]); err != nil {
			return "", err
		}
	}
	return dst, nil
}

func copyFile(from, to string) error {
	in, err := os.Open(from)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(to)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// buildServer compiles the shipped cmd/boxserve into binDir. It runs
// before any clock starts.
func buildServer(ctx context.Context, root, binDir string) (string, error) {
	bin := filepath.Join(binDir, "boxserve")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/boxserve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/boxserve: %w\n%s", err, out)
	}
	return bin, nil
}

// server is one boxserve subprocess.
type server struct {
	cmd    *exec.Cmd
	addr   string
	stderr bytes.Buffer

	closed bool          // the "closed  :" line was printed; read only after done
	done   chan struct{} // stdout reached EOF
}

// startServer runs boxserve on storePath with default flags and returns
// once it prints its listen address.
func startServer(ctx context.Context, bin, storePath string) (*server, error) {
	s := &server{done: make(chan struct{})}
	s.cmd = exec.CommandContext(ctx, bin, "-store", storePath, "-addr", "127.0.0.1:0")
	s.cmd.Stderr = &s.stderr
	stdout, err := s.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start boxserve: %w", err)
	}
	addrCh := make(chan string, 1)
	go func() {
		defer close(s.done)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			fields := strings.Fields(sc.Text())
			switch {
			case len(fields) >= 3 && fields[0] == "serving":
				addrCh <- fields[2]
			case len(fields) >= 1 && fields[0] == "closed":
				s.closed = true
			}
		}
	}()
	select {
	case s.addr = <-addrCh:
		return s, nil
	case <-s.done:
		s.cmd.Wait()
		return nil, fmt.Errorf("boxserve exited before serving: %s", s.stderr.String())
	case <-time.After(30 * time.Second):
		s.kill()
		return nil, errors.New("boxserve did not print its address within 30s")
	case <-ctx.Done():
		s.kill()
		return nil, ctx.Err()
	}
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// drain sends SIGTERM and waits for the graceful close: every acknowledged
// op is durable and the store is synced when this returns nil.
func (s *server) drain() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("signal boxserve: %w", err)
	}
	select {
	case <-s.done:
	case <-time.After(30 * time.Second):
		s.kill()
		return errors.New("boxserve did not exit within 30s of SIGTERM")
	}
	if err := s.cmd.Wait(); err != nil {
		return fmt.Errorf("boxserve: %w: %s", err, s.stderr.String())
	}
	if !s.closed {
		return fmt.Errorf("boxserve exited without closing its store: %s", s.stderr.String())
	}
	return nil
}

// kill stops the subprocess on error and interrupt paths. It is harmless
// after drain.
func (s *server) kill() {
	if s.cmd.ProcessState != nil {
		return
	}
	s.cmd.Process.Kill()
	<-s.done
	s.cmd.Wait()
}

// cpuTicks reads the process's user+system CPU time from /proc/<pid>/stat.
func cpuTicks(pid int) (uint64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields are counted after its ")".
	rest := b[bytes.LastIndexByte(b, ')')+1:]
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	u, err := strconv.ParseUint(f[11], 10, 64) // utime, field 14
	if err != nil {
		return 0, err
	}
	sy, err := strconv.ParseUint(f[12], 10, 64) // stime, field 15
	if err != nil {
		return 0, err
	}
	return u + sy, nil
}

// clockTick is USER_HZ, fixed at 100 on every Linux ABI Go supports.
const clockTick = 10 * time.Millisecond

// rssPeakMB reads VmHWM from /proc/<pid>/status.
func rssPeakMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// setUp performs one full set-up and returns how long it took: generate
// the document, build and save the image, start boxserve on it, complete
// one handshake.
func setUp(ctx context.Context, cfg *config, w workload, dir string) (*image, *server, time.Duration, error) {
	t0 := time.Now()
	img, err := buildImage(filepath.Join(dir, "doc.box"), w.scheme, cfg.elements, cfg.seed)
	if err != nil {
		return nil, nil, 0, err
	}
	srv, err := startServer(ctx, cfg.serverBin, img.path)
	if err != nil {
		return nil, nil, 0, err
	}
	c, err := serve.Dial(srv.addr, serve.ClientOptions{Timeout: opTimeout})
	if err != nil {
		srv.kill()
		return nil, nil, 0, fmt.Errorf("first handshake: %w", err)
	}
	d := time.Since(t0)
	c.Close()
	return img, srv, d, nil
}
