// Package cmd_test builds the command-line tools and exercises them end to
// end: generate a document, load it into every scheme, query it, persist
// it, and inspect the saved store.
package cmd_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"io/fs"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"boxes/internal/core"
	"boxes/internal/obs"
	"boxes/internal/pager"
)

var binDir string

// tools are the binaries TestMain builds into binDir.
var tools = []string{"boxgen", "boxload", "boxinspect", "boxbench", "boxfsck", "boxbackup", "boxserve", "boxclient"}

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "boxes-cli")
	if err != nil {
		panic(err)
	}
	binDir = dir
	args := []string{"build", "-o", dir + string(os.PathSeparator)}
	for _, t := range tools {
		args = append(args, "boxes/cmd/"+t)
	}
	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		panic("building the tools: " + err.Error())
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

var (
	sourcesOnce sync.Once
	sourcesErr  error
)

// readSources reads every non-test Go file of the module outside
// benchmark/ (a module of its own). The tools and examples are built in
// subprocesses the test result cache cannot see into, but the cache does
// key on every file a test opens: reading the sources makes an edit to any
// tool re-run these tests instead of reporting a cached pass. Files opened
// in TestMain before m.Run are not logged, so the reads happen here, the
// first time a test needs a binary.
func readSources(t *testing.T) {
	t.Helper()
	sourcesOnce.Do(func() {
		sourcesErr = filepath.WalkDir("..", func(path string, d fs.DirEntry, err error) error {
			switch {
			case err != nil:
				return err
			case d.IsDir() && path != ".." && (d.Name() == "benchmark" || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")):
				return filepath.SkipDir
			case !d.IsDir() && strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go"):
				_, err = os.ReadFile(path)
			}
			return err
		})
	})
	if sourcesErr != nil {
		t.Fatal(sourcesErr)
	}
}

// tool returns the path of a built tool.
func tool(t *testing.T, name string) string {
	readSources(t)
	return filepath.Join(binDir, name)
}

func run(t *testing.T, name string, args ...string) string {
	t.Helper()
	out, err := exec.Command(tool(t, name), args...).CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", name, args, err, out)
	}
	return string(out)
}

func TestGenerateLoadInspect(t *testing.T) {
	dir := t.TempDir()
	xml := filepath.Join(dir, "doc.xml")
	gen := run(t, "boxgen", "-elements", "2000", "-seed", "5")
	if err := os.WriteFile(xml, []byte(gen), 0o644); err != nil {
		t.Fatal(err)
	}

	for _, scheme := range []string{"wbox", "wboxo", "bbox", "naive"} {
		out := run(t, "boxload", "-scheme", scheme, "-join", "open_auction,increase", xml)
		if !strings.Contains(out, "all structural invariants hold") {
			t.Fatalf("%s: no invariant confirmation:\n%s", scheme, out)
		}
		if !strings.Contains(out, "join    : open_auction") {
			t.Fatalf("%s: no join output:\n%s", scheme, out)
		}
	}

	// Branching pattern query.
	out := run(t, "boxload", "-scheme", "bbox", "-pattern", "//open_auction[//bidder]", xml)
	if !strings.Contains(out, "pattern : //open_auction[//bidder]") && !strings.Contains(out, "pattern : //open_auction//bidder") {
		t.Fatalf("pattern output missing:\n%s", out)
	}

	// Persist and inspect.
	box := filepath.Join(dir, "labels.box")
	out = run(t, "boxload", "-scheme", "wbox", "-save", box, xml)
	if !strings.Contains(out, "saved") {
		t.Fatalf("save output missing:\n%s", out)
	}
	out = run(t, "boxinspect", "-lid", "1", box)
	if !strings.Contains(out, "scheme  : W-BOX") {
		t.Fatalf("inspect scheme missing:\n%s", out)
	}
	if !strings.Contains(out, "all structural invariants hold") {
		t.Fatalf("inspect check missing:\n%s", out)
	}
	if !strings.Contains(out, "1=") {
		t.Fatalf("lid resolution missing:\n%s", out)
	}
}

// TestNaiveCLIInMemoryOnly checks that naive-k stays an in-memory scheme
// at the command line: boxload -scheme naive with -save (durable or not)
// exits 1 with ErrNotPersistent's message before creating the file, and
// boxserve does not offer the scheme at all.
func TestNaiveCLIInMemoryOnly(t *testing.T) {
	dir := t.TempDir()
	xml := filepath.Join(dir, "doc.xml")
	if err := os.WriteFile(xml, []byte(run(t, "boxgen", "-elements", "200", "-seed", "3")), 0o644); err != nil {
		t.Fatal(err)
	}
	box := filepath.Join(dir, "naive.box")
	for _, extra := range []string{"-check", "-durable"} {
		out, code := runExit(t, "boxload", "-scheme", "naive", "-save", box, extra, xml)
		if code != 1 || !strings.Contains(out, core.ErrNotPersistent.Error()) {
			t.Errorf("boxload -scheme naive -save %s: exit %d, want 1 with %q:\n%s", extra, code, core.ErrNotPersistent, out)
		}
	}
	if _, err := os.Stat(box); !os.IsNotExist(err) {
		t.Errorf("refused naive save left %s behind (stat: %v)", box, err)
	}
	out, code := runExit(t, "boxserve", "-store", box, "-scheme", "naive", "-addr", "127.0.0.1:0")
	if code == 0 || !strings.Contains(out, `unknown scheme "naive"`) {
		t.Errorf("boxserve -scheme naive: exit %d, want non-zero with unknown scheme:\n%s", code, out)
	}
}

// TestInspectHealth saves a store and checks boxinspect -health prints the
// structural gauges walked from the file.
// TestExamplesRun builds and runs each program under examples/ and checks
// that it exits 0 after printing its closing line.
func TestExamplesRun(t *testing.T) {
	for _, ex := range []struct{ name, last string }{
		{"quickstart", "total block I/O:"},
		{"editing", "all structural invariants hold after the editing session"},
		{"persistence", "edits after reopen succeed; all invariants hold"},
		{"containmentjoin", "twig //open_auction//bidder/increase:"},
	} {
		t.Run(ex.name, func(t *testing.T) {
			t.Parallel()
			readSources(t)
			bin := filepath.Join(t.TempDir(), ex.name)
			if out, err := exec.Command("go", "build", "-o", bin, "boxes/examples/"+ex.name).CombinedOutput(); err != nil {
				t.Fatalf("building %s: %v\n%s", ex.name, err, out)
			}
			out, err := exec.Command(bin).CombinedOutput()
			if err != nil {
				t.Fatalf("%s: %v\n%s", ex.name, err, out)
			}
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			if !strings.HasPrefix(lines[len(lines)-1], ex.last) {
				t.Fatalf("%s: last line %q, want it to start with %q", ex.name, lines[len(lines)-1], ex.last)
			}
		})
	}
}

func TestInspectHealth(t *testing.T) {
	dir := t.TempDir()
	xml := filepath.Join(dir, "doc.xml")
	gen := run(t, "boxgen", "-elements", "1500", "-seed", "7")
	if err := os.WriteFile(xml, []byte(gen), 0o644); err != nil {
		t.Fatal(err)
	}
	box := filepath.Join(dir, "labels.box")
	run(t, "boxload", "-scheme", "bbox", "-save", box, xml)

	out := run(t, "boxinspect", "-health", box)
	for _, want := range []string{
		"health  :",
		`boxes_tree_height{scheme="B-BOX"}`,
		"boxes_node_occupancy",
		"boxes_balance_slack",
		"lidf_fragmentation",
		"pager_blocks",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("boxinspect -health missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(out, `boxes_health_walk_errors{scheme="B-BOX"} = 0`) {
		t.Errorf("walk errors not reported as zero:\n%s", out)
	}
}

// TestInspectCrashDump writes a crash file through a real flight recorder
// and checks boxinspect -crash round-trips it into readable form.
func TestInspectCrashDump(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	fr := obs.NewFlightRecorder(reg, dir)
	reg.RegisterCollector(obs.CollectorFunc(func() []obs.GaugeValue {
		return []obs.GaugeValue{obs.G("boxes_tree_height", "h", 3, "scheme", "W-BOX")}
	}))
	c := reg.Begin("W-BOX", obs.OpInsert, 0, 0)
	fr.OpStart(c)
	failure := errors.New("injected failure: write budget exhausted")
	fr.OpEnd(c, 4, 2, reg.End(c, 4, 2, failure), failure)
	if fr.Dumps() != 1 {
		t.Fatalf("dumps = %d (err: %v)", fr.Dumps(), fr.Err())
	}

	out := run(t, "boxinspect", "-crash", fr.LastDump())
	for _, want := range []string{
		"trigger : W-BOX",
		"insert",
		"ERROR(permanent): injected failure: write budget exhausted",
		`boxes_tree_height{scheme="W-BOX"} = 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("boxinspect -crash missing %q:\n%s", want, out)
		}
	}

	// A tagged stage-failure dump (a failed OpenExisting and fsck write
	// these) must surface its tags.
	path, err := obs.DumpFailure(reg, dir, "recovery", errors.New("store did not come back clean"),
		map[string]string{"crash_point": "17", "torn": "true", "scheme": "B-BOX"})
	if err != nil {
		t.Fatal(err)
	}
	out = run(t, "boxinspect", "-crash", path)
	for _, want := range []string{
		"trigger : recovery",
		"tags    : crash_point=17 scheme=B-BOX torn=true",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("boxinspect -crash (tagged) missing %q:\n%s", want, out)
		}
	}
}

// TestFsckCLI saves a store (with boxload's own post-save fsck), checks it
// with boxfsck and boxinspect -verify, then flips a byte and checks both
// tools catch the corruption with the right exit codes.
func TestFsckCLI(t *testing.T) {
	dir := t.TempDir()
	xml := filepath.Join(dir, "doc.xml")
	gen := run(t, "boxgen", "-elements", "1200", "-seed", "11")
	if err := os.WriteFile(xml, []byte(gen), 0o644); err != nil {
		t.Fatal(err)
	}
	box := filepath.Join(dir, "labels.box")
	out := run(t, "boxload", "-scheme", "wbox", "-save", box, "-fsck", xml)
	if !strings.Contains(out, "fsck    : clean") {
		t.Fatalf("boxload -fsck did not report clean:\n%s", out)
	}

	out = run(t, "boxfsck", "-v", box)
	if !strings.Contains(out, "verdict : clean") {
		t.Fatalf("boxfsck on a clean store:\n%s", out)
	}
	if !strings.Contains(out, "scheme  : W-BOX") {
		t.Fatalf("boxfsck did not restore the structure:\n%s", out)
	}
	out = run(t, "boxinspect", "-verify", box)
	if !strings.Contains(out, "pass checksum verification") {
		t.Fatalf("boxinspect -verify on a clean store:\n%s", out)
	}

	// Flip one bit in block 2 and expect exit 1 plus a block-2 finding.
	f, err := os.OpenFile(box, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	off := int64(2*8192 + 77)
	if _, err := f.ReadAt(buf, off); err != nil {
		t.Fatal(err)
	}
	buf[0] ^= 0x10
	if _, err := f.WriteAt(buf, off); err != nil {
		t.Fatal(err)
	}
	f.Close()

	cmd := exec.Command(tool(t, "boxfsck"), box)
	outB, _ := cmd.CombinedOutput()
	if code := cmd.ProcessState.ExitCode(); code != 1 {
		t.Errorf("boxfsck on corrupt store: exit %d, want 1:\n%s", code, outB)
	}
	if !strings.Contains(string(outB), "block 2") || !strings.Contains(string(outB), "UNCLEAN") {
		t.Errorf("corruption not described:\n%s", outB)
	}
	cmd = exec.Command(tool(t, "boxinspect"), "-verify", box)
	outB, _ = cmd.CombinedOutput()
	if code := cmd.ProcessState.ExitCode(); code != 1 {
		t.Errorf("boxinspect -verify on corrupt store: exit %d, want 1:\n%s", code, outB)
	}

	// Unexaminable file: exit 2.
	junk := filepath.Join(dir, "junk")
	if err := os.WriteFile(junk, []byte("not a box store"), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd = exec.Command(tool(t, "boxfsck"), junk)
	outB, _ = cmd.CombinedOutput()
	if code := cmd.ProcessState.ExitCode(); code != 2 {
		t.Errorf("boxfsck on junk: exit %d, want 2:\n%s", code, outB)
	}
}

// TestFsckCLICyclicMetaChain writes, through the pager so every checksum
// is valid, a store whose metadata blob chain loops back on itself: boxfsck
// must exit 1 with a corruption verdict rather than walk the loop. Each
// block claims one payload byte, so a walk that misses the cycle spins
// until the deadline instead of exhausting memory.
func TestFsckCLICyclicMetaChain(t *testing.T) {
	box := filepath.Join(t.TempDir(), "cyclic.box")
	fb, err := pager.CreateFile(box, 512)
	if err != nil {
		t.Fatal(err)
	}
	store := pager.NewStore(fb)
	var ids [2]pager.BlockID
	for i := range ids {
		if ids[i], err = store.Allocate(); err != nil {
			t.Fatal(err)
		}
	}
	for i, id := range ids {
		buf := make([]byte, 512)
		binary.LittleEndian.PutUint64(buf[0:8], uint64(ids[1-i]))
		binary.LittleEndian.PutUint32(buf[8:12], 1)
		if err := store.Write(id, buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := fb.SetMetaRoot(ids[0]); err != nil {
		t.Fatal(err)
	}
	if err := fb.Close(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, tool(t, "boxfsck"), "-v", box)
	out, _ := cmd.CombinedOutput()
	if code := cmd.ProcessState.ExitCode(); code != 1 || !strings.Contains(string(out), "verdict : UNCLEAN") || !strings.Contains(string(out), "corrupt") {
		t.Fatalf("boxfsck on a cyclic metadata chain: exit %d, want 1 with a corruption verdict:\n%s", code, out)
	}
}

// runExit runs a tool that may fail and returns its output and exit code.
func runExit(t *testing.T, name string, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(tool(t, name), args...)
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatalf("%s %v: %v", name, args, err)
	}
	return string(out), cmd.ProcessState.ExitCode()
}

// TestBackupCLI runs the boxbackup round trip on a durable store: back it
// up, corrupt the store so verify exits 1, restore it clean, and refuse a
// backup missing a sidecar with exit 2 before touching any target file.
func TestBackupCLI(t *testing.T) {
	dir := t.TempDir()
	xml := filepath.Join(dir, "doc.xml")
	if err := os.WriteFile(xml, []byte(run(t, "boxgen", "-elements", "2000", "-seed", "1")), 0o644); err != nil {
		t.Fatal(err)
	}
	box := filepath.Join(dir, "labels.box")
	bak := filepath.Join(dir, "labels.bak")
	run(t, "boxload", "-scheme", "wbox", "-save", box, "-durable", xml)
	run(t, "boxbackup", "backup", box, bak)

	f, err := os.OpenFile(box, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("garbage-bytes-for-backup-corruption-test-0123456789abcdef"), 16384); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if out, code := runExit(t, "boxbackup", "verify", box); code != 1 || !strings.Contains(out, "verdict : UNCLEAN") {
		t.Fatalf("verify of a corrupt store: exit %d, want 1:\n%s", code, out)
	}
	if out, code := runExit(t, "boxbackup", "restore", bak, box); code != 0 || !strings.Contains(out, "verdict : clean") {
		t.Fatalf("restore: exit %d, want 0:\n%s", code, out)
	}
	if out := run(t, "boxbackup", "verify", box); !strings.Contains(out, "verdict : clean") {
		t.Fatalf("verify after restore:\n%s", out)
	}

	exts := []string{"", ".crc", ".wal"}
	before := make(map[string][]byte)
	for _, ext := range exts {
		b, err := os.ReadFile(box + ext)
		if err != nil {
			t.Fatal(err)
		}
		before[ext] = b
	}
	for _, missing := range []string{".crc", ".wal"} {
		partial := filepath.Join(dir, "partial.bak")
		run(t, "boxbackup", "backup", box, partial)
		if err := os.Remove(partial + missing); err != nil {
			t.Fatal(err)
		}
		if out, code := runExit(t, "boxbackup", "restore", partial, box); code != 2 {
			t.Fatalf("restore of a backup without %s: exit %d, want 2:\n%s", missing, code, out)
		}
		for _, ext := range exts {
			b, err := os.ReadFile(box + ext)
			if err != nil || !bytes.Equal(b, before[ext]) {
				t.Fatalf("restore of a backup without %s changed the target's %q file (err %v)", missing, ext, err)
			}
		}
	}
}

func TestBenchCLISmoke(t *testing.T) {
	out := run(t, "boxbench", "-exp", "tquery", "-base", "500", "-inserts", "100")
	if !strings.Contains(out, "Query performance") || !strings.Contains(out, "W-BOX") {
		t.Fatalf("boxbench tquery output:\n%s", out)
	}
	if _, err := exec.Command(tool(t, "boxbench"), "-exp", "nonsense").Output(); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

// TestBenchMetricsEndpoint runs boxbench with -metrics :0 -linger, scrapes
// the advertised /metrics endpoint once the experiments finish, and checks
// the Prometheus exposition carries per-op series and structural counters.
func TestBenchMetricsEndpoint(t *testing.T) {
	cmd := exec.Command(tool(t, "boxbench"),
		"-exp", "tquery", "-base", "300", "-inserts", "50",
		"-metrics", "127.0.0.1:0", "-linger")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		cmd.Process.Signal(os.Interrupt)
		done := make(chan error, 1)
		go func() { done <- cmd.Wait() }()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("boxbench did not exit cleanly on interrupt: %v", err)
			}
		case <-time.After(10 * time.Second):
			cmd.Process.Kill()
			t.Error("boxbench did not exit after interrupt")
		}
	}()

	// The address line arrives first; "lingering" means the experiments have
	// run and the registry is populated.
	var addr string
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "metrics : http://") {
			addr = strings.TrimPrefix(strings.Fields(line)[2], "http://")
			addr = strings.TrimSuffix(addr, "/metrics")
		}
		if strings.HasPrefix(line, "lingering") {
			break
		}
	}
	if addr == "" {
		t.Fatalf("no metrics address announced (scanner err: %v)", sc.Err())
	}
	go io.Copy(io.Discard, stdout)

	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("content type %q", ct)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE boxes_op_duration_seconds histogram",
		`boxes_op_reads_bucket{op="bulk_load",le="+Inf"}`,
		`boxes_op_writes_sum{op="bulk_load"}`,
		"wbox_splits_total",
		"bbox_rebuilds_total",
		"naive_relabels_total",
		"pager_cache_misses_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// The query experiment bulk-loads one store per scheme, so the counter
	// must be positive, not just present.
	if ok, _ := regexp.MatchString(`boxes_ops_total\{op="bulk_load"\} [1-9]`, text); !ok {
		t.Errorf("bulk_load op count not positive:\n%s", text)
	}
}

// TestServeCLI drives the served-store path end to end: boot boxserve on
// an ephemeral port, round-trip single ops and a small load through
// boxclient, drain with SIGTERM, and verify the store offline — the ack
// contract says everything acked before the drain must be on disk.
func TestServeCLI(t *testing.T) {
	box := filepath.Join(t.TempDir(), "served.box")
	srv := startServe(t, "-store", box)
	addr := srv.addr

	out := run(t, "boxclient", "-addr", addr, "insert-first")
	if !strings.Contains(out, "start LID 1, end LID 2") {
		t.Fatalf("insert-first:\n%s", out)
	}
	out = run(t, "boxclient", "-addr", addr, "insert", "2")
	if !strings.Contains(out, "start LID 3, end LID 4") {
		t.Fatalf("insert:\n%s", out)
	}
	out = run(t, "boxclient", "-addr", addr, "compare", "1", "3")
	if !strings.Contains(out, "compare(1, 3) = -1") {
		t.Fatalf("compare:\n%s", out)
	}
	out = run(t, "boxclient", "-addr", addr, "lookup", "3")
	if !strings.Contains(out, "LID 3 = label") {
		t.Fatalf("lookup:\n%s", out)
	}
	out = run(t, "boxclient", "-addr", addr, "-load",
		"-source", "churn", "-conns", "2", "-ops", "100", "-seed", "7")
	if !strings.Contains(out, "100 attempted, 100 acked, 0 failed") {
		t.Fatalf("load should ack every op on a clean transport:\n%s", out)
	}

	srv.stop(t)

	// Acked ⇒ durable: the offline store must hold everything and pass fsck.
	out = run(t, "boxfsck", "-v", box)
	if !strings.Contains(out, "verdict : clean") {
		t.Fatalf("served store not fsck-clean:\n%s", out)
	}
	out = run(t, "boxinspect", "-lid", "1", "-lid", "3", box)
	if !strings.Contains(out, "all structural invariants hold") {
		t.Fatalf("inspect after serve:\n%s", out)
	}
}

// served is a boxserve subprocess started by startServe.
type served struct {
	cmd     *exec.Cmd
	addr    string
	out     strings.Builder // stdout after the serving line, complete once drained closes
	drained chan struct{}
}

// startServe starts boxserve on a loopback port with the given flags and
// returns once it announces its address.
func startServe(t *testing.T, args ...string) *served {
	t.Helper()
	s := &served{drained: make(chan struct{})}
	s.cmd = exec.Command(tool(t, "boxserve"), append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	stdout, err := s.cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	s.cmd.Stderr = os.Stderr
	if err := s.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if s.cmd.ProcessState == nil {
			s.cmd.Process.Kill()
		}
	})
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		if line := sc.Text(); strings.HasPrefix(line, "serving : ") {
			s.addr = strings.Fields(line)[2]
			break
		}
	}
	if s.addr == "" {
		t.Fatalf("no serving address announced (scanner err: %v)", sc.Err())
	}
	go func() {
		for sc.Scan() {
			s.out.WriteString(sc.Text() + "\n")
		}
		close(s.drained)
	}()
	return s
}

// stop sends SIGINT: the drain must finish in-flight work and close the
// store, and boxserve must exit 0 with its clean-close line.
func (s *served) stop(t *testing.T) {
	t.Helper()
	if err := s.cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	// Wait closes the stdout pipe, so it must not run before the reader has
	// seen EOF: the clean-close line would be lost.
	waitDone := make(chan error, 1)
	go func() { <-s.drained; waitDone <- s.cmd.Wait() }()
	select {
	case err := <-waitDone:
		if err != nil {
			t.Fatalf("boxserve did not drain cleanly: %v\n%s", err, s.out.String())
		}
	case <-time.After(15 * time.Second):
		s.cmd.Process.Kill()
		t.Fatal("boxserve did not exit after SIGTERM")
	}
	if !strings.Contains(s.out.String(), "closed  : store synced and released") {
		t.Fatalf("no clean-close line:\n%s", s.out.String())
	}
}

// TestServeCrashDirServesAfterFailedOp runs boxserve with -crashdir, which
// installs the flight recorder beside the store's registered health gauges.
// A lookup of an unknown LID must come back as its typed error — the op
// dumps a crash file on its own goroutine without wedging the store — and
// the next requests must be served.
func TestServeCrashDirServesAfterFailedOp(t *testing.T) {
	dir := t.TempDir()
	crashDir := filepath.Join(dir, "crash")
	srv := startServe(t, "-store", filepath.Join(dir, "served.box"), "-crashdir", crashDir)
	run(t, "boxclient", "-addr", srv.addr, "insert-first")
	out, code := runExit(t, "boxclient", "-addr", srv.addr, "-timeout", "5s", "lookup", "99")
	if code == 0 || !strings.Contains(out, "unknown or deleted LID") {
		t.Fatalf("lookup of an unknown LID: exit %d, want the typed unknown-LID error:\n%s", code, out)
	}
	if out := run(t, "boxclient", "-addr", srv.addr, "-timeout", "5s", "lookup", "1"); !strings.Contains(out, "LID 1 = label") {
		t.Fatalf("lookup after the failed one:\n%s", out)
	}
	if out := run(t, "boxclient", "-addr", srv.addr, "-timeout", "5s", "insert", "2"); !strings.Contains(out, "start LID 3, end LID 4") {
		t.Fatalf("insert after the failed lookup:\n%s", out)
	}
	dumps, err := filepath.Glob(filepath.Join(crashDir, "crash-*.json"))
	if err != nil || len(dumps) != 1 {
		t.Fatalf("crash dumps = %v (%v), want one for the failed lookup", dumps, err)
	}
	srv.stop(t)
}

// TestServeTermOnServingLine signals boxserve the instant it announces
// itself. The "serving :" line is what scripts wait on, so a TERM sent on
// seeing it must find the drain handler installed: exit 0 after a clean
// close, and a store that reopens fsck-clean.
func TestServeTermOnServingLine(t *testing.T) {
	for round := 0; round < 5; round++ {
		box := filepath.Join(t.TempDir(), "served.box")
		cmd := exec.Command(tool(t, "boxserve"), "-store", box, "-addr", "127.0.0.1:0")
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		var out strings.Builder
		signalled := false
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			out.WriteString(sc.Text() + "\n")
			if !signalled && strings.HasPrefix(sc.Text(), "serving : ") {
				if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
					t.Fatal(err)
				}
				signalled = true
			}
		}
		waitDone := make(chan error, 1)
		go func() { waitDone <- cmd.Wait() }()
		select {
		case err := <-waitDone:
			if err != nil {
				t.Fatalf("round %d: TERM on the serving line killed boxserve undrained: %v\n%s", round, err, out.String())
			}
		case <-time.After(15 * time.Second):
			cmd.Process.Kill()
			t.Fatalf("round %d: boxserve did not exit after SIGTERM\n%s", round, out.String())
		}
		if !signalled || !strings.Contains(out.String(), "closed  : store synced and released") {
			t.Fatalf("round %d: no clean-close line:\n%s", round, out.String())
		}
		if fsck := run(t, "boxfsck", "-v", box); !strings.Contains(fsck, "verdict : clean") {
			t.Fatalf("round %d: store not fsck-clean after the drain:\n%s", round, fsck)
		}
	}
}
