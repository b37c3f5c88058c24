// Package cmd_test builds the command-line tools and exercises them end to
// end: generate a document, load it into every scheme, query it, persist
// it, and inspect the saved store.
package cmd_test

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"

	"boxes/internal/obs"
)

var binDir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "boxes-cli")
	if err != nil {
		panic(err)
	}
	binDir = dir
	for _, tool := range []string{"boxgen", "boxload", "boxinspect", "boxbench", "boxfsck", "boxbackup", "boxserve", "boxclient"} {
		cmd := exec.Command("go", "build", "-o", filepath.Join(dir, tool), "boxes/cmd/"+tool)
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			panic("building " + tool + ": " + err.Error())
		}
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func run(t *testing.T, name string, args ...string) string {
	t.Helper()
	out, err := exec.Command(filepath.Join(binDir, name), args...).CombinedOutput()
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
	fr := obs.NewFlightRecorder(reg, dir, 8)
	reg.AddHook(fr)
	reg.RegisterCollector(obs.CollectorFunc(func() []obs.GaugeValue {
		return []obs.GaugeValue{obs.G("boxes_tree_height", "h", 3, "scheme", "W-BOX")}
	}))
	c := reg.Begin("W-BOX", obs.OpInsert, 0, 0)
	reg.End(c, 4, 2, errors.New("injected failure: write budget exhausted"))
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

	// A tagged stage-failure dump (crash-matrix and fsck write these) must
	// surface its tags.
	fr.DumpFailure("recovery", errors.New("store did not come back clean"),
		map[string]string{"crash_point": "17", "torn": "true", "scheme": "B-BOX"})
	out = run(t, "boxinspect", "-crash", fr.LastDump())
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

	cmd := exec.Command(filepath.Join(binDir, "boxfsck"), box)
	outB, _ := cmd.CombinedOutput()
	if code := cmd.ProcessState.ExitCode(); code != 1 {
		t.Errorf("boxfsck on corrupt store: exit %d, want 1:\n%s", code, outB)
	}
	if !strings.Contains(string(outB), "block 2") || !strings.Contains(string(outB), "UNCLEAN") {
		t.Errorf("corruption not described:\n%s", outB)
	}
	cmd = exec.Command(filepath.Join(binDir, "boxinspect"), "-verify", box)
	outB, _ = cmd.CombinedOutput()
	if code := cmd.ProcessState.ExitCode(); code != 1 {
		t.Errorf("boxinspect -verify on corrupt store: exit %d, want 1:\n%s", code, outB)
	}

	// Unexaminable file: exit 2.
	junk := filepath.Join(dir, "junk")
	if err := os.WriteFile(junk, []byte("not a box store"), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd = exec.Command(filepath.Join(binDir, "boxfsck"), junk)
	outB, _ = cmd.CombinedOutput()
	if code := cmd.ProcessState.ExitCode(); code != 2 {
		t.Errorf("boxfsck on junk: exit %d, want 2:\n%s", code, outB)
	}
}

// runExit runs a tool that may fail and returns its output and exit code.
func runExit(t *testing.T, name string, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(filepath.Join(binDir, name), args...)
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
	if _, err := exec.Command(filepath.Join(binDir, "boxbench"), "-exp", "nonsense").Output(); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

// TestBenchMetricsEndpoint runs boxbench with -metrics :0 -linger, scrapes
// the advertised /metrics endpoint once the experiments finish, and checks
// the Prometheus exposition carries per-op series and structural counters.
func TestBenchMetricsEndpoint(t *testing.T) {
	cmd := exec.Command(filepath.Join(binDir, "boxbench"),
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
	dir := t.TempDir()
	box := filepath.Join(dir, "served.box")
	cmd := exec.Command(filepath.Join(binDir, "boxserve"),
		"-store", box, "-addr", "127.0.0.1:0")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	killed := false
	defer func() {
		if !killed {
			cmd.Process.Kill()
		}
	}()

	var addr string
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		if line := sc.Text(); strings.HasPrefix(line, "serving : ") {
			addr = strings.Fields(line)[2]
			break
		}
	}
	if addr == "" {
		t.Fatalf("no serving address announced (scanner err: %v)", sc.Err())
	}
	var serveOut strings.Builder
	drained := make(chan struct{})
	go func() {
		for sc.Scan() {
			serveOut.WriteString(sc.Text() + "\n")
		}
		close(drained)
	}()

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

	// SIGTERM: the drain must finish in-flight work and close the store.
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	killed = true
	// Wait closes the stdout pipe, so it must not run before the reader has
	// seen EOF: the clean-close line would be lost.
	waitDone := make(chan error, 1)
	go func() { <-drained; waitDone <- cmd.Wait() }()
	select {
	case err := <-waitDone:
		if err != nil {
			t.Fatalf("boxserve did not drain cleanly: %v\n%s", err, serveOut.String())
		}
	case <-time.After(15 * time.Second):
		cmd.Process.Kill()
		t.Fatal("boxserve did not exit after SIGTERM")
	}
	if !strings.Contains(serveOut.String(), "closed  : store synced and released") {
		t.Fatalf("no clean-close line:\n%s", serveOut.String())
	}

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

// TestServeTermOnServingLine signals boxserve the instant it announces
// itself. The "serving :" line is what scripts wait on, so a TERM sent on
// seeing it must find the drain handler installed: exit 0 after a clean
// close, and a store that reopens fsck-clean.
func TestServeTermOnServingLine(t *testing.T) {
	for round := 0; round < 5; round++ {
		box := filepath.Join(t.TempDir(), "served.box")
		cmd := exec.Command(filepath.Join(binDir, "boxserve"), "-store", box, "-addr", "127.0.0.1:0")
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
