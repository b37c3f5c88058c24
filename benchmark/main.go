// Command benchmark is the served-request benchmark: four workloads
// against the shipped cmd/boxserve as a subprocess on a real file with
// real fsyncs, end-to-end metrics taken from outside the server, and a
// traced run whose ladder of entry points breaks the same requests down
// layer by layer. See README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"syscall"
	"time"
)

// The benchmark's sizes. They are constants, not flags: a number printed
// under one of the fixed workload names is always a number at this size.
// Only the toy-size test fills a config with anything else.
const (
	docElements   = 500_000
	warmup        = 2 * time.Second
	setupsPerRun  = 5 // setup_s is their median
	ladderLookups = 20_000
	ladderWrites  = 3_000
)

// config is one invocation's settings.
type config struct {
	seed          int64
	elements      int
	window        time.Duration
	warmup        time.Duration
	setups        int
	ladderLookups int
	ladderWrites  int
	out           string

	tmp       string // parent of every store directory
	serverBin string
}

// metric is one reported figure. n is the sample count behind it, 0 when
// it is derived from other metrics.
type metric struct {
	name  string
	value float64
	unit  string
	n     int
}

// declared is one metric as BENCHMARK.json declares it.
type declared struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// contract is BENCHMARK.json.
type contract struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

// findRoot returns the directory holding BENCHMARK.json: the working
// directory (bash benchmark/run.sh) or its parent (go run -C benchmark .).
func findRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for _, dir := range []string{wd, filepath.Dir(wd)} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
	}
	return "", errors.New("BENCHMARK.json not found in the working directory or its parent")
}

// why is the reason BENCHMARK.json records for the named workload.
func (c *contract) why(name string) string {
	for _, w := range c.Workloads {
		if w.Name == name {
			return w.Why
		}
	}
	return ""
}

func loadContract(root string) (*contract, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var c contract
	if err := json.Unmarshal(b, &c); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &c, nil
}

func main() {
	if err := pinToOneCPU(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: running unpinned:", err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:])
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string) error {
	root, err := findRoot()
	if err != nil {
		return err
	}
	spec, err := loadContract(root)
	if err != nil {
		return err
	}

	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var (
		name      = fs.String("workload", "", "run one workload (default: all four)")
		seed      = fs.Int64("seed", 1, "alone determines the document and every request stream")
		seconds   = fs.Int("seconds", spec.RunSeconds, "timed window in seconds")
		trace     = fs.Int("trace", -1, "0: end-to-end run only; 1: traced run only; default: both")
		out       = fs.String("out", "", "directory for trace.jsonl (default: spans are not written)")
		selfcheck = fs.Bool("selfcheck", false, "run the end-to-end set twice and compare against the bounds in BENCHMARK.json")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seconds < 1 || *trace < -1 || *trace > 1 {
		return errors.New("need -seconds >= 1 and -trace 0 or 1")
	}
	run := workloads
	if *name != "" {
		w, ok := workloadByName(*name)
		if !ok {
			return fmt.Errorf("unknown workload %q", *name)
		}
		run = []workload{w}
	}

	build := filepath.Join(root, ".bench_build")
	cfg := &config{
		seed:          *seed,
		elements:      docElements,
		window:        time.Duration(*seconds) * time.Second,
		warmup:        warmup,
		setups:        setupsPerRun,
		ladderLookups: ladderLookups,
		ladderWrites:  ladderWrites,
		out:           *out,
	}
	if err := os.MkdirAll(filepath.Join(build, "tmp"), 0o755); err != nil {
		return err
	}
	// Every store lives under one temporary directory inside the checkout,
	// removed on every exit path; an interrupt cancels ctx, which kills the
	// subprocess and unwinds to here.
	if cfg.tmp, err = os.MkdirTemp(filepath.Join(build, "tmp"), "run-"); err != nil {
		return err
	}
	defer os.RemoveAll(cfg.tmp)
	if cfg.out != "" {
		if err := os.MkdirAll(cfg.out, 0o755); err != nil {
			return err
		}
		os.Remove(filepath.Join(cfg.out, "trace.jsonl"))
	}

	probe, err := fsyncProbeUS(cfg.tmp)
	if err != nil {
		return err
	}
	fmt.Printf("# boxes served-request benchmark: seed=%d elements=%d window=%v warmup=%v connections=%d (closed loop)\n",
		cfg.seed, cfg.elements, cfg.window, cfg.warmup, e2eConns)
	pinned := os.Getenv(pinnedEnv)
	if pinned == "" {
		pinned = "no"
	}
	fmt.Printf("# env: pinned=%q nproc=%d GOMAXPROCS=%d go=%s tmpfs=%s env.fsync_probe_us=%.1f\n",
		pinned, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), fsType(cfg.tmp), probe)
	fmt.Println("# every latency is this sandbox's (reads from the page cache, cheap flushes), not a device's")

	// Built before any clock starts.
	if cfg.serverBin, err = buildServer(ctx, root, filepath.Join(build, "bin")); err != nil {
		return err
	}

	if *selfcheck {
		return selfCheck(ctx, cfg, spec, run)
	}
	for _, w := range run {
		fmt.Printf("# %s: %s\n", w.name, spec.why(w.name))
		res, err := runWorkload(ctx, cfg, w, *trace, probe)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		res.print(w, spec, *trace)
		if !res.Correct {
			return fmt.Errorf("%s: verification failed: %v", w.name, res.err)
		}
	}
	return nil
}

// result is one workload's outcome; its exported fields are the JSON line
// the driver reads.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted uint64               `json:"attempted"`
	Failed    uint64               `json:"failed"`
	Metrics   map[string]jsonValue `json:"metrics"`

	// endToEnd is empty for a traced-only run, perLayer for an
	// end-to-end-only one.
	endToEnd, perLayer []metric
	err                error
}

type jsonValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runWorkload runs one workload's end-to-end run, traced run, or both.
func runWorkload(ctx context.Context, cfg *config, w workload, trace int, probe float64) (*result, error) {
	window, keep := cfg.window, ""
	runCfg := *cfg
	if trace != 0 {
		keep = filepath.Join(cfg.tmp, w.name+"-pristine")
		defer os.RemoveAll(keep)
	}
	if trace == 1 {
		// The traced run only needs the end-to-end medians as its
		// reference: half the window and a single set-up.
		window = halfWindow(cfg.window)
		runCfg.setups = 1
	}
	e2e, img, err := runE2E(ctx, &runCfg, w, window, keep)
	if err != nil {
		return nil, err
	}
	res := &result{
		Correct:   e2e.verifyErr == nil,
		Attempted: e2e.load.attempted,
		Failed:    e2e.load.failed,
		err:       e2e.verifyErr,
	}
	if trace != 1 {
		res.endToEnd = endToEndMetrics(e2e)
	}
	if trace != 0 && res.Correct {
		layers, spans, err := traced(ctx, &runCfg, w, img, keep, e2e.load, halfWindow(cfg.window))
		if err != nil {
			return nil, fmt.Errorf("traced run: %w", err)
		}
		res.perLayer = append(layers,
			metric{"process.rss_peak_mb", e2e.rssPeakMB, "MB", 0},
			metric{"env.fsync_probe_us", probe, "us", fsyncProbes})
		if cfg.out != "" {
			if err := writeSpans(filepath.Join(cfg.out, "trace.jsonl"), spans); err != nil {
				return nil, err
			}
		}
	}
	return res, nil
}

// halfWindow is the traced run's share of -seconds, in whole slices.
func halfWindow(w time.Duration) time.Duration {
	return max(w/2/slice, 1) * slice
}

// endToEndMetrics are the gated figures a user of the served store would
// see, all taken from outside the server (client clocks, /proc, file
// sizes). Each time-based one is taken in every one-second slice of the
// window and reported as the quiet decile of those (see quiet); the
// traced run reports the whole-window figures beside them as ref.*. A
// latency of a kind of request the workload does not issue is absent.
func endToEndMetrics(r *e2eResult) []metric {
	l := r.load
	all := l.acked(numKinds)
	ms := []metric{{"ops_per_s", quiet(l.opsPerSlice(), true), "1/s", all}}
	for _, m := range []struct {
		kind opKind
		name string
		p    float64
	}{
		{kindLookup, "lookup_p50_us", 0.50},
		{kindLookup, "lookup_p99_us", 0.99},
		{kindWrite, "write_p50_us", 0.50},
		{kindWrite, "write_p95_us", 0.95},
	} {
		if v, ok := l.quietUS(m.kind, m.p); ok {
			ms = append(ms, metric{m.name, v, "us", l.acked(m.kind)})
		}
	}
	return append(ms,
		metric{"server_cpu_us_per_op", quiet(l.cpuPerOpUS(), false), "us", all},
		metric{"file_bytes_per_label", float64(r.fileBytes) / float64(max(r.labels, 1)), "B", int(r.labels)},
		metric{"setup_s", r.setup.Seconds(), "s", 0})
}

// filler names, for each by-kind end-to-end latency, the same figure of the
// other kind of request: median for median, tail for tail.
var filler = map[string]string{
	"lookup_p50_us": "write_p50_us",
	"lookup_p99_us": "write_p95_us",
	"write_p50_us":  "lookup_p50_us",
	"write_p95_us":  "lookup_p99_us",
}

// print writes every metric as "workload metric value unit" and then the
// one JSON line of the driver's contract.
func (r *result) print(w workload, spec *contract, trace int) {
	for _, m := range append(slices.Clone(r.endToEnd), r.perLayer...) {
		line := fmt.Sprintf("%s %s %.4f %s", w.name, m.name, m.value, m.unit)
		if m.n > 0 {
			line += fmt.Sprintf(" n=%d", m.n)
		}
		fmt.Println(line)
	}
	fmt.Printf("%s failed_share %.6f share attempted=%d failed=%d\n", w.name,
		float64(r.Failed)/float64(max(r.Attempted, 1)), r.Attempted, r.Failed)
	if r.Correct {
		fmt.Printf("%s verification passed\n", w.name)
	} else {
		fmt.Printf("%s verification FAILED: %v\n", w.name, r.err)
	}
	r.fillMetrics(spec, trace)
	line, _ := json.Marshal(r) // a struct of numbers and strings cannot fail
	fmt.Println(string(line))
}

// fillMetrics sets the JSON line's metrics: exactly the declared end-to-end
// metrics for an end-to-end run, exactly the declared per-layer metrics
// for a traced run. The contract wants every declared name on every
// workload and no gated value of 0, so a metric of a kind of request the
// workload does not issue, absent from the readable lines, is filled in
// here: an end-to-end latency with the matching figure of the one kind the
// workload does issue (see filler), a per-layer metric with 0.
func (r *result) fillMetrics(spec *contract, trace int) {
	decl, got := spec.EndToEnd, r.endToEnd
	if trace == 1 {
		decl, got = spec.PerLayer, r.perLayer
	}
	r.Metrics = make(map[string]jsonValue, len(decl))
	for _, d := range decl {
		v, ok := find(got, d.Name)
		if !ok {
			v, _ = find(got, filler[d.Name])
		}
		r.Metrics[d.Name] = jsonValue{v, d.Unit}
	}
}

// selfCheck runs the end-to-end set twice back to back and holds the two
// against each other with the bounds of BENCHMARK.json: the tool for
// checking that the ruler is steady, and for re-baselining.
func selfCheck(ctx context.Context, cfg *config, spec *contract, run []workload) error {
	var sets [2]map[string][]metric
	for i := range sets {
		sets[i] = make(map[string][]metric)
		for _, w := range run {
			res, err := runWorkload(ctx, cfg, w, 0, 0)
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			if !res.Correct {
				return fmt.Errorf("%s: verification failed: %v", w.name, res.err)
			}
			sets[i][w.name] = res.endToEnd
		}
	}
	if bad := compareSets(os.Stdout, spec.EndToEnd, run, sets[0], sets[1]); bad > 0 {
		return fmt.Errorf("selfcheck: %d metrics differ by more than their bound between two runs of the same code", bad)
	}
	return nil
}

// compareSets prints, per workload and declared metric, both readings, how
// far apart they are and the bound, and returns how many are further apart
// than their bound. The distance is taken from the better of the two
// readings, so it does not matter which run was the disturbed one.
func compareSets(out io.Writer, decl []declared, run []workload, first, second map[string][]metric) (bad int) {
	fmt.Fprintf(out, "%-16s %-22s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "apart", "bound")
	for _, w := range run {
		for _, d := range decl {
			a, ok := find(first[w.name], d.Name)
			b, _ := find(second[w.name], d.Name)
			if !ok {
				continue // a kind of request the workload does not issue
			}
			best := min(a, b)
			if d.Better == "higher" {
				best = max(a, b)
			}
			apart := math.Abs(a-b) / best
			verdict := ""
			if apart > d.Bound {
				verdict = "  OVER"
				bad++
			}
			fmt.Fprintf(out, "%-16s %-22s %14.4f %14.4f %8.1f%% %6.0f%%%s\n", w.name, d.Name, a, b, 100*apart, 100*d.Bound, verdict)
		}
	}
	return bad
}

// find returns the value of the named metric, if it is there.
func find(ms []metric, name string) (float64, bool) {
	for _, m := range ms {
		if m.name == name {
			return m.value, true
		}
	}
	return 0, false
}

const fsyncProbes = 100

// fsyncProbeUS is the median of 100 write+fsync of one block in dir: the
// sandbox's flush cost, recorded so numbers from another machine are not
// mistaken for a regression.
func fsyncProbeUS(dir string) (float64, error) {
	f, err := os.CreateTemp(dir, "fsync-probe-")
	if err != nil {
		return 0, err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	buf := make([]byte, blockSize)
	durs := make([]int64, fsyncProbes)
	for i := range durs {
		t0 := time.Now()
		if _, err := f.WriteAt(buf, 0); err != nil {
			return 0, err
		}
		if err := f.Sync(); err != nil {
			return 0, err
		}
		durs[i] = int64(time.Since(t0))
	}
	return float64(quantile(durs, 0.5)) / 1e3, nil
}

// fsType names the filesystem holding dir, by its statfs magic.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53:     "ext4",
		0x01021994: "tmpfs",
		0x794c7630: "overlayfs",
		0x58465342: "xfs",
		0x9123683E: "btrfs",
		0x6969:     "nfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}
