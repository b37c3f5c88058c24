// Command boxtop is a live latency console for a running boxes process
// (boxbench -metrics, boxload -metrics -linger, or any embedder serving
// obs.Handler). It polls /debug/spans — per-op and per-phase latency
// summaries plus captured slow operations — the cost-ledger and heat-map
// payload from /debug/heat, and a few durability gauges from /metrics,
// and redraws a compact dashboard each interval.
//
// Interactive runs draw into the terminal's alternate screen and restore
// the primary screen on exit, including SIGINT/SIGTERM — a Ctrl-C never
// leaves the shell stuck in the dashboard buffer.
//
// Usage:
//
//	boxtop :9100
//	boxtop -refresh 2s -phases 12 localhost:9100
//	boxtop -once :9100          # one snapshot, no screen switching (scriptable)
//	boxtop -metrics-url http://prod-host:9100 -once   # remote boxserve
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"boxes/internal/obs"
	"boxes/internal/pager"
)

// Alternate-screen control sequences (xterm/DEC private modes): 1049h/l
// switch to/from the alternate buffer, 25l/h hide/show the cursor.
const (
	enterAltScreen = "\x1b[?1049h\x1b[?25l"
	leaveAltScreen = "\x1b[?25h\x1b[?1049l"
)

func main() {
	var (
		refresh = flag.Duration("refresh", 1*time.Second, "redraw interval")
		n       = flag.Int("n", 0, "number of polls before exiting (0 = forever)")
		once    = flag.Bool("once", false, "print one snapshot without switching screens and exit")
		phases  = flag.Int("phases", 16, "phase rows shown (hottest first)")
		slow    = flag.Int("slow", 5, "slow operations shown (newest first)")
		heat    = flag.Bool("heat", true, "show the cost-ledger / heat-map panel from /debug/heat")
		url     = flag.String("metrics-url", "", "metrics endpoint of a running server (e.g. http://host:9100); alternative to the positional host:port")
	)
	// -interval predates -refresh; both names drive the same duration.
	flag.DurationVar(refresh, "interval", 1*time.Second, "alias for -refresh")
	flag.Parse()
	base := *url
	if base == "" {
		if flag.NArg() != 1 {
			fmt.Fprintln(os.Stderr, "usage: boxtop [flags] <host:port>  |  boxtop -metrics-url <url> [flags]")
			os.Exit(2)
		}
		base = flag.Arg(0)
	} else if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "boxtop: give either -metrics-url or a positional host:port, not both")
		os.Exit(2)
	}
	if !strings.Contains(base, "://") {
		if strings.HasPrefix(base, ":") {
			base = "localhost" + base
		}
		base = "http://" + base
	}
	base = strings.TrimRight(base, "/")

	client := &http.Client{Timeout: 5 * time.Second}
	opts := renderOptions{Phases: *phases, Slow: *slow, Heat: *heat}

	interactive := !*once
	restore := func() {}
	if interactive {
		fmt.Fprint(os.Stdout, enterAltScreen)
		restore = func() { fmt.Fprint(os.Stdout, leaveAltScreen) }
		// A Ctrl-C (or a kill from a supervisor) must put the terminal
		// back on the primary screen before the process dies; otherwise
		// the user's shell is stranded in the alternate buffer.
		sigs := make(chan os.Signal, 1)
		signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
		go func() {
			<-sigs
			restore()
			os.Exit(130)
		}()
	}

	exit := func(code int) {
		restore()
		os.Exit(code)
	}
	for i := 0; *n == 0 || i < *n; i++ {
		if i > 0 {
			time.Sleep(*refresh)
		}
		d, gauges, err := poll(client, base)
		if err != nil {
			restore()
			fmt.Fprintf(os.Stderr, "boxtop: %v\n", err)
			os.Exit(1)
		}
		var hd *obs.HeatDebugPayload
		if opts.Heat {
			// Older servers have no /debug/heat; the panel just stays off.
			hd, _ = pollHeat(client, base)
		}
		w := bufio.NewWriter(os.Stdout)
		if interactive {
			fmt.Fprint(w, "\x1b[H\x1b[2J") // home + clear
		}
		render(w, base, d, gauges, hd, opts)
		w.Flush()
		if *once {
			return
		}
	}
	exit(0)
}

// poll fetches /debug/spans and the durability gauge lines of /metrics.
func poll(client *http.Client, base string) (obs.SpansDebug, []string, error) {
	var d obs.SpansDebug
	resp, err := client.Get(base + "/debug/spans")
	if err != nil {
		return d, nil, err
	}
	err = json.NewDecoder(resp.Body).Decode(&d)
	resp.Body.Close()
	if err != nil {
		return d, nil, fmt.Errorf("decoding /debug/spans: %w", err)
	}
	gauges, err := pollGauges(client, base)
	if err != nil {
		return d, nil, err
	}
	return d, gauges, nil
}

// pollHeat fetches the cost-ledger / heat-map payload; a missing endpoint
// or decode failure disables the panel for this frame rather than killing
// the dashboard.
func pollHeat(client *http.Client, base string) (*obs.HeatDebugPayload, error) {
	resp, err := client.Get(base + "/debug/heat")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/debug/heat: %s", resp.Status)
	}
	var hd obs.HeatDebugPayload
	if err := json.NewDecoder(resp.Body).Decode(&hd); err != nil {
		return nil, fmt.Errorf("decoding /debug/heat: %w", err)
	}
	return &hd, nil
}

// gaugePrefixes selects the /metrics families worth a dashboard line: the
// WAL and admission-queue behavior the trace view exists to explain.
var gaugePrefixes = []string{
	"pager_wal_syncs_per_commit",
	"pager_wal_size_bytes",
	"pager_checkpoints_total",
	"serve_queue_depth",
	"serve_shed_total",
	"serve_conns_active",
}

func pollGauges(client *http.Client, base string) ([]string, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var out []string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		for _, p := range gaugePrefixes {
			if strings.HasPrefix(line, p) {
				out = append(out, line)
				break
			}
		}
	}
	return out, sc.Err()
}

type renderOptions struct {
	Phases int  // max phase rows
	Slow   int  // max slow ops
	Heat   bool // show the ledger / heat panel
}

// render draws one dashboard frame. Split out from main so tests can drive
// it with a canned SpansDebug.
func render(w io.Writer, target string, d obs.SpansDebug, gauges []string, hd *obs.HeatDebugPayload, o renderOptions) {
	state := "histograms only"
	if d.TracingEnabled {
		state = "tracing on"
	}
	fmt.Fprintf(w, "boxtop  %s  (%s)  %s\n\n", target, state, time.Now().Format("15:04:05"))

	fmt.Fprintf(w, "%-16s %10s %8s %10s %10s %10s\n", "op", "count", "errors", "p50", "p99", "total")
	for _, op := range d.Ops {
		fmt.Fprintf(w, "%-16s %10d %8d %10s %10s %10s\n",
			op.Op, op.Count, op.Errors, ns(op.P50Ns), ns(op.P99Ns), ns(op.TotalNs))
	}

	fmt.Fprintf(w, "\n%-28s %10s %10s %10s %10s %6s\n", "phase", "count", "p50", "p99", "total", "share")
	var grand uint64
	for _, ph := range d.Phases {
		grand += ph.TotalNs
	}
	rows := d.Phases
	if o.Phases > 0 && len(rows) > o.Phases {
		rows = rows[:o.Phases]
	}
	for _, ph := range rows {
		share := 0.0
		if grand > 0 {
			share = float64(ph.TotalNs) / float64(grand)
		}
		fmt.Fprintf(w, "%-28s %10d %10s %10s %10s %5.1f%%\n",
			ph.Op+"."+ph.Phase, ph.Count, ns(ph.P50Ns), ns(ph.P99Ns), ns(ph.TotalNs), 100*share)
	}
	if len(d.Phases) > len(rows) {
		fmt.Fprintf(w, "  ... %d more phase rows\n", len(d.Phases)-len(rows))
	}

	if len(gauges) > 0 {
		fmt.Fprintln(w, "\ndurability:")
		sort.Strings(gauges)
		for _, g := range gauges {
			if v, ok := strings.CutPrefix(g, "pager_wal_size_bytes "); ok {
				if size, err := strconv.ParseFloat(v, 64); err == nil {
					g += fmt.Sprintf("  (%.0f%% of the %d-byte checkpoint bound)",
						100*size/pager.WALCheckpointBytes, pager.WALCheckpointBytes)
				}
			}
			fmt.Fprintf(w, "  %s\n", g)
		}
	}

	if hd != nil {
		renderHeat(w, hd)
	}

	if len(d.SlowOps) > 0 {
		fmt.Fprintf(w, "\nslow ops (last %d):\n", min(o.Slow, len(d.SlowOps)))
		shown := d.SlowOps
		if o.Slow > 0 && len(shown) > o.Slow {
			shown = shown[len(shown)-o.Slow:] // newest are at the tail
		}
		for i := len(shown) - 1; i >= 0; i-- {
			s := shown[i]
			fmt.Fprintf(w, "  %-10s %-8s %10s  %d spans%s\n",
				s.Root.Name, s.Root.Scheme, ns(uint64(s.Root.Dur)), len(s.Tree), errSuffix(s.Root.Err))
			for _, sp := range topSpans(s.Tree, 4) {
				fmt.Fprintf(w, "    %-24s %10s%s\n", sp.Name, ns(uint64(sp.Dur)), errSuffix(sp.Err))
			}
		}
	}
}

// renderHeat draws the amortized-cost ratios and the two heat maps.
func renderHeat(w io.Writer, hd *obs.HeatDebugPayload) {
	if len(hd.Amortized) > 0 {
		fmt.Fprintln(w, "\namortized cost (per scheme, lifetime | window):")
		for _, line := range amortizedRows(hd.Amortized) {
			fmt.Fprintf(w, "  %s\n", line)
		}
	}
	cons := "ok"
	if !hd.ConservationOK {
		cons = "VIOLATED: " + hd.ConservationEr
	}
	fmt.Fprintf(w, "ledger conservation: %s\n", cons)
	for _, space := range []obs.HeatSpaceSnap{hd.Label, hd.Block} {
		drawn := false
		for _, s := range space.Series {
			if s.Samples == 0 {
				continue
			}
			if !drawn {
				fmt.Fprintf(w, "\nheat %-6s (bucket width %d):\n", space.Space, space.BucketWidth)
				drawn = true
			}
			fmt.Fprintf(w, "  %-14s %9d |%s|\n", s.Name, s.Samples, heatBar(s.Counts, 64))
		}
	}
}

// amortizedRows folds the flat amortized gauge list into one line per
// scheme: "scheme  relabels/ins 1.2 splits/ins 0.03 io/op 2.1 ...".
func amortizedRows(gs []obs.GaugeValue) []string {
	short := map[string]string{
		"boxes_amortized_relabels_per_insert":        "relabels/ins",
		"boxes_amortized_splits_per_insert":          "splits/ins",
		"boxes_amortized_ios_per_op":                 "io/op",
		"boxes_amortized_window_relabels_per_insert": "w.relabels/ins",
		"boxes_amortized_window_ios_per_op":          "w.io/op",
	}
	order := []string{"relabels/ins", "splits/ins", "io/op", "w.relabels/ins", "w.io/op"}
	byScheme := map[string]map[string]float64{}
	var schemes []string
	for _, g := range gs {
		name, ok := short[g.Name]
		if !ok {
			continue
		}
		scheme := "?"
		for _, kv := range g.Labels {
			if kv[0] == "scheme" {
				scheme = kv[1]
			}
		}
		if byScheme[scheme] == nil {
			byScheme[scheme] = map[string]float64{}
			schemes = append(schemes, scheme)
		}
		byScheme[scheme][name] = g.Value
	}
	sort.Strings(schemes)
	var out []string
	for _, scheme := range schemes {
		var b strings.Builder
		fmt.Fprintf(&b, "%-10s", scheme)
		for _, k := range order {
			if v, ok := byScheme[scheme][k]; ok {
				fmt.Fprintf(&b, "  %s %.3g", k, v)
			}
		}
		out = append(out, b.String())
	}
	return out
}

// heatRamp maps relative bucket intensity to glyphs, coldest to hottest.
const heatRamp = " .:-=+*#%@"

// heatBar compresses a bucket histogram into a width-column ASCII bar,
// scaled to the hottest compressed cell.
func heatBar(counts []uint64, width int) string {
	if width <= 0 || len(counts) == 0 {
		return ""
	}
	if width > len(counts) {
		width = len(counts)
	}
	cells := make([]uint64, width)
	var max uint64
	for i, c := range counts {
		j := i * width / len(counts)
		cells[j] += c
		if cells[j] > max {
			max = cells[j]
		}
	}
	if max == 0 {
		return strings.Repeat(" ", width)
	}
	var b strings.Builder
	for _, c := range cells {
		// Zero stays blank; any activity gets at least the faintest glyph.
		idx := 0
		if c > 0 {
			idx = 1 + int(uint64(len(heatRamp)-2)*c/max)
		}
		b.WriteByte(heatRamp[idx])
	}
	return b.String()
}

// topSpans returns the k longest spans of a slow-op tree.
func topSpans(tree []obs.SpanRecord, k int) []obs.SpanRecord {
	out := append([]obs.SpanRecord(nil), tree...)
	sort.Slice(out, func(i, j int) bool { return out[i].Dur > out[j].Dur })
	if len(out) > k {
		out = out[:k]
	}
	return out
}

func errSuffix(e string) string {
	if e == "" {
		return ""
	}
	return "  ERROR: " + e
}

// ns renders a nanosecond quantity compactly.
func ns(v uint64) string {
	return time.Duration(v).Round(time.Microsecond).String()
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
