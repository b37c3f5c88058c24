package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestToyRun runs all four workloads and their traced runs at toy size
// against a real boxserve subprocess and checks what the driver and later
// issues rely on: verification passes, the emitted metric names are exactly
// the declared ones, and the trace is a well-formed ladder.
func TestToyRun(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadContract(root)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	t.Cleanup(cancel)
	bin, err := buildServer(ctx, root, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	declaredNames := func(ds []declared) map[string]bool {
		m := make(map[string]bool, len(ds))
		for _, d := range ds {
			m[d.Name] = true
		}
		return m
	}
	endToEnd, perLayer := declaredNames(spec.EndToEnd), declaredNames(spec.PerLayer)

	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			cfg := &config{
				seed:          1,
				elements:      10_000,
				window:        time.Second,
				warmup:        200 * time.Millisecond,
				setups:        1,
				ladderLookups: 1000,
				ladderWrites:  150,
				out:           t.TempDir(),
				tmp:           t.TempDir(),
				serverBin:     bin,
			}
			res, err := runWorkload(ctx, cfg, w, -1, 1)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("correct=%v failed=%d: %v", res.Correct, res.Failed, res.err)
			}

			check := func(kind string, declared map[string]bool, emitted []metric) {
				got := make(map[string]bool)
				for _, m := range emitted {
					got[m.name] = true
					if !declared[m.name] {
						t.Errorf("%s metric %s is not declared in BENCHMARK.json", kind, m.name)
					}
				}
				for name := range declared {
					if carries(w, name) != got[name] {
						t.Errorf("%s metric %s: emitted=%v, want %v", kind, name, got[name], carries(w, name))
					}
				}
			}
			check("end-to-end", endToEnd, res.endToEnd)
			check("per-layer", perLayer, res.perLayer)
			for _, m := range res.endToEnd {
				if m.value == 0 {
					t.Errorf("end-to-end metric %s is 0", m.name)
				}
			}

			// The driver's JSON line carries every declared end-to-end name,
			// none of them 0, whatever the workload issues.
			res.fillMetrics(spec, 0)
			for name := range endToEnd {
				if res.Metrics[name].Value == 0 {
					t.Errorf("JSON line: end-to-end metric %s is 0 or missing", name)
				}
			}
			checkTrace(t, filepath.Join(cfg.out, "trace.jsonl"), w)
		})
	}
}

// carries reports whether workload w should emit the metric: one that
// measures a kind of request exists only where that kind is issued, and the
// direct calls are reported once, on read_point.
func carries(w workload, name string) bool {
	for _, direct := range []string{"pager.read_hit_", "pager.read_miss_", "lidf.", "obs."} {
		if strings.HasPrefix(name, direct) {
			return w.name == "read_point"
		}
	}
	if strings.Contains(name, "write") || name == "pager.group_mean" {
		return w.issues(kindWrite)
	}
	if strings.Contains(name, "lookup") {
		return w.issues(kindLookup)
	}
	return true
}

// TestCompareSets checks that -selfcheck's verdict does not depend on which
// of the two runs was the disturbed one.
func TestCompareSets(t *testing.T) {
	decl := []declared{
		{Name: "lookup_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
		{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
		{Name: "write_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	}
	run := workloads[:1] // read_point: no write figure
	quiet := map[string][]metric{"read_point": {{"lookup_p50_us", 100, "us", 1}, {"ops_per_s", 1000, "1/s", 1}}}
	slow := map[string][]metric{"read_point": {{"lookup_p50_us", 140, "us", 1}, {"ops_per_s", 700, "1/s", 1}}}
	near := map[string][]metric{"read_point": {{"lookup_p50_us", 120, "us", 1}, {"ops_per_s", 850, "1/s", 1}}}
	for _, c := range []struct {
		name          string
		first, second map[string][]metric
		want          int
	}{
		{"second run disturbed", quiet, slow, 2},
		{"first run disturbed", slow, quiet, 2},
		{"within the bound", quiet, near, 0},
		{"within the bound, reversed", near, quiet, 0},
	} {
		if got := compareSets(io.Discard, decl, run, c.first, c.second); got != c.want {
			t.Errorf("%s: %d metrics over their bound, want %d", c.name, got, c.want)
		}
	}
}

// checkTrace parses trace.jsonl and checks that every span below the
// outermost rung has its parent: the span of the same request one rung out.
func checkTrace(t *testing.T, path string, w workload) {
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	type key struct {
		rung string
		op   int
	}
	var spans []span
	have := make(map[key]bool)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("trace.jsonl: %v", err)
		}
		if s.Workload != w.name || s.End < s.Start {
			t.Fatalf("bad span %+v", s)
		}
		spans = append(spans, s)
		have[key{s.Rung, s.Op}] = true
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	rungs := make(map[string]int)
	for _, s := range spans {
		rungs[s.Rung]++
		if s.Parent != "" && !have[key{s.Parent, s.Op}] {
			t.Fatalf("span %+v has no parent on rung %s", s, s.Parent)
		}
	}
	for _, r := range rungNames {
		if rungs[r] == 0 {
			t.Errorf("no spans on rung %s", r)
		}
	}
	if rungs["concurrent"] == 0 {
		t.Error("no spans from the concurrent pass")
	}
}
