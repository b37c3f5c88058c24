// Command benchdiff compares two BENCH_*.json snapshots written by
// boxbench -exp snap and fails when the current run regressed past a
// threshold. Only the deterministic I/O metrics are compared (avg/p99/max/
// total I/Os per op — which in the paper's cost model *is* throughput) plus
// the gated gauge families, so a committed baseline stays valid on any
// machine; wall time is the served-request benchmark's job (benchmark/).
//
// Usage:
//
//	benchdiff results/baseline.json BENCH_concentrated.json
//	benchdiff -threshold 0.10 old.json new.json
//	benchdiff -max 'group-8:pager_wal_syncs_per_op=0.25' base.json cur.json
//	benchdiff -min 'group-8:phase_share_commit_wait=0.2' base.json cur.json
//
// -max adds an ABSOLUTE ceiling on a gauge of the current snapshot
// (scheme:gauge=value, repeatable), independent of the baseline: the
// group-commit contract "under a quarter of an fsync per op at batch 8"
// is such a bound — a number the design promises, not a number relative
// to last week. -min is the symmetric absolute floor, for gauges whose
// collapse signals breakage — e.g. phase_share_commit_wait, the fraction
// of durable batch latency attributed to the commit path: a floor holds
// the phase-attribution plumbing itself to account for the fsync cost.
//
// Exit status: 0 when no metric regressed, 1 when at least one did, 2 on
// unreadable files or incomparable snapshots (different experiments or
// workload parameters).
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"boxes/internal/bench"
)

// boundFlags collects repeatable -max/-min scheme:gauge=value assertions.
type boundFlags []boundAssert

type boundAssert struct {
	scheme, gauge string
	bound         float64
}

func (m *boundFlags) String() string { return fmt.Sprintf("%d assertions", len(*m)) }

func (m *boundFlags) Set(s string) error {
	head, val, ok := strings.Cut(s, "=")
	if !ok {
		return fmt.Errorf("want scheme:gauge=value, got %q", s)
	}
	scheme, gauge, ok := strings.Cut(head, ":")
	if !ok {
		return fmt.Errorf("want scheme:gauge=value, got %q", s)
	}
	bound, err := strconv.ParseFloat(val, 64)
	if err != nil {
		return fmt.Errorf("bad bound in %q: %v", s, err)
	}
	*m = append(*m, boundAssert{scheme: scheme, gauge: gauge, bound: bound})
	return nil
}

// checkBound verifies one absolute ceiling (floor=false) or floor
// (floor=true) against the current snapshot. The addressed scheme and
// gauge must exist: a silently missing metric would turn the gate into a
// no-op.
func checkBound(current bench.SnapshotFile, a boundAssert, floor bool) error {
	for _, s := range current.Schemes {
		if s.Scheme != a.scheme {
			continue
		}
		for key, v := range s.Gauges {
			if key == a.gauge || strings.HasPrefix(key, a.gauge+"{") {
				if !floor && v > a.bound {
					return fmt.Errorf("scheme %s metric %s: current %.4g exceeds absolute ceiling %.4g (-max gate)", a.scheme, a.gauge, v, a.bound)
				}
				if floor && v < a.bound {
					return fmt.Errorf("scheme %s metric %s: current %.4g below absolute floor %.4g (-min gate)", a.scheme, a.gauge, v, a.bound)
				}
				return nil
			}
		}
		return fmt.Errorf("scheme %s has no gauge %s", a.scheme, a.gauge)
	}
	return fmt.Errorf("snapshot has no scheme %s", a.scheme)
}

func main() {
	threshold := flag.Float64("threshold", 0.25, "relative regression tolerance (0.25 = fail when 25% worse)")
	var maxes, mins boundFlags
	flag.Var(&maxes, "max", "absolute gauge ceiling on the current snapshot, scheme:gauge=value (repeatable)")
	flag.Var(&mins, "min", "absolute gauge floor on the current snapshot, scheme:gauge=value (repeatable)")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff [flags] <baseline.json> <current.json>")
		os.Exit(2)
	}

	baseline, err := bench.ReadSnapshotFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	current, err := bench.ReadSnapshotFile(flag.Arg(1))
	if err != nil {
		fatal(err)
	}
	regs, err := bench.Diff(baseline, current, *threshold)
	if err != nil {
		fatal(err)
	}
	failedBounds := 0
	for _, a := range maxes {
		if err := checkBound(current, a, false); err != nil {
			fmt.Printf("benchdiff: %s: ceiling violated: %v\n", current.Experiment, err)
			failedBounds++
		}
	}
	for _, a := range mins {
		if err := checkBound(current, a, true); err != nil {
			fmt.Printf("benchdiff: %s: floor violated: %v\n", current.Experiment, err)
			failedBounds++
		}
	}
	if len(regs) == 0 {
		fmt.Printf("benchdiff: %s: no regressions beyond %.0f%% (%d schemes compared, %d bounds held)\n",
			current.Experiment, *threshold*100, len(current.Schemes), len(maxes)+len(mins)-failedBounds)
		if failedBounds > 0 {
			os.Exit(1)
		}
		return
	}
	fmt.Printf("benchdiff: %s: %d regression(s) beyond %.0f%%:\n", current.Experiment, len(regs), *threshold*100)
	for _, r := range regs {
		fmt.Printf("  scheme %-10s metric %-36s baseline %.4g -> current %.4g (%.2fx worse; allowed up to %.4g at threshold +%.0f%%)\n",
			r.Scheme, r.Metric, r.Old, r.New, r.Ratio, r.Old*(1+*threshold), *threshold*100)
	}
	os.Exit(1)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
	os.Exit(2)
}
