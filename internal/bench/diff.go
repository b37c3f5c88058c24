package bench

import (
	"fmt"
	"reflect"
	"strings"
)

// gatedGaugePrefixes are snapshot gauge families benchdiff treats as cost
// metrics: higher is worse, and a rise beyond the threshold is a
// regression. pager_wal_* gauges only appear in snapshots taken over a
// WAL-enabled FileBackend (the durable experiment), where
// pager_wal_write_amplification is the contract: the committed baseline
// holds it near 2x, so the default 25% threshold fails any change that
// pushes physical-write overhead materially past that. boxes_amortized_*
// are the cost-ledger ratios (relabeled records per insert, I/Os per op,
// splits per insert): a rise past the baseline means a scheme's amortized
// bound degraded — the exact regression the paper's analysis forbids.
var gatedGaugePrefixes = []string{"pager_wal_", "boxes_amortized_"}

func gaugeGated(key string) bool {
	for _, p := range gatedGaugePrefixes {
		if strings.HasPrefix(key, p) {
			return true
		}
	}
	return false
}

// Regression is one metric that got worse beyond the diff threshold.
type Regression struct {
	Scheme string  // which scheme regressed
	Metric string  // which metric
	Old    float64 // baseline value
	New    float64 // current value
	Ratio  float64 // new/old
}

func (r Regression) String() string {
	return fmt.Sprintf("%s %s: %.3g -> %.3g (%.2fx worse)", r.Scheme, r.Metric, r.Old, r.New, r.Ratio)
}

// Diff compares a current snapshot against a baseline and returns every
// metric that regressed by more than threshold (0.25 = 25% worse).
//
// The comparison covers the deterministic I/O metrics — avg_io, p99_io,
// max_io, total_io — which are reproducible across machines: in the
// paper's cost model I/Os per op *is* throughput, so a committed baseline
// stays meaningful on any CI runner. The machine-dependent ops/sec and
// latency columns a snapshot also carries are never compared; wall time is
// judged by the served-request benchmark (benchmark/), not here.
//
// Schemes present in only one snapshot are ignored (the matrix may grow),
// but mismatched workload parameters are an error: those numbers are not
// comparable at any threshold.
func Diff(baseline, current SnapshotFile, threshold float64) ([]Regression, error) {
	if baseline.Experiment != current.Experiment {
		return nil, fmt.Errorf("bench: diffing different experiments: %q vs %q", baseline.Experiment, current.Experiment)
	}
	if !reflect.DeepEqual(baseline.Params, current.Params) {
		return nil, fmt.Errorf("bench: workload parameters differ: baseline %+v vs current %+v", baseline.Params, current.Params)
	}
	base := make(map[string]SchemeSnapshot, len(baseline.Schemes))
	for _, s := range baseline.Schemes {
		base[s.Scheme] = s
	}
	var regs []Regression
	for _, cur := range current.Schemes {
		old, ok := base[cur.Scheme]
		if !ok {
			continue
		}
		costs := []struct {
			metric   string
			old, new float64
		}{
			{"avg_io_per_op", old.AvgIO, cur.AvgIO},
			{"p99_io", float64(old.P99IO), float64(cur.P99IO)},
			{"max_io", float64(old.MaxIO), float64(cur.MaxIO)},
			{"total_io", float64(old.TotalIO), float64(cur.TotalIO)},
		}
		for _, c := range costs {
			// Higher is worse; a zero baseline can only regress to non-zero.
			if c.old > 0 && c.new > c.old*(1+threshold) {
				regs = append(regs, Regression{Scheme: cur.Scheme, Metric: c.metric, Old: c.old, New: c.new, Ratio: c.new / c.old})
			}
		}
		for key, oldVal := range old.Gauges {
			if !gaugeGated(key) || oldVal <= 0 {
				continue
			}
			if newVal, ok := cur.Gauges[key]; ok && newVal > oldVal*(1+threshold) {
				regs = append(regs, Regression{Scheme: cur.Scheme, Metric: key, Old: oldVal, New: newVal, Ratio: newVal / oldVal})
			}
		}
	}
	return regs, nil
}
