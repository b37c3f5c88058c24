package bench

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func testSnapshot(avgIO float64) SnapshotFile {
	return SnapshotFile{
		Version:    snapshotVersion,
		Experiment: "concentrated",
		Params:     SnapshotParams{BlockSize: 512, BaseElems: 100, InsertElems: 50, Seed: 1},
		Schemes: []SchemeSnapshot{
			{
				Scheme: "W-BOX", Ops: 50, AvgIO: avgIO, TotalIO: uint64(avgIO * 50),
				MaxIO: 20, P99IO: 10, OpsPerSec: 1000, LatencyP50Ns: 100, LatencyP99Ns: 900,
				Height: 2, LabelBits: 32,
				Gauges: map[string]float64{`boxes_tree_height{scheme="W-BOX"}`: 2},
			},
			{Scheme: "B-BOX", Ops: 50, AvgIO: 3, TotalIO: 150, MaxIO: 8, P99IO: 6, Height: 2},
		},
	}
}

func TestSnapshotFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	want := testSnapshot(4)
	path, err := WriteSnapshotFile(dir, want)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != "BENCH_concentrated.json" {
		t.Errorf("path = %s", path)
	}
	got, err := ReadSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip mismatch:\ngot  %+v\nwant %+v", got, want)
	}
}

func TestDiffFlagsSyntheticRegression(t *testing.T) {
	baseline := testSnapshot(4)
	current := testSnapshot(8) // 2x the I/O cost
	current.Schemes[0].P99IO = 30
	regs, err := Diff(baseline, current, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	byMetric := map[string]Regression{}
	for _, r := range regs {
		if r.Scheme != "W-BOX" {
			t.Errorf("unexpected regression in %s: %v", r.Scheme, r)
		}
		byMetric[r.Metric] = r
	}
	avg, ok := byMetric["avg_io_per_op"]
	if !ok {
		t.Fatal("2x avg_io_per_op not flagged")
	}
	if avg.Ratio != 2 {
		t.Errorf("ratio = %v, want 2", avg.Ratio)
	}
	if _, ok := byMetric["p99_io"]; !ok {
		t.Error("3x p99_io not flagged")
	}
	if _, ok := byMetric["max_io"]; ok {
		t.Error("unchanged max_io flagged")
	}
}

func TestDiffWithinThresholdPasses(t *testing.T) {
	baseline := testSnapshot(4)
	current := testSnapshot(4.5) // 12.5% worse, threshold 25%
	regs, err := Diff(baseline, current, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 0 {
		t.Fatalf("regressions within threshold: %v", regs)
	}
}

func TestDiffRejectsIncomparableSnapshots(t *testing.T) {
	baseline := testSnapshot(4)
	current := testSnapshot(4)
	current.Params.Seed = 99
	if _, err := Diff(baseline, current, 0.25); err == nil {
		t.Error("parameter mismatch not rejected")
	}
	current = testSnapshot(4)
	current.Experiment = "scattered"
	if _, err := Diff(baseline, current, 0.25); err == nil {
		t.Error("experiment mismatch not rejected")
	}
	// A scheme present on only one side is fine: the matrix may grow.
	current = testSnapshot(4)
	current.Schemes = current.Schemes[:1]
	if _, err := Diff(baseline, current, 0.25); err != nil {
		t.Errorf("shrunk scheme matrix rejected: %v", err)
	}
}

// TestWriteBenchSnapshots runs the real (tiny) workloads end to end and
// checks the emitted files diff cleanly against themselves.
func TestWriteBenchSnapshots(t *testing.T) {
	dir := t.TempDir()
	cfg := Default()
	cfg.BlockSize = 512
	cfg.BaseElems = 200
	cfg.InsertElems = 60
	cfg.XMarkElems = 150
	cfg.XMarkPrime = 50
	cfg.NaiveKs = []int{4}
	paths, err := WriteBenchSnapshots(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 6 {
		t.Fatalf("wrote %d snapshots, want 6: %v", len(paths), paths)
	}
	sawWALGauge := false
	for _, path := range paths {
		s, err := ReadSnapshotFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(s.Schemes) == 0 {
			t.Fatalf("%s: no schemes", path)
		}
		for _, sc := range s.Schemes {
			if sc.Ops <= 0 || sc.TotalIO == 0 {
				t.Errorf("%s: %s: empty measurements: %+v", path, sc.Scheme, sc)
			}
			if len(sc.Gauges) == 0 {
				t.Errorf("%s: %s: no final structural gauges", path, sc.Scheme)
			}
			for key := range sc.Gauges {
				if strings.HasPrefix(key, "pager_wal_") {
					sawWALGauge = true
				}
			}
		}
		if regs, err := Diff(s, s, 0.25); err != nil || len(regs) != 0 {
			t.Errorf("%s: self-diff: regs=%v err=%v", path, regs, err)
		}
	}
	if !sawWALGauge {
		t.Error("durable snapshot carries no pager_wal_* gauges for the diff gate")
	}
}
