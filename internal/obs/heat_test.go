package obs

import (
	"sync"
	"testing"
)

// TestHeatSampleExact: keys inside the initial range land in exact buckets
// with bucket width 1.
func TestHeatSampleExact(t *testing.T) {
	r := NewRegistry()
	r.HeatLabelInsert(0)
	r.HeatLabelInsert(7)
	r.HeatLabelInsert(7)
	r.HeatLabelInsert(255)

	snap := r.HeatDebug().Label
	if snap.BucketWidth != 1 || snap.Shift != 0 {
		t.Fatalf("width = %d shift = %d, want 1/0", snap.BucketWidth, snap.Shift)
	}
	ins := snap.Series[heatSeriesInserts]
	if ins.Samples != 4 {
		t.Errorf("samples = %d, want 4", ins.Samples)
	}
	for b, want := range map[int]uint64{0: 1, 7: 2, 255: 1} {
		if ins.Counts[b] != want {
			t.Errorf("bucket %d = %d, want %d", b, ins.Counts[b], want)
		}
	}
}

// TestHeatGrowFoldsExactly: a key beyond the range doubles the bucket width
// and folds counts pairwise; single-threaded the fold loses nothing.
func TestHeatGrowFoldsExactly(t *testing.T) {
	r := NewRegistry()
	for k := uint64(0); k < 256; k++ {
		r.HeatLabelInsert(k)
	}
	r.HeatLabelInsert(1000) // needs shift 2: 1000>>2 = 250

	snap := r.HeatDebug().Label
	if snap.Shift != 2 || snap.BucketWidth != 4 {
		t.Fatalf("shift = %d width = %d, want 2/4", snap.Shift, snap.BucketWidth)
	}
	ins := snap.Series[heatSeriesInserts]
	if ins.Samples != 257 {
		t.Errorf("samples = %d, want 257", ins.Samples)
	}
	var total uint64
	for b, c := range ins.Counts {
		total += c
		switch {
		case b < 64: // original 256 keys folded to 4 per bucket
			if c != 4 {
				t.Errorf("bucket %d = %d, want 4", b, c)
			}
		case b == 250: // the sample that forced the growth
			if c != 1 {
				t.Errorf("bucket 250 = %d, want 1", c)
			}
		default:
			if c != 0 {
				t.Errorf("bucket %d = %d, want 0", b, c)
			}
		}
	}
	if total != 257 {
		t.Errorf("count total = %d, want 257 (fold must conserve)", total)
	}
}

// TestHeatSharedScale: every series of a space folds together, so bucket i
// means the same key range in all of them.
func TestHeatSharedScale(t *testing.T) {
	r := NewRegistry()
	r.CostIO(0, false, 40)
	r.CostIO(0, true, 40)
	r.CostIO(0, false, 4000) // forces shift 4: 4000>>4 = 250

	snap := r.HeatDebug().Block
	if snap.Shift != 4 {
		t.Fatalf("shift = %d, want 4", snap.Shift)
	}
	b := 40 >> 4
	if got := snap.Series[heatSeriesBlockReads].Counts[b]; got != 1 {
		t.Errorf("read bucket %d = %d, want 1", b, got)
	}
	if got := snap.Series[heatSeriesBlockWrites].Counts[b]; got != 1 {
		t.Errorf("write bucket %d = %d, want 1 (series must share the scale)", b, got)
	}
}

// TestHeatGauges: the /metrics summary reports sample counts, hot-bucket
// share, and occupancy, skipping empty series.
func TestHeatGauges(t *testing.T) {
	r := NewRegistry()
	for i := 0; i < 9; i++ {
		r.HeatLabelInsert(5)
	}
	r.HeatLabelInsert(200)

	gs := map[string]float64{}
	for _, g := range r.heatLabel.heatGauges() {
		gs[g.Key()] = g.Value
	}
	if len(gs) != 3 {
		t.Fatalf("gauges = %v, want exactly the 3 insert-series gauges", gs)
	}
	sel := `{space="label",series="inserts"}`
	if got := gs["boxes_heat_samples"+sel]; got != 10 {
		t.Errorf("samples = %v, want 10", got)
	}
	if got := gs["boxes_heat_hot_bucket_share"+sel]; got != 0.9 {
		t.Errorf("hot share = %v, want 0.9", got)
	}
	if got := gs["boxes_heat_occupied_buckets"+sel]; got != 2 {
		t.Errorf("occupied = %v, want 2", got)
	}
}

// TestHeatBlockSpaceFedByCostIO: the block space and ledger share one entry
// point.
func TestHeatBlockSpaceFedByCostIO(t *testing.T) {
	r := NewRegistry()
	r.CostIO(0, false, 9)
	r.CostIO(-1, true, 9)

	snap := r.HeatDebug().Block
	if got := snap.Series[heatSeriesBlockReads].Counts[9]; got != 1 {
		t.Errorf("read bucket 9 = %d, want 1", got)
	}
	if got := snap.Series[heatSeriesBlockWrites].Counts[9]; got != 1 {
		t.Errorf("write bucket 9 = %d, want 1", got)
	}
}

// TestHeatConcurrentSamples hammers one space from many goroutines across
// a growth boundary; run under -race this is the data-race check, and the
// invariants checked after are the ones the design promises even with the
// documented bounded loss: shift large enough for every key, and per-series
// sample totals exact (samples is a plain atomic add).
func TestHeatConcurrentSamples(t *testing.T) {
	r := NewRegistry()
	const goroutines = 8
	const perG = 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				// Walk outward so growth happens mid-flight, several times.
				r.HeatLabelInsert(uint64(i) * uint64(g+1))
			}
		}(g)
	}
	wg.Wait()

	snap := r.HeatDebug().Label
	maxKey := uint64(perG-1) * goroutines
	if maxKey>>snap.Shift >= heatBuckets {
		t.Errorf("shift %d does not cover max key %d", snap.Shift, maxKey)
	}
	ins := snap.Series[heatSeriesInserts]
	if ins.Samples != goroutines*perG {
		t.Errorf("samples = %d, want %d", ins.Samples, goroutines*perG)
	}
	var total uint64
	for _, c := range ins.Counts {
		total += c
	}
	if total > ins.Samples {
		t.Errorf("bucket total %d exceeds samples %d", total, ins.Samples)
	}
}
