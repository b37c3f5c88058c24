package obs

import (
	"errors"
	"strings"
	"testing"
	"time"
)

func TestHistBucketBoundaries(t *testing.T) {
	h := &hist{bounds: ioBounds}
	// One observation exactly on each bound lands in that bound's bucket.
	for _, b := range ioBounds {
		h.observe(b)
	}
	for i, b := range ioBounds {
		if got := h.counts[i].Load(); got != 1 {
			t.Errorf("bucket le=%d: count %d, want 1", b, got)
		}
	}
	if got := h.counts[len(ioBounds)].Load(); got != 0 {
		t.Errorf("overflow bucket: count %d, want 0", got)
	}
	// One past the largest bound overflows.
	h.observe(ioBounds[len(ioBounds)-1] + 1)
	if got := h.counts[len(ioBounds)].Load(); got != 1 {
		t.Errorf("overflow bucket after big observation: count %d, want 1", got)
	}
	// A bound+1 value in the middle lands in the next bucket (le semantics).
	h2 := &hist{bounds: ioBounds}
	h2.observe(3) // bounds ... 2, 4 ... => le=4 bucket, index 3
	if got := h2.counts[3].Load(); got != 1 {
		t.Errorf("observe(3): le=4 bucket count %d, want 1", got)
	}
	var wantSum uint64
	for _, b := range ioBounds {
		wantSum += b
	}
	wantSum += ioBounds[len(ioBounds)-1] + 1
	if got := h.sum.Load(); got != wantSum {
		t.Errorf("sum %d, want %d", got, wantSum)
	}
}

func TestLatencyBoundsShape(t *testing.T) {
	if len(latencyBounds)+1 > maxBuckets || len(ioBounds)+1 > maxBuckets {
		t.Fatalf("bounds exceed maxBuckets=%d", maxBuckets)
	}
	for i := 1; i < len(latencyBounds); i++ {
		if latencyBounds[i] != latencyBounds[i-1]*2 {
			t.Fatalf("latency bounds not exponential at %d", i)
		}
	}
}

func TestBeginEndRecords(t *testing.T) {
	r := NewRegistry()
	c := r.Begin("W-BOX", OpInsert, 10, 20)
	r.End(c, 13, 25, nil)
	if got := r.OpCount(OpInsert); got != 1 {
		t.Fatalf("OpCount = %d, want 1", got)
	}
	s := r.Snapshot().Ops["insert"]
	if s.Reads.Sum != 3 || s.Writes.Sum != 5 {
		t.Errorf("I/O delta sums = (%d, %d), want (3, 5)", s.Reads.Sum, s.Writes.Sum)
	}
	if s.Errors != 0 {
		t.Errorf("errors = %d, want 0", s.Errors)
	}
	// Errors count; counter reset mid-op saturates instead of wrapping.
	c = r.Begin("W-BOX", OpInsert, 100, 100)
	r.End(c, 0, 0, errors.New("boom"))
	s = r.Snapshot().Ops["insert"]
	if s.Errors != 1 {
		t.Errorf("errors = %d, want 1", s.Errors)
	}
	if s.Reads.Sum != 3 || s.Writes.Sum != 5 {
		t.Errorf("saturated delta changed sums to (%d, %d)", s.Reads.Sum, s.Writes.Sum)
	}
}

func TestNilRegistrySafe(t *testing.T) {
	var r *Registry
	r.Inc(CtrWBoxSplits)
	r.Add(CtrWBoxSplits, 3)
	r.SetScheme("W-BOX")
	c := r.Begin("W-BOX", OpLookup, 0, 0)
	r.End(c, 1, 1, nil)
	if r.Counter(CtrWBoxSplits) != 0 || r.OpCount(OpLookup) != 0 {
		t.Fatal("nil registry recorded something")
	}
	if n, err := r.WriteTo(&strings.Builder{}); n != 0 || err != nil {
		t.Fatalf("nil WriteTo = (%d, %v)", n, err)
	}
	snap := r.Snapshot()
	if len(snap.Ops) != 0 && snap.Ops["lookup"].Count != 0 {
		t.Fatal("nil snapshot non-empty")
	}
}

func TestNoHookFastPathZeroAllocs(t *testing.T) {
	r := NewRegistry()
	allocs := testing.AllocsPerRun(1000, func() {
		c := r.Begin("W-BOX", OpLookup, 0, 0)
		r.End(c, 1, 0, nil)
	})
	if allocs != 0 {
		t.Fatalf("no-hook Begin/End allocates %v times per op, want 0", allocs)
	}
}

// TestFlightRecorderOrderingAndPayload: a recorder driven around one op
// holds its start marker, then its end event carrying the scheme, the op,
// the I/O delta against the Begin counters and the wall time End measured.
func TestFlightRecorderOrderingAndPayload(t *testing.T) {
	r := NewRegistry()
	f := NewFlightRecorder(r, t.TempDir())
	c := r.Begin("B-BOX", OpDelete, 5, 5)
	f.OpStart(c)
	d := r.End(c, 7, 6, nil)
	f.OpEnd(c, 7, 6, d, nil)
	f.mu.Lock()
	evs := f.recent()
	f.mu.Unlock()
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2 (start, end)", len(evs))
	}
	if !evs[0].Start || evs[1].Start {
		t.Fatalf("event order wrong: %+v", evs)
	}
	if start := evs[0]; start.Scheme != "B-BOX" || start.Op != "delete" {
		t.Errorf("start event payload = %+v", start)
	}
	end := evs[1]
	if end.Scheme != "B-BOX" || end.Op != "delete" || end.Reads != 2 || end.Writes != 1 {
		t.Errorf("end event payload = %+v", end)
	}
	if end.Duration != int64(d) || end.Duration < 0 {
		t.Errorf("end duration %d, want End's %d", end.Duration, d)
	}
	if f.Dumps() != 0 {
		t.Errorf("a successful op dumped %d times", f.Dumps())
	}
}

// TestFlightRecorderRingWraps: past flightRing events the ring keeps the
// newest ones, oldest first.
func TestFlightRecorderRingWraps(t *testing.T) {
	f := NewFlightRecorder(NewRegistry(), t.TempDir())
	const extra = 2
	for i := 0; i < flightRing+extra; i++ {
		f.OpEnd(OpCtx{op: Op(i % int(numOps))}, 0, 0, time.Duration(i), nil)
	}
	f.mu.Lock()
	evs := f.recent()
	f.mu.Unlock()
	if len(evs) != flightRing {
		t.Fatalf("got %d events, want %d", len(evs), flightRing)
	}
	for i, ev := range evs {
		if ev.Duration != int64(i+extra) {
			t.Fatalf("event %d has duration %d, want %d", i, ev.Duration, i+extra)
		}
	}
}

func TestWriteToPrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.SetScheme("W-BOX")
	r.Inc(CtrWBoxSplits)
	r.Add(CtrLIDFAllocs, 7)
	c := r.Begin("W-BOX", OpLookup, 0, 0)
	r.End(c, 2, 0, nil)

	out := r.String()
	for _, want := range []string{
		`boxes_store_info{scheme="W-BOX"} 1`,
		`boxes_ops_total{op="lookup"} 1`,
		`boxes_op_errors_total{op="lookup"} 0`,
		`# TYPE boxes_op_duration_seconds histogram`,
		`boxes_op_reads_bucket{op="lookup",le="2"} 1`,
		`boxes_op_reads_bucket{op="lookup",le="+Inf"} 1`,
		`boxes_op_reads_sum{op="lookup"} 2`,
		`boxes_op_reads_count{op="lookup"} 1`,
		"wbox_splits_total 1",
		"lidf_allocs_total 7",
		"bbox_rebuilds_total 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// Histogram buckets must be cumulative and end with the count.
	if !strings.Contains(out, `boxes_op_reads_bucket{op="lookup",le="0"} 0`) {
		t.Error("le=0 bucket should be 0 (observation was 2 reads)")
	}
}

func TestFormatCounters(t *testing.T) {
	r := NewRegistry()
	r.Inc(CtrBBoxMerges)
	r.Add(CtrBBoxSplits, 2)
	got := r.Snapshot().FormatCounters()
	if got != "bbox_merges_total=1 bbox_splits_total=2" {
		t.Fatalf("FormatCounters = %q", got)
	}
}

func TestSnapshotTotals(t *testing.T) {
	r := NewRegistry()
	for i := 0; i < 5; i++ {
		c := r.Begin("naive", OpDelete, 0, 0)
		r.End(c, uint64(i), 0, nil)
	}
	s := r.Snapshot().Ops["delete"]
	if s.Count != 5 || s.Reads.Total() != 5 {
		t.Fatalf("snapshot count=%d reads.Total=%d, want 5/5", s.Count, s.Reads.Total())
	}
	if s.Reads.Sum != 0+1+2+3+4 {
		t.Fatalf("reads sum = %d, want 10", s.Reads.Sum)
	}
}
