package obs

import (
	"encoding/json"
	"errors"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestPhaseHistogramRows(t *testing.T) {
	r := NewRegistry()
	r.ObservePhase(OpInsert, PhaseBlockWrite, 2*time.Millisecond)
	r.ObservePhaseWAL(PhaseFsync, 5*time.Millisecond)
	r.SetWriterCell(0, OpDelete)
	r.ObservePhaseAuto(false, PhaseBlockRead, time.Millisecond)
	r.ObservePhaseAuto(true, PhaseBlockRead, time.Millisecond)
	r.ClearWriterOp()
	// With no writer op installed the auto row falls back to lookup.
	r.ObservePhaseAuto(false, PhaseRetryBackoff, time.Millisecond)

	snap := r.Snapshot()
	for _, want := range []struct{ row, phase string }{
		{"insert", "block_write"},
		{"wal", "fsync"},
		{"delete", "block_read"},
		{"lookup", "block_read"},
		{"lookup", "retry_backoff"},
	} {
		h, ok := snap.Phases[want.row][want.phase]
		if !ok || h.Total() != 1 {
			t.Errorf("phase %s.%s: want 1 observation, got %+v", want.row, want.phase, h)
		}
	}
	if _, ok := snap.Phases["insert"]["block_read"]; ok {
		t.Error("empty phase series leaked into the snapshot")
	}
}

func TestPhaseExposition(t *testing.T) {
	r := NewRegistry()
	r.ObservePhase(OpInsert, PhaseFsyncWait, 3*time.Millisecond)
	r.ObservePhaseWAL(PhaseQueueWait, time.Millisecond)
	out := r.String()
	if n := strings.Count(out, "# TYPE boxes_phase_duration_seconds histogram"); n != 1 {
		t.Fatalf("want exactly one # TYPE for the phase family, got %d", n)
	}
	for _, want := range []string{
		`boxes_phase_duration_seconds_bucket{op="insert",phase="fsync_wait",le="+Inf"} 1`,
		`boxes_phase_duration_seconds_count{op="wal",phase="queue_wait"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if strings.Contains(out, `phase="block_read"`) {
		t.Error("empty phase series emitted")
	}
}

func TestHistSnapshotSubAndQuantile(t *testing.T) {
	r := NewRegistry()
	for i := 0; i < 90; i++ {
		r.ObservePhase(OpInsert, PhaseStructure, 2*time.Microsecond)
	}
	before := r.Snapshot()
	for i := 0; i < 9; i++ {
		r.ObservePhase(OpInsert, PhaseStructure, 2*time.Microsecond)
	}
	r.ObservePhase(OpInsert, PhaseStructure, 500*time.Microsecond)
	after := r.Snapshot()

	d := after.Phases["insert"]["structure"].Sub(before.Phases["insert"]["structure"])
	if got := d.Total(); got != 10 {
		t.Fatalf("delta total: want 10, got %d", got)
	}
	p50, p99 := d.Quantile(0.50), d.Quantile(0.99)
	if p50 >= p99 {
		t.Fatalf("p50 %d should be below p99 %d", p50, p99)
	}
	if p50 < uint64(2*time.Microsecond) || p50 > uint64(4*time.Microsecond) {
		t.Errorf("p50 bucket bound out of range: %d", p50)
	}
	if p99 < uint64(500*time.Microsecond) {
		t.Errorf("p99 should cover the 500µs outlier, got %d", p99)
	}
	var empty HistSnapshot
	if empty.Quantile(0.99) != 0 {
		t.Error("empty histogram quantile should be 0")
	}
}

func TestTracerDisabledIsNullAndAllocFree(t *testing.T) {
	var nilT *Tracer
	sp := nilT.StartOp("s", OpInsert, false)
	sp.End(nil) // must not panic

	r := NewRegistry()
	tr := r.Tracer()
	if tr.Enabled() {
		t.Fatal("fresh tracer should be disabled")
	}
	if n := testing.AllocsPerRun(200, func() {
		sp := tr.StartOp("scheme", OpInsert, false)
		sp2 := tr.StartAuto(false, "child")
		sp2.End(nil)
		sp.End(nil)
		tr.RecordAuto(false, "x", time.Time{}, 0)
	}); n != 0 {
		t.Fatalf("disabled tracer path allocates: %v allocs/op", n)
	}
	if got := tr.Spans(); len(got) != 0 {
		t.Fatalf("disabled tracer recorded %d spans", len(got))
	}
}

func TestTracerSpanHierarchyAndLanes(t *testing.T) {
	r := NewRegistry()
	tr := r.Tracer()
	tr.Start(TraceOptions{Capacity: 128})

	op := tr.StartOp("B-BOX", OpInsert, false)
	if tr.WriterSpanID() != op.ID() {
		t.Fatalf("writer span not installed")
	}
	child := tr.StartAuto(false, "block_write")
	child.End(nil)
	tr.RecordSpan(LaneQueue, "queue_wait", op.ID(), time.Now(), time.Millisecond, 0, nil)
	g := tr.StartLane(LaneCommitter, "commit_group", 0)
	g.EndCount(3, nil)
	op.End(nil)
	if tr.WriterSpanID() != 0 {
		t.Fatal("writer span not cleared at op end")
	}

	reader := tr.StartOp("B-BOX", OpLookup, true)
	rchild := tr.StartAuto(true, "block_read")
	rchild.End(errors.New("boom"))
	reader.End(nil)

	spans := tr.Spans()
	byName := map[string]SpanRecord{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	if byName["block_write"].Parent != op.ID() {
		t.Errorf("child not parented to writer op: %+v", byName["block_write"])
	}
	if byName["queue_wait"].Parent != op.ID() {
		t.Errorf("queue wait not parented to enqueuing op")
	}
	if byName["commit_group"].N != 3 {
		t.Errorf("commit_group payload count lost: %+v", byName["commit_group"])
	}
	if byName["block_read"].Parent != reader.ID() {
		t.Errorf("reader child not parented to reader op")
	}
	if byName["block_read"].Err == "" {
		t.Error("child error not recorded")
	}
	lanes := tr.Lanes()
	laneSet := map[string]bool{}
	for _, l := range lanes {
		laneSet[l] = true
	}
	for _, want := range []string{LaneWriter, LaneQueue, LaneCommitter} {
		if !laneSet[want] {
			t.Errorf("lane %q missing from %v", want, lanes)
		}
	}
	if byName["insert"].Lane != 0 {
		t.Error("writer op should sit on lane 0")
	}
	if byName["lookup"].Lane == byName["insert"].Lane {
		t.Error("reader op should get its own lane")
	}
}

func TestSlowOpCapture(t *testing.T) {
	r := NewRegistry()
	tr := r.Tracer()
	tr.Start(TraceOptions{SlowOp: time.Millisecond, SlowRing: 4})

	fast := tr.StartOp("W-BOX", OpLookup, false)
	fast.End(nil)
	slow := tr.StartOp("W-BOX", OpInsert, false)
	child := tr.StartAuto(false, "fsync_wait")
	time.Sleep(2 * time.Millisecond)
	child.End(nil)
	slow.End(nil)

	got := tr.SlowOps()
	if len(got) != 1 {
		t.Fatalf("want 1 slow op, got %d", len(got))
	}
	if got[0].Root.Name != "insert" {
		t.Fatalf("wrong root captured: %+v", got[0].Root)
	}
	found := false
	for _, s := range got[0].Tree {
		if s.Name == "fsync_wait" {
			found = true
		}
	}
	if !found {
		t.Errorf("slow-op tree missing child span: %+v", got[0].Tree)
	}
}

func TestWriteChromeTrace(t *testing.T) {
	r := NewRegistry()
	tr := r.Tracer()
	tr.Start(TraceOptions{})
	op := tr.StartOp("B-BOX", OpInsert, false)
	child := tr.StartAuto(false, "frame_write")
	child.End(nil)
	op.EndCount(0, errors.New("bad"))
	g := tr.StartLane(LaneCommitter, "commit_group", 0)
	g.EndCount(2, nil)

	var b strings.Builder
	if err := WriteChromeTrace(&b, tr); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal([]byte(b.String()), &events); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, b.String())
	}
	var meta, dur int
	names := map[string]bool{}
	for _, e := range events {
		switch e["ph"] {
		case "M":
			meta++
		case "X":
			dur++
			names[e["name"].(string)] = true
			if _, ok := e["dur"]; !ok {
				t.Errorf("X event missing dur: %v", e)
			}
		}
	}
	if meta < 2 { // writer lane + committer lane
		t.Errorf("want thread_name metadata per lane, got %d", meta)
	}
	if dur != 3 {
		t.Errorf("want 3 duration events, got %d", dur)
	}
	for _, want := range []string{"insert", "frame_write", "commit_group"} {
		if !names[want] {
			t.Errorf("trace missing span %q", want)
		}
	}
}

func TestSpansDebugEndpoint(t *testing.T) {
	r := NewRegistry()
	c := r.Begin("B-BOX", OpInsert, 0, 0)
	r.End(c, 3, 2, nil)
	r.ObservePhase(OpInsert, PhaseBlockWrite, time.Millisecond)
	r.ObservePhase(OpInsert, PhaseStructure, 2*time.Millisecond)

	srv := httptest.NewServer(Handler(r))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/debug/spans")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var d SpansDebug
	if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
		t.Fatal(err)
	}
	if d.TracingEnabled {
		t.Error("tracing should be off")
	}
	if len(d.Ops) != 1 || d.Ops[0].Op != "insert" || d.Ops[0].Count != 1 {
		t.Errorf("ops summary wrong: %+v", d.Ops)
	}
	if len(d.Phases) != 2 {
		t.Fatalf("want 2 phase rows, got %+v", d.Phases)
	}
	// Sorted by total descending: structure (2ms) first.
	if d.Phases[0].Phase != "structure" || d.Phases[1].Phase != "block_write" {
		t.Errorf("phase rows not sorted by total: %+v", d.Phases)
	}
}
