package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"boxes/internal/obs"
	"boxes/internal/order"
	"boxes/internal/pager"
	"boxes/internal/xmlgen"
)

// TestPhaseCoverageDurable is the attribution-accounting test: on a durable
// file-backed store, the per-op phase histograms (structure residual plus
// the instrumented pager/WAL sections) must account for at least 90% of the
// measured op wall time, for inserts, lookups and batches alike — the batch
// row is every served write, and runs in the same transaction bracket as a
// single insert. The phases recorded outside the op window (lock waits)
// are excluded from the sum by design.
func TestPhaseCoverageDurable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cover.boxes")
	fb, err := pager.CreateFileOpts(path, pager.FileOptions{BlockSize: 512, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	st, err := Open(Options{Scheme: SchemeBBox, BlockSize: 512, Backend: fb, Durable: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	doc, err := st.Load(xmlgen.TwoLevel(200))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		if _, err := st.InsertElementBefore(doc.Elems[i%200].End); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 300; i++ {
		if _, err := st.Lookup(doc.Elems[i%200].Start); err != nil {
			t.Fatal(err)
		}
	}
	const batches = 100
	for i := 0; i < batches; i++ {
		at := doc.Elems[i%200].End
		if _, err := st.ApplyBatch([]Op{{Kind: OpInsertBefore, LID: at}, {Kind: OpLookup, LID: at}, {Kind: OpInsertBefore, LID: at}}); err != nil {
			t.Fatal(err)
		}
	}
	// A batch that fails commits nothing and persists no metadata.
	if _, err := st.ApplyBatch([]Op{{Kind: OpInsertBefore, LID: doc.Elems[0].End}, {Kind: OpDelete, LID: 1 << 40}}); !errors.Is(err, order.ErrUnknownLID) {
		t.Fatalf("batch with an unknown LID: %v", err)
	}

	snap := st.Metrics()
	for _, op := range []string{"insert", "lookup", "batch"} {
		latNs := snap.Ops[op].Latency.Sum
		if latNs == 0 {
			t.Fatalf("%s: no latency recorded", op)
		}
		var phaseNs uint64
		for ph, h := range snap.Phases[op] {
			switch ph {
			case "lock_wait_read", "lock_wait_write":
				continue // outside the op window by design
			}
			phaseNs += h.Sum
		}
		ratio := float64(phaseNs) / float64(latNs)
		t.Logf("%s: phases %.3fms of %.3fms latency (%.1f%%)", op,
			float64(phaseNs)/1e6, float64(latNs)/1e6, 100*ratio)
		if ratio < 0.90 {
			t.Errorf("%s: phase histograms cover %.1f%% of op latency, want >= 90%%", op, 100*ratio)
		}
		if ratio > 1.10 {
			t.Errorf("%s: phase histograms over-count: %.1f%% of op latency", op, 100*ratio)
		}
	}
	// The durable insert path must show its commit cost explicitly.
	if snap.Phases["insert"]["wal_commit"].Total() == 0 {
		t.Error("insert row has no wal_commit phase")
	}
	if snap.Phases["insert"]["meta_persist"].Total() == 0 {
		t.Error("insert row has no meta_persist phase")
	}
	// One metadata rewrite and one commit per committed batch, attributed
	// to the batch; the failed one contributes neither.
	for _, ph := range []string{"meta_persist", "wal_commit"} {
		if got := snap.Phases["batch"][ph].Total(); got != batches {
			t.Errorf("batch row has %d %s observations, want %d (one per committed batch)", got, ph, batches)
		}
	}
}

// validateExposition asserts body is parseable Prometheus text exposition
// with exactly one # TYPE announcement per family.
func validateExposition(t *testing.T, body string) {
	t.Helper()
	types := map[string]bool{}
	sampleRe := regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^{}]*\})? (\S+)$`)
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(line)
			if len(fields) != 4 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			if types[fields[2]] {
				t.Fatalf("duplicate # TYPE for family %s", fields[2])
			}
			types[fields[2]] = true
			continue
		}
		m := sampleRe.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("unparseable sample line %q", line)
		}
		if _, err := strconv.ParseFloat(m[3], 64); err != nil {
			t.Fatalf("bad sample value in %q: %v", line, err)
		}
		name := m[1]
		family := name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if strings.HasSuffix(name, suf) && types[strings.TrimSuffix(name, suf)] {
				family = strings.TrimSuffix(name, suf)
				break
			}
		}
		if !types[family] {
			t.Fatalf("sample %s has no # TYPE announcement", name)
		}
	}
}

// TestMetricsScrapeRace races /metrics and /debug/spans scrapes against
// active writers and readers on a durable Store. Every scrape must stay
// parseable with a single # TYPE per family. Run under -race this is the satellite
// concurrency gate for the span/phase instrumentation.
func TestMetricsScrapeRace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "scrape.boxes")
	fb, err := pager.CreateFileOpts(path, pager.FileOptions{BlockSize: 512, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	st, err := Open(Options{
		Scheme: SchemeBBox, BlockSize: 512, Backend: fb,
		Durable: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := st.Load(xmlgen.TwoLevel(150))
	if err != nil {
		t.Fatal(err)
	}
	st.RegisterHealthGauges()
	st.MetricsRegistry().Tracer().Start(obs.TraceOptions{SlowOp: time.Millisecond})

	srv := httptest.NewServer(obs.Handler(st.MetricsRegistry()))
	defer srv.Close()
	scrape := func(path string) (string, error) {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			return "", err
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		return string(b), err
	}

	var finite, readersWG sync.WaitGroup
	errCh := make(chan error, 16)
	stop := make(chan struct{})
	for g := 0; g < 2; g++ { // writers
		finite.Add(1)
		go func(g int) {
			defer finite.Done()
			for i := 0; i < 40; i++ {
				e, err := st.InsertElementBefore(doc.Elems[(g*37+i)%150].Start)
				if err != nil {
					errCh <- err
					return
				}
				if err := st.DeleteElement(e); err != nil {
					errCh <- err
					return
				}
			}
		}(g)
	}
	for g := 0; g < 2; g++ { // readers
		readersWG.Add(1)
		go func(g int) {
			defer readersWG.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := st.Lookup(doc.Elems[(g*53+i)%150].Start); err != nil {
					errCh <- err
					return
				}
			}
		}(g)
	}
	bodies := make(chan string, 64)
	for g := 0; g < 2; g++ { // scrapers
		finite.Add(1)
		go func() {
			defer finite.Done()
			for i := 0; i < 20; i++ {
				body, err := scrape("/metrics")
				if err != nil {
					errCh <- err
					return
				}
				bodies <- body
				var d obs.SpansDebug
				if sb, err := scrape("/debug/spans"); err != nil {
					errCh <- err
					return
				} else if err := json.Unmarshal([]byte(sb), &d); err != nil {
					errCh <- fmt.Errorf("/debug/spans: %w", err)
					return
				}
			}
		}()
	}
	finite.Wait() // writers and scrapers
	close(stop)   // then release the readers
	readersWG.Wait()
	close(errCh)
	close(bodies)
	for err := range errCh {
		t.Fatal(err)
	}
	n := 0
	for body := range bodies {
		validateExposition(t, body)
		n++
	}
	if n == 0 {
		t.Fatal("no scrapes validated")
	}

	if err := st.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestBatchTraceCoalescing drives concurrent ApplyBatch transactions and
// asserts the trace shows each batch coalescing its ops under one commit:
// every batch op span carries one child span per positional op and exactly
// one fsync span, all on the writer lane, the only lane a writer uses.
func TestBatchTraceCoalescing(t *testing.T) {
	path := filepath.Join(t.TempDir(), "coalesce.boxes")
	fb, err := pager.CreateFileOpts(path, pager.FileOptions{BlockSize: 512, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	st, err := Open(Options{
		Scheme: SchemeBBox, BlockSize: 512, Backend: fb,
		Durable: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	root, err := st.InsertFirstElement()
	if err != nil {
		t.Fatal(err)
	}
	tr := st.MetricsRegistry().Tracer()
	tr.Start(obs.TraceOptions{})

	ops := make([]Op, 8)
	for i := range ops {
		ops[i] = Op{Kind: OpInsertBefore, LID: root.End}
	}
	const batches = 4
	errs := make(chan error, batches)
	for i := 0; i < batches; i++ {
		go func() {
			_, err := st.ApplyBatch(ops)
			errs <- err
		}()
	}
	for i := 0; i < batches; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	spans := tr.Spans()
	batchSpans := map[uint64]bool{}
	for _, sp := range spans {
		if sp.Name == "batch" {
			batchSpans[sp.ID] = true
		}
	}
	childInserts := 0
	fsyncs := map[uint64]int{}
	for _, sp := range spans {
		if !batchSpans[sp.Parent] {
			continue
		}
		if sp.Lane != 0 {
			t.Errorf("batch child %q on lane %d, want the writer lane", sp.Name, sp.Lane)
		}
		switch sp.Name {
		case "insert-before":
			childInserts++
		case "fsync":
			fsyncs[sp.Parent]++
		}
	}
	if len(batchSpans) != batches {
		t.Errorf("want %d batch op spans, got %d", batches, len(batchSpans))
	}
	if childInserts != batches*len(ops) {
		t.Errorf("want %d per-positional-op child spans, got %d", batches*len(ops), childInserts)
	}
	for id := range batchSpans {
		if fsyncs[id] != 1 {
			t.Errorf("batch span %d has %d fsync children, want its one commit's", id, fsyncs[id])
		}
	}

	var b strings.Builder
	if err := obs.WriteChromeTrace(&b, tr); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal([]byte(b.String()), &events); err != nil {
		t.Fatalf("chrome trace invalid: %v", err)
	}
	lanes := map[string]bool{}
	for _, e := range events {
		if e["ph"] == "M" {
			if args, ok := e["args"].(map[string]any); ok {
				if name, ok := args["name"].(string); ok {
					lanes[name] = true
				}
			}
		}
	}
	if !lanes["writer"] || len(lanes) != 1 {
		t.Errorf("trace lanes %v, want the writer lane alone", lanes)
	}
}

// TestSlowOpThresholdOption verifies Options.SlowOpThreshold arms the
// tracer and that slow operations reach the flight-recorder crash dump.
func TestSlowOpThresholdOption(t *testing.T) {
	st, err := Open(Options{Scheme: SchemeWBox, BlockSize: 512, SlowOpThreshold: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	if !st.MetricsRegistry().Tracer().Enabled() {
		t.Fatal("SlowOpThreshold should enable span recording")
	}
	if _, err := st.InsertFirstElement(); err != nil {
		t.Fatal(err)
	}
	slow := st.MetricsRegistry().Tracer().SlowOps()
	if len(slow) == 0 {
		t.Fatal("no slow ops captured at a 1ns threshold")
	}
}

var _ = http.StatusOK
