package core

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"boxes/internal/obs"
	"boxes/internal/xmlgen"
)

// TestLedgerLiveScrape is the acceptance check for the cost ledger's
// concurrency story: writer goroutines mutate a Store while scraper
// goroutines hit /metrics and /debug/heat over real HTTP. At every instant
// the relaxed conservation invariant (counterSum >= cellSum >= total) must
// hold in what a scraper observes, and at quiescence the strict form —
// including the ledger-vs-pager I/O cross-check — must balance exactly.
// Run under -race this also proves the ledger and heat paths are data-race
// free against concurrent scrapes.
func TestLedgerLiveScrape(t *testing.T) {
	st, err := Open(Options{Scheme: SchemeWBox, Ordinal: true, BlockSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := st.Load(xmlgen.TwoLevel(300))
	if err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(obs.Handler(st.MetricsRegistry()))
	defer srv.Close()

	const writers = 4
	const opsPerWriter = 300
	done := make(chan struct{})
	errCh := make(chan error, writers+2)
	var writerWg, scraperWg sync.WaitGroup

	for g := 0; g < writers; g++ {
		writerWg.Add(1)
		go func(g int) {
			defer writerWg.Done()
			for i := 0; i < opsPerWriter; i++ {
				at := doc.Elems[(g*61+i*7)%len(doc.Elems)]
				if i%3 == 0 {
					if _, err := st.Lookup(at.Start); err != nil {
						errCh <- fmt.Errorf("writer %d: lookup: %w", g, err)
						return
					}
					continue
				}
				if _, err := st.InsertElementBefore(at.End); err != nil {
					errCh <- fmt.Errorf("writer %d: insert: %w", g, err)
					return
				}
			}
		}(g)
	}

	// Two scrapers: one Prometheus, one /debug/heat JSON. Each asserts the
	// live payload is well-formed and conservation-clean on every poll.
	scraperWg.Add(2)
	go func() {
		defer scraperWg.Done()
		for polls := 0; ; polls++ {
			select {
			case <-done:
				return
			default:
			}
			resp, err := http.Get(srv.URL + "/metrics")
			if err != nil {
				errCh <- err
				return
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				errCh <- err
				return
			}
			text := string(body)
			for _, want := range []string{"boxes_cost_total{", "boxes_amortized_ios_per_op{"} {
				if !strings.Contains(text, want) {
					errCh <- fmt.Errorf("/metrics poll %d missing %s", polls, want)
					return
				}
			}
		}
	}()
	go func() {
		defer scraperWg.Done()
		polls := 0
		for {
			select {
			case <-done:
				if polls == 0 {
					errCh <- fmt.Errorf("heat scraper never completed a poll")
				}
				return
			default:
			}
			resp, err := http.Get(srv.URL + "/debug/heat")
			if err != nil {
				errCh <- err
				return
			}
			var hd obs.HeatDebugPayload
			err = json.NewDecoder(resp.Body).Decode(&hd)
			resp.Body.Close()
			if err != nil {
				errCh <- fmt.Errorf("decoding /debug/heat: %w", err)
				return
			}
			if !hd.ConservationOK {
				errCh <- fmt.Errorf("live conservation violated: %s", hd.ConservationEr)
				return
			}
			polls++
		}
	}()

	writerWg.Wait()
	close(done)
	scraperWg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	// Quiescent: exact balance, including the pager I/O cross-check.
	if err := st.CheckLedger(true); err != nil {
		t.Fatalf("strict conservation at quiescence: %v", err)
	}
	// The workload's inserts must show up in the label heat map and its
	// block traffic in the block heat map.
	hd := st.MetricsRegistry().HeatDebug()
	findSeries := func(snap obs.HeatSpaceSnap, name string) obs.HeatSeriesSnap {
		for _, s := range snap.Series {
			if s.Name == name {
				return s
			}
		}
		t.Fatalf("space %s has no series %s", snap.Space, name)
		return obs.HeatSeriesSnap{}
	}
	if s := findSeries(hd.Label, "inserts"); s.Samples == 0 {
		t.Error("label heat map recorded no insertions")
	}
	if s := findSeries(hd.Block, "reads"); s.Samples == 0 {
		t.Error("block heat map recorded no reads")
	}
	if err := st.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestLedgerReadOpsChargeTheirStore: two stores of different schemes share
// one registry, and a lookup's block reads land in the lookup cell of the
// store that ran it, not in the registry's first row.
func TestLedgerReadOpsChargeTheirStore(t *testing.T) {
	reg := obs.NewRegistry()
	wst, err := Open(Options{Scheme: SchemeWBox, BlockSize: 512, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	bst, err := Open(Options{Scheme: SchemeBBox, BlockSize: 512, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wst.Load(xmlgen.TwoLevel(50)); err != nil {
		t.Fatal(err)
	}
	doc, err := bst.Load(xmlgen.TwoLevel(50))
	if err != nil {
		t.Fatal(err)
	}
	lookupReads := func(scheme string) uint64 {
		for _, c := range reg.LedgerCells() {
			if c.Scheme == scheme && c.Op == "lookup" && c.Kind == "block_reads" {
				return c.Value
			}
		}
		return 0
	}
	w0, b0 := lookupReads("W-BOX"), lookupReads("B-BOX")
	r0 := bst.Stats().Reads
	if _, err := bst.Lookup(doc.Elems[7].Start); err != nil {
		t.Fatal(err)
	}
	reads := bst.Stats().Reads - r0
	if reads == 0 {
		t.Fatal("the B-BOX lookup read no block")
	}
	if got := lookupReads("B-BOX") - b0; got != reads {
		t.Errorf("{B-BOX, lookup} was charged %d block reads for a lookup that read %d", got, reads)
	}
	if got := lookupReads("W-BOX") - w0; got != 0 {
		t.Errorf("{W-BOX, lookup} was charged %d block reads of the B-BOX lookup", got)
	}
	if err := reg.CheckLedger(true); err != nil {
		t.Error(err)
	}
}
