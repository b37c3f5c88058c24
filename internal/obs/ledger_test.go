package obs

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// TestLedgerAttribution drives costs through the writer slot and checks
// every unit lands in the (scheme, op) cell that caused it.
func TestLedgerAttribution(t *testing.T) {
	r := NewRegistry()
	row := r.SchemeIndex("W-BOX")
	if row != 0 {
		t.Fatalf("first interned scheme got row %d, want 0", row)
	}

	r.SetWriterCell(row, OpInsert)
	r.Inc(CtrWBoxSplits)     // counter-fed cost
	r.CostRelabeled(10)      // direct cost, no structural counter
	r.CostIO(false, true, 5) // exclusive-path write
	r.ClearWriterOp()
	r.CostIO(true, false, 3) // a read op's read: row 0, lookup

	cells := map[string]uint64{}
	for _, c := range r.LedgerCells() {
		cells[c.Scheme+"/"+c.Op+"/"+c.Kind] = c.Value
	}
	want := map[string]uint64{
		"W-BOX/insert/splits":            1,
		"W-BOX/insert/relabeled_records": 10,
		"W-BOX/insert/block_writes":      1,
		"W-BOX/lookup/block_reads":       1,
	}
	for k, v := range want {
		if cells[k] != v {
			t.Errorf("cell %s = %d, want %d (all: %v)", k, cells[k], v, cells)
		}
	}
	if len(cells) != len(want) {
		t.Errorf("unexpected extra cells: %v", cells)
	}
	if err := r.CheckLedger(true); err != nil {
		t.Errorf("strict conservation after attributed costs: %v", err)
	}
	if reads, writes := r.LedgerIO(); reads != 1 || writes != 1 {
		t.Errorf("LedgerIO = (%d, %d), want (1, 1)", reads, writes)
	}
}

// TestLedgerClearedSlotDefaultsToLookup checks unattributed work (no op in
// flight) lands in row 0's lookup cell rather than being dropped — the
// conservation invariant requires every unit to land somewhere.
func TestLedgerClearedSlotDefaultsToLookup(t *testing.T) {
	r := NewRegistry()
	r.SchemeIndex("W-BOX")
	r.CostRelabeled(3)
	cells := r.LedgerCells()
	if len(cells) != 1 || cells[0].Op != "lookup" || cells[0].Value != 3 {
		t.Fatalf("cells = %+v, want one lookup cell of 3", cells)
	}
	if err := r.CheckLedger(true); err != nil {
		t.Errorf("conservation: %v", err)
	}
}

// TestCheckLedgerDetectsMissingCell breaks conservation from below (a total
// bumped without its cell) and checks even the relaxed form reports it.
func TestCheckLedgerDetectsMissingCell(t *testing.T) {
	r := NewRegistry()
	r.ledgerTotals[CostSplits].Add(1)
	err := r.CheckLedger(false)
	if err == nil || !strings.Contains(err.Error(), "cell sum") {
		t.Fatalf("err = %v, want cell-sum violation", err)
	}
}

// TestCheckLedgerStrictVsRelaxed bumps a cost-mapped structural counter
// without the ledger write that normally accompanies it: the monotone live
// form (counters run ahead of cells) must accept it, strict must not.
func TestCheckLedgerStrictVsRelaxed(t *testing.T) {
	r := NewRegistry()
	r.counters[CtrWBoxSplits].Add(1)
	if err := r.CheckLedger(false); err != nil {
		t.Errorf("relaxed check rejected counter-ahead state: %v", err)
	}
	if err := r.CheckLedger(true); err == nil {
		t.Error("strict check accepted counter/cell mismatch")
	}
}

// TestLedgerWindowRotation runs past the window size and checks the
// windowed gauges appear and reflect only the last completed window.
func TestLedgerWindowRotation(t *testing.T) {
	r := NewRegistry()
	scheme := "W-BOX"
	row := r.SchemeIndex(scheme)
	// First window: expensive inserts (10 relabeled records each).
	for i := 0; i < ledgerWindow; i++ {
		c := r.Begin(scheme, OpInsert, 0, 0)
		r.SetWriterCell(row, OpInsert)
		r.CostRelabeled(10)
		r.ClearWriterOp()
		r.End(c, 0, 0, nil)
	}
	// Second window: free inserts.
	for i := 0; i < ledgerWindow; i++ {
		c := r.Begin(scheme, OpInsert, 0, 0)
		r.End(c, 0, 0, nil)
	}
	gs := map[string]float64{}
	for _, g := range r.AmortizedGauges(scheme) {
		gs[g.Name] = g.Value
	}
	if got := gs["boxes_amortized_relabels_per_insert"]; got != 5 {
		t.Errorf("lifetime relabels/insert = %v, want 5 (half expensive, half free)", got)
	}
	if got, ok := gs["boxes_amortized_window_relabels_per_insert"]; !ok || got != 0 {
		t.Errorf("window relabels/insert = %v (present=%v), want 0 for the free second window", got, ok)
	}
	if err := r.CheckLedger(true); err != nil {
		t.Errorf("conservation after windows: %v", err)
	}
}

// TestSchemeInterningOverflow interns more schemes than the ledger has
// rows: overflow shares the last row and conservation still holds.
func TestSchemeInterningOverflow(t *testing.T) {
	r := NewRegistry()
	for i := 0; i < 12; i++ {
		idx := r.SchemeIndex(fmt.Sprintf("scheme-%d", i))
		want := i
		if want >= maxLedgerSchemes {
			want = maxLedgerSchemes - 1
		}
		if idx != want {
			t.Errorf("scheme-%d interned to row %d, want %d", i, idx, want)
		}
	}
	if n := len(r.LedgerSchemes()); n != maxLedgerSchemes {
		t.Errorf("%d ledger rows named, want %d", n, maxLedgerSchemes)
	}
	// Re-interning is stable.
	if idx := r.SchemeIndex("scheme-3"); idx != 3 {
		t.Errorf("re-intern scheme-3 = %d, want 3", idx)
	}
	r.SetWriterCell(r.SchemeIndex("scheme-11"), OpInsert)
	r.CostRelabeled(2)
	r.ClearWriterOp()
	if err := r.CheckLedger(true); err != nil {
		t.Errorf("conservation with overflow rows: %v", err)
	}
}

// TestExpositionIncludesLedger checks /metrics carries the cost cells and
// the amortized gauges once ops have run.
func TestExpositionIncludesLedger(t *testing.T) {
	r := NewRegistry()
	row := r.SchemeIndex("W-BOX")
	c := r.Begin("W-BOX", OpInsert, 0, 0)
	r.SetWriterCell(row, OpInsert)
	r.Inc(CtrWBoxSplits)
	r.ClearWriterOp()
	r.End(c, 0, 0, nil)

	text := r.String()
	for _, want := range []string{
		`boxes_cost_total{scheme="W-BOX",op="insert",kind="splits"} 1`,
		`boxes_cost_ops_total{scheme="W-BOX",op="insert"} 1`,
		`boxes_amortized_splits_per_insert{scheme="W-BOX"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestFormatLedger exercises the human rendering used by boxinspect
// -ledger and the boxtop panel.
func TestFormatLedger(t *testing.T) {
	r := NewRegistry()
	row := r.SchemeIndex("B-BOX")
	c := r.Begin("B-BOX", OpDelete, 0, 0)
	r.SetWriterCell(row, OpDelete)
	r.Inc(CtrBBoxMerges)
	r.ClearWriterOp()
	r.End(c, 0, 0, nil)

	out := FormatLedger(r)
	for _, want := range []string{"scheme B-BOX", "merges", "conservation: ok"} {
		if !strings.Contains(out, want) {
			t.Errorf("FormatLedger output missing %q:\n%s", want, out)
		}
	}
}

// TestLedgerErroredOpsStillCount: failed operations still paid their costs,
// so they must count toward the op totals the ratios divide by.
func TestLedgerErroredOpsStillCount(t *testing.T) {
	r := NewRegistry()
	c := r.Begin("W-BOX", OpInsert, 0, 0)
	r.End(c, 0, 0, errors.New("injected"))
	ops := r.LedgerOpCounts()
	if len(ops) != 1 || ops[0].Count != 1 {
		t.Fatalf("op counts = %+v, want one insert", ops)
	}
}
