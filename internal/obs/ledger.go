// The amortized-cost ledger.
//
// The paper's headline claims are amortized — W-BOX inserts cost
// O(log_B N) amortized with 1-I/O lookups, B-BOX updates O(1) amortized —
// and the lower-bound literature (Bulánek–Koucký–Saks) proves naive gap
// schemes can be forced into Ω(log²) relabeling. The structural counters
// (Inc/Add) record that the events happened; the ledger additionally
// records WHO PAID: every relabel, split, merge, rebuild, reclaim, and
// block read/write is attributed to the (scheme, operation) cell that
// caused it, using the same atomic writer slot that phase attribution
// rides on (no context threading; see span.go).
//
// From the cells the registry derives amortized ratios — relabeled records
// per insert, I/Os per op, splits per insert — both over the store's whole
// lifetime and over a sliding window of the last ledgerWindow operations,
// so a scheme whose amortized cost GROWS with N (the naive-k collapse) is
// distinguishable from one that is merely paying a constant.
//
// Conservation invariant: every cost increment bumps, in order, (1) the
// structural counter when one exists, (2) the attributed cell, (3) the
// per-kind global total. A reader that loads totals first, then cells,
// then counters therefore always observes counterSum >= cellSum >= total;
// at quiescence all three are equal. CheckLedger verifies this, difftest
// asserts it after every fuzzed operation, and a -race test scrapes it
// against live writers.
package obs

import (
	"fmt"
	"sort"
)

// CostKind identifies one attributed cost category.
type CostKind uint8

const (
	// CostSplits: node splits (W-BOX and B-BOX).
	CostSplits CostKind = iota
	// CostRelabels: relabel sweeps (one per triggering event).
	CostRelabels
	// CostRelabeledRecs: individual records rewritten by relabeling — the
	// quantity the amortized bounds are actually about. A W-BOX subtree
	// relabel charges the subtree's record count; a naive-k global sweep
	// charges the whole document, which is what makes its ratio grow.
	CostRelabeledRecs
	// CostMerges: B-BOX underflow merges.
	CostMerges
	// CostBorrows: B-BOX underflow borrows.
	CostBorrows
	// CostRebuilds: global rebuilds (both BOX schemes).
	CostRebuilds
	// CostReclaims: W-BOX tombstone reclaims.
	CostReclaims
	// CostLIDFAllocs: LIDF record allocations.
	CostLIDFAllocs
	// CostLIDFFrees: LIDF record frees.
	CostLIDFFrees
	// CostBlockReads: pager block reads (cache misses and write-through
	// reads alike — everything the pager counts as a read I/O).
	CostBlockReads
	// CostBlockWrites: pager block writes.
	CostBlockWrites
	numCostKinds
)

var costKindNames = [numCostKinds]string{
	CostSplits:        "splits",
	CostRelabels:      "relabels",
	CostRelabeledRecs: "relabeled_records",
	CostMerges:        "merges",
	CostBorrows:       "borrows",
	CostRebuilds:      "rebuilds",
	CostReclaims:      "tombstone_reclaims",
	CostLIDFAllocs:    "lidf_allocs",
	CostLIDFFrees:     "lidf_frees",
	CostBlockReads:    "block_reads",
	CostBlockWrites:   "block_writes",
}

func (k CostKind) String() string {
	if int(k) < len(costKindNames) {
		return costKindNames[k]
	}
	return "unknown"
}

// counterCost maps each structural counter to the cost kind it feeds, or
// -1 for counters that are deliberately unattributed: WAL counters are
// incremented by background goroutines that hold no writer slot, and
// cache hit/miss counters already appear in the ledger as block reads (a
// hit is the absence of an I/O). Keeping them out preserves
// the exactness of the conservation invariant.
var counterCost = func() [numCounters]int8 {
	var m [numCounters]int8
	for i := range m {
		m[i] = -1
	}
	m[CtrWBoxSplits] = int8(CostSplits)
	m[CtrWBoxRelabels] = int8(CostRelabels)
	m[CtrWBoxReclaims] = int8(CostReclaims)
	m[CtrWBoxRebuilds] = int8(CostRebuilds)
	m[CtrBBoxSplits] = int8(CostSplits)
	m[CtrBBoxBorrows] = int8(CostBorrows)
	m[CtrBBoxMerges] = int8(CostMerges)
	m[CtrBBoxRebuilds] = int8(CostRebuilds)
	m[CtrNaiveRelabels] = int8(CostRelabels)
	m[CtrLIDFAllocs] = int8(CostLIDFAllocs)
	m[CtrLIDFFrees] = int8(CostLIDFFrees)
	return m
}()

// maxLedgerSchemes bounds the per-scheme attribution rows. Registries in
// this repository serve at most five schemes (the difftest worlds each get
// their own registry); should more than eight ever report into one, the
// overflow schemes share the last row — attribution coarsens but
// conservation still holds.
const maxLedgerSchemes = 8

// ledgerWindow is the operation count per amortization window: windowed
// ratios cover the last completed ledgerWindow-op slice, so growth over
// time is visible even when lifetime averages smooth it away.
const ledgerWindow = 1024

// ledgerWindowSnap is one point-in-time aggregate of the ledger: per
// scheme, the op-summed kind totals and the per-op counts.
type ledgerWindowSnap struct {
	kinds [maxLedgerSchemes][numCostKinds]uint64
	ops   [maxLedgerSchemes][numOps]uint64
}

func diffSnap(cur, prev ledgerWindowSnap) ledgerWindowSnap {
	var d ledgerWindowSnap
	for s := 0; s < maxLedgerSchemes; s++ {
		for k := 0; k < int(numCostKinds); k++ {
			d.kinds[s][k] = satSub(cur.kinds[s][k], prev.kinds[s][k])
		}
		for o := 0; o < int(numOps); o++ {
			d.ops[s][o] = satSub(cur.ops[s][o], prev.ops[s][o])
		}
	}
	return d
}

// snapLedger aggregates the live cells; called at window rotation and by
// scrape-time gauges.
func (r *Registry) snapLedger() ledgerWindowSnap {
	var s ledgerWindowSnap
	for si := 0; si < maxLedgerSchemes; si++ {
		for o := 0; o < int(numOps); o++ {
			s.ops[si][o] = r.ledgerOps[si][o].Load()
			for k := 0; k < int(numCostKinds); k++ {
				s.kinds[si][k] += r.ledgerCells[si][o][k].Load()
			}
		}
	}
	return s
}

// SchemeIndex interns a scheme name into a ledger row and returns its
// index. The first scheme registered (via SetScheme at store open, or the
// first Begin) gets row 0 — the row unattributed work defaults to. The read path is one atomic pointer load plus a map lookup.
func (r *Registry) SchemeIndex(name string) int {
	if r == nil {
		return 0
	}
	if m := r.ledgerIdx.Load(); m != nil {
		if i, ok := (*m)[name]; ok {
			return i
		}
	}
	return r.internScheme(name)
}

func (r *Registry) internScheme(name string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	old := r.ledgerIdx.Load()
	if old != nil {
		if i, ok := (*old)[name]; ok {
			return i
		}
	}
	next := make(map[string]int)
	if old != nil {
		for k, v := range *old {
			next[k] = v
		}
	}
	i := len(r.ledgerNames)
	if i >= maxLedgerSchemes {
		i = maxLedgerSchemes - 1 // overflow schemes share the last row
	} else {
		r.ledgerNames = append(r.ledgerNames, name)
	}
	next[name] = i
	r.ledgerIdx.Store(&next)
	return i
}

// LedgerSchemes returns the interned scheme names; a row index in the
// ledger exposition indexes this slice.
func (r *Registry) LedgerSchemes() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, len(r.ledgerNames))
	copy(out, r.ledgerNames)
	return out
}

// costAdd attributes n units of kind k to the current writer cell and the
// global total, in that order (see the conservation note atop this file).
func (r *Registry) costAdd(k CostKind, n uint64) {
	s, o := r.writerCell()
	r.ledgerCells[s][o][k].Add(n)
	r.ledgerTotals[k].Add(n)
}

// CostRelabeled charges n relabeled records to the current operation. The
// schemes call this from their relabel sweeps with the number of records
// actually rewritten — the quantity the amortized bounds govern.
func (r *Registry) CostRelabeled(n uint64) {
	if r == nil || n == 0 {
		return
	}
	r.costAdd(CostRelabeledRecs, n)
}

// CostIO attributes one block I/O (write=false: read) to the operation
// that did it and samples the block heat map. A read op's I/O is a lookup
// on row, the ledger row of the store that ran it (SchemeIndex); I/O on
// the exclusive path passes row < 0 and resolves through the writer slot.
func (r *Registry) CostIO(row int, write bool, block uint64) {
	if r == nil {
		return
	}
	s, o := row, OpLookup
	if row < 0 {
		s, o = r.writerCell()
	}
	k, series := CostBlockReads, heatSeriesBlockReads
	if write {
		k, series = CostBlockWrites, heatSeriesBlockWrites
	}
	r.ledgerCells[s][o][k].Add(1)
	r.ledgerTotals[k].Add(1)
	r.heatBlock.sample(series, block)
}

// noteLedgerOp counts one completed operation against its scheme row and
// rotates the amortization window every ledgerWindow ops.
func (r *Registry) noteLedgerOp(scheme int, op Op) {
	if scheme < 0 || scheme >= maxLedgerSchemes {
		scheme = maxLedgerSchemes - 1
	}
	r.ledgerOps[scheme][op].Add(1)
	n := r.ledgerOpsTotal.Add(1)
	if n%ledgerWindow == 0 {
		r.rotateLedgerWindow(n)
	}
}

// rotateLedgerWindow closes the current amortization window. TryLock: if
// another rotation (or a scrape of the window) is in flight, this
// rotation is skipped — the next multiple catches up, and a slightly long
// window only makes the ratios smoother.
func (r *Registry) rotateLedgerWindow(n uint64) {
	if !r.winMu.TryLock() {
		return
	}
	defer r.winMu.Unlock()
	cur := r.snapLedger()
	r.winLast = diffSnap(cur, r.winStart)
	r.winLastOps = satSub(n, r.winStartOps)
	r.winStart = cur
	r.winStartOps = n
}

// LedgerIO returns the ledger's global block read/write totals, for
// cross-checking against the pager's own I/O statistics.
func (r *Registry) LedgerIO() (reads, writes uint64) {
	if r == nil {
		return 0, 0
	}
	return r.ledgerTotals[CostBlockReads].Load(), r.ledgerTotals[CostBlockWrites].Load()
}

// CheckLedger verifies the conservation invariant. With strict=false it
// allows the monotone live form (counterSum >= cellSum >= total, which
// holds at any instant given the increment order); with strict=true it
// demands exact equality, valid only at quiescence (no op in flight).
func (r *Registry) CheckLedger(strict bool) error {
	if r == nil {
		return nil
	}
	// Load order mirrors the increment order reversed: totals first, then
	// cells, then counters — so each later read includes at least every
	// increment the earlier read saw.
	var totals [numCostKinds]uint64
	for k := range totals {
		totals[k] = r.ledgerTotals[k].Load()
	}
	var cellSums [numCostKinds]uint64
	for s := 0; s < maxLedgerSchemes; s++ {
		for o := 0; o < int(numOps); o++ {
			for k := 0; k < int(numCostKinds); k++ {
				cellSums[k] += r.ledgerCells[s][o][k].Load()
			}
		}
	}
	var counterSums [numCostKinds]uint64
	hasCounter := [numCostKinds]bool{}
	for c := Counter(0); c < numCounters; c++ {
		if k := counterCost[c]; k >= 0 {
			counterSums[k] += r.counters[c].Load()
			hasCounter[k] = true
		}
	}
	for k := CostKind(0); k < numCostKinds; k++ {
		if cellSums[k] < totals[k] {
			return fmt.Errorf("ledger %s: cell sum %d < global total %d", k, cellSums[k], totals[k])
		}
		if hasCounter[k] && counterSums[k] < cellSums[k] {
			return fmt.Errorf("ledger %s: counter sum %d < cell sum %d", k, counterSums[k], cellSums[k])
		}
		if strict {
			if cellSums[k] != totals[k] {
				return fmt.Errorf("ledger %s: cell sum %d != global total %d (strict)", k, cellSums[k], totals[k])
			}
			if hasCounter[k] && counterSums[k] != cellSums[k] {
				return fmt.Errorf("ledger %s: counter sum %d != cell sum %d (strict)", k, counterSums[k], cellSums[k])
			}
		}
	}
	return nil
}

// ratio is n/d with the 0/0 convention the amortized gauges want.
func ratio(n, d uint64) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}

// amortizedForRow builds the boxes_amortized_* gauges for one interned
// scheme row from a lifetime snapshot and the last completed window.
func amortizedForRow(name string, row int, life, win ledgerWindowSnap, winOps uint64) []GaugeValue {
	inserts := life.ops[row][OpInsert] + life.ops[row][OpSubtreeInsert]
	var totalOps uint64
	for o := 0; o < int(numOps); o++ {
		totalOps += life.ops[row][o]
	}
	ios := life.kinds[row][CostBlockReads] + life.kinds[row][CostBlockWrites]
	out := []GaugeValue{
		G("boxes_amortized_relabels_per_insert",
			"Amortized relabeled records per insert over the store lifetime (the paper's headline bound).",
			ratio(life.kinds[row][CostRelabeledRecs], inserts), "scheme", name),
		G("boxes_amortized_splits_per_insert",
			"Amortized node splits per insert over the store lifetime.",
			ratio(life.kinds[row][CostSplits], inserts), "scheme", name),
		G("boxes_amortized_ios_per_op",
			"Amortized block I/Os (reads+writes) per operation over the store lifetime.",
			ratio(ios, totalOps), "scheme", name),
	}
	if winOps > 0 {
		wInserts := win.ops[row][OpInsert] + win.ops[row][OpSubtreeInsert]
		var wOps uint64
		for o := 0; o < int(numOps); o++ {
			wOps += win.ops[row][o]
		}
		wIOs := win.kinds[row][CostBlockReads] + win.kinds[row][CostBlockWrites]
		out = append(out,
			G("boxes_amortized_window_relabels_per_insert",
				"Relabeled records per insert over the last completed amortization window.",
				ratio(win.kinds[row][CostRelabeledRecs], wInserts), "scheme", name),
			G("boxes_amortized_window_ios_per_op",
				"Block I/Os per operation over the last completed amortization window.",
				ratio(wIOs, wOps), "scheme", name),
		)
	}
	return out
}

// AmortizedGauges returns the amortized-ratio gauges for one scheme (by
// the name it reports under), or nil when the scheme never reported.
func (r *Registry) AmortizedGauges(scheme string) []GaugeValue {
	if r == nil {
		return nil
	}
	m := r.ledgerIdx.Load()
	if m == nil {
		return nil
	}
	row, ok := (*m)[scheme]
	if !ok {
		return nil
	}
	life := r.snapLedger()
	win, winOps := r.lastWindow()
	return amortizedForRow(scheme, row, life, win, winOps)
}

// amortizedGaugesAll emits the amortized gauges for every interned scheme;
// this is the scrape-time collector registered by NewRegistry.
func (r *Registry) amortizedGaugesAll() []GaugeValue {
	names := r.LedgerSchemes()
	if len(names) == 0 {
		return nil
	}
	life := r.snapLedger()
	win, winOps := r.lastWindow()
	var out []GaugeValue
	for row, name := range names {
		out = append(out, amortizedForRow(name, row, life, win, winOps)...)
	}
	return out
}

func (r *Registry) lastWindow() (ledgerWindowSnap, uint64) {
	r.winMu.Lock()
	defer r.winMu.Unlock()
	return r.winLast, r.winLastOps
}

// LedgerCell is one nonzero (scheme, op, kind) attribution for exposition.
type LedgerCell struct {
	Scheme string `json:"scheme"`
	Op     string `json:"op"`
	Kind   string `json:"kind"`
	Value  uint64 `json:"value"`
}

// LedgerOpCount is one nonzero per-scheme operation count.
type LedgerOpCount struct {
	Scheme string `json:"scheme"`
	Op     string `json:"op"`
	Count  uint64 `json:"count"`
}

// LedgerCells returns the nonzero attribution cells, in (scheme, op, kind)
// order.
func (r *Registry) LedgerCells() []LedgerCell {
	if r == nil {
		return nil
	}
	names := r.LedgerSchemes()
	var out []LedgerCell
	for row, name := range names {
		for o := Op(0); o < numOps; o++ {
			for k := CostKind(0); k < numCostKinds; k++ {
				v := r.ledgerCells[row][o][k].Load()
				if v == 0 {
					continue
				}
				out = append(out, LedgerCell{Scheme: name, Op: o.String(), Kind: k.String(), Value: v})
			}
		}
	}
	return out
}

// LedgerOpCounts returns the nonzero per-scheme operation counts.
func (r *Registry) LedgerOpCounts() []LedgerOpCount {
	if r == nil {
		return nil
	}
	names := r.LedgerSchemes()
	var out []LedgerOpCount
	for row, name := range names {
		for o := Op(0); o < numOps; o++ {
			if n := r.ledgerOps[row][o].Load(); n > 0 {
				out = append(out, LedgerOpCount{Scheme: name, Op: o.String(), Count: n})
			}
		}
	}
	return out
}

// FormatLedger renders the ledger as aligned text for boxinspect -ledger
// and the boxtop panel: one block per scheme, cells sorted by value
// descending, followed by the amortized ratios.
func FormatLedger(r *Registry) string {
	if r == nil {
		return "no registry\n"
	}
	cells := r.LedgerCells()
	opsRows := r.LedgerOpCounts()
	var b []byte
	byScheme := map[string][]LedgerCell{}
	var order []string
	for _, c := range cells {
		if _, ok := byScheme[c.Scheme]; !ok {
			order = append(order, c.Scheme)
		}
		byScheme[c.Scheme] = append(byScheme[c.Scheme], c)
	}
	for _, scheme := range order {
		b = append(b, fmt.Sprintf("scheme %s\n", scheme)...)
		for _, oc := range opsRows {
			if oc.Scheme == scheme {
				b = append(b, fmt.Sprintf("  ops %-16s %12d\n", oc.Op, oc.Count)...)
			}
		}
		sc := byScheme[scheme]
		sort.Slice(sc, func(i, j int) bool { return sc[i].Value > sc[j].Value })
		for _, c := range sc {
			b = append(b, fmt.Sprintf("  %-10s %-18s %12d\n", c.Op, c.Kind, c.Value)...)
		}
		for _, g := range r.AmortizedGauges(scheme) {
			b = append(b, fmt.Sprintf("  %-29s %12.4f\n", g.Name, g.Value)...)
		}
	}
	if err := r.CheckLedger(false); err != nil {
		b = append(b, fmt.Sprintf("conservation: VIOLATED: %v\n", err)...)
	} else {
		b = append(b, "conservation: ok\n"...)
	}
	return string(b)
}
