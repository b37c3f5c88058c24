package bench

import (
	"fmt"

	"boxes/internal/obs"
	"boxes/internal/order"
	"boxes/internal/xmlgen"
)

// Concentrated runs the paper's concentrated insertion sequence: after
// bulk loading a two-level base document, a subtree root is added as a
// child of the document root and element pairs are repeatedly "squeezed"
// into the centre of its growing child list — the adversarial pattern that
// breaks gap-based schemes. Every element insertion is recorded.
func Concentrated(l order.Labeler, rec *Recorder, baseElems, insertElems int) error {
	var elems []order.ElemLIDs
	if err := rec.Bracket(obs.OpBulkLoad, func() error {
		var err error
		elems, err = l.BulkLoad(xmlgen.TwoLevel(baseElems).TagStream())
		return err
	}); err != nil {
		return err
	}
	docRoot := elems[0]
	var sub order.ElemLIDs
	if err := rec.Do(func() error {
		var err error
		sub, err = l.InsertElementBefore(docRoot.End)
		return err
	}); err != nil {
		return fmt.Errorf("concentrated: subtree root: %w", err)
	}
	right := sub.End
	for inserted := 1; inserted < insertElems; inserted++ {
		if inserted%2 == 1 {
			// Left member of the pair: previous sibling of the current
			// centre.
			if err := rec.Do(func() error {
				_, err := l.InsertElementBefore(right)
				return err
			}); err != nil {
				return fmt.Errorf("concentrated: insert %d: %w", inserted, err)
			}
			continue
		}
		// Right member: also before the centre, becoming the new centre.
		var r order.ElemLIDs
		if err := rec.Do(func() error {
			var err error
			r, err = l.InsertElementBefore(right)
			return err
		}); err != nil {
			return fmt.Errorf("concentrated: insert %d: %w", inserted, err)
		}
		right = r.Start
	}
	return nil
}

// Scattered runs the contrasting sequence of Section 7: the same base
// document, with insertions spread evenly across all of its children (each
// new element becomes a previous sibling of a distinct existing child).
func Scattered(l order.Labeler, rec *Recorder, baseElems, insertElems int) error {
	var elems []order.ElemLIDs
	if err := rec.Bracket(obs.OpBulkLoad, func() error {
		var err error
		elems, err = l.BulkLoad(xmlgen.TwoLevel(baseElems).TagStream())
		return err
	}); err != nil {
		return err
	}
	children := elems[1:] // the root's children, in document order
	if len(children) == 0 {
		return fmt.Errorf("scattered: base document has no children")
	}
	for i := 0; i < insertElems; i++ {
		// Even spread: child index advances by a fixed stride through
		// the document.
		anchor := children[(i*len(children))/insertElems].Start
		if err := rec.Do(func() error {
			_, err := l.InsertElementBefore(anchor)
			return err
		}); err != nil {
			return fmt.Errorf("scattered: insert %d: %w", i, err)
		}
	}
	return nil
}

// XMarkDocOrder builds an XMark-shaped document element-at-a-time in
// document order of start tags (each element arrives as the last child of
// its parent), the realistic build-up workload of Section 7. rec.Skip
// should be set to the priming prefix length.
func XMarkDocOrder(l order.Labeler, rec *Recorder, totalElems int, seed int64) error {
	tree := xmlgen.XMark(totalElems, seed)
	lidOf := make(map[*xmlgen.Node]order.ElemLIDs, tree.Elements())
	var insertErr error
	tree.Preorder(func(n, parent *xmlgen.Node, _ int) {
		if insertErr != nil {
			return
		}
		if parent == nil {
			insertErr = rec.Do(func() error {
				e, err := l.InsertFirstElement()
				lidOf[n] = e
				return err
			})
			return
		}
		anchor := lidOf[parent].End
		insertErr = rec.Do(func() error {
			e, err := l.InsertElementBefore(anchor)
			lidOf[n] = e
			return err
		})
	})
	return insertErr
}

// A row is one scheme under one insertion workload: a line of a printed
// table, and the unit TestPaperCostGates pins.
type row struct {
	spec     SchemeSpec
	name     string // the printed scheme column: spec.Name plus any variant suffix
	workload func(order.Labeler, *Recorder) error
}

// rowsOf pairs every spec with one workload.
func rowsOf(specs []SchemeSpec, suffix string, workload func(order.Labeler, *Recorder) error) []row {
	rows := make([]row, len(specs))
	for i, spec := range specs {
		rows[i] = row{spec: spec, name: spec.Name + suffix, workload: workload}
	}
	return rows
}

// runRows runs each row on a fresh labeler and recorder, in order.
func runRows(cfg Config, rows []row) ([]SchemeRun, error) {
	out := make([]SchemeRun, 0, len(rows))
	for _, r := range rows {
		run, err := r.run(cfg)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", r.name, err)
		}
		out = append(out, run)
	}
	return out, nil
}

// run executes the row's workload on a fresh in-memory store.
func (r row) run(cfg Config) (SchemeRun, error) {
	l, store, err := r.spec.New(cfg.BlockSize)
	if err != nil {
		return SchemeRun{}, err
	}
	// Each row gets its own registry unless the caller aggregates into a
	// shared one (-metrics): the cost ledger is per-registry, and a private
	// registry keeps every row's amortized ratios cleanly separated.
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	cfg.attach(r.spec.Name, store)
	rec := NewRecorder(store).Observe(cfg.Metrics, r.spec.Name, obs.OpInsert)
	if err := r.workload(l, rec); err != nil {
		return SchemeRun{}, err
	}
	run := SchemeRun{
		Scheme:    r.name,
		AvgIO:     rec.Avg(),
		TotalIO:   rec.Total(),
		MaxIO:     rec.Max(),
		P99IO:     rec.IOPercentile(0.99),
		Ops:       rec.N(),
		Height:    l.Height(),
		LabelBits: l.LabelBits(),
		Dist:      rec.CCDF(),
	}
	for _, g := range cfg.Metrics.AmortizedGauges(r.spec.Name) {
		if g.Name == "boxes_amortized_relabels_per_insert" {
			run.RelabelsPerInsert = g.Value
		}
	}
	return run, nil
}
