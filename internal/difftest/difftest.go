// Package difftest is a cross-scheme differential fuzz harness: one
// randomized operation script drives every labeling scheme (W-BOX,
// W-BOX-O, B-BOX, B-BOX-O, naive-k) plus the trivially correct in-memory
// oracle, and after every operation each scheme's label order is checked
// against the oracle and the schemes are checked against each other
// (counts always; exact ordinal positions where supported). Because every
// world receives the identical positional script, any divergence — a label
// out of order, a wrong ordinal, a count mismatch, an operation that
// errors on one scheme but not another — is a real bug in exactly one
// scheme's maintenance logic.
//
// Scripts are plain byte strings so the harness plugs directly into go
// test's native fuzzing (FuzzOps) as well as seeded property tests.
package difftest

import (
	"errors"
	"fmt"

	"boxes/internal/core"
	"boxes/internal/order"
	"boxes/internal/xmlgen"
)

const blockSize = 512

// maxScriptOps bounds the number of decoded operations per script, keeping
// the after-every-op O(n) oracle sweep affordable under fuzzing.
const maxScriptOps = 64

// staleSlot is the first of the eight kind bytes that select the stale-LID
// operation instead of kind%7. The corpus committed before the slot existed
// holds no byte this high, so those scripts decode exactly as they did.
const staleSlot = 0xF8

// world is one scheme under test with its private oracle mirror. Scripts
// are positional (they name element indices, not LIDs), so every world
// performs the same logical operation even though LID values may differ.
type world struct {
	name    string
	st      *core.Store
	oracle  *order.Oracle
	elems   []order.ElemLIDs
	dead    []order.LID // LIDs of deleted tags (the LIDF may have reissued some)
	ordinal bool
}

// Engine holds the five scheme worlds one script runs against.
type Engine struct {
	worlds []*world
	ops    int // decoded operations executed
}

// Config is one scheme of the shared test matrix: its display name, the
// structural core.Options selecting it, and whether it supports ordinal
// (rank) queries.
type Config struct {
	Name    string
	Opts    core.Options
	Ordinal bool
}

// Configs is the persistent scheme matrix shared by the differential
// fuzzer and the deterministic simulator (internal/sim): every dynamic
// scheme of the paper.
func Configs() []Config {
	return []Config{
		{"wbox", core.Options{Scheme: core.SchemeWBox, Ordinal: true}, true},
		{"wbox-o", core.Options{Scheme: core.SchemeWBoxO, Ordinal: true}, true},
		{"bbox", core.Options{Scheme: core.SchemeBBox}, false},
		{"bbox-o", core.Options{Scheme: core.SchemeBBox, Ordinal: true, RelaxedFanout: true}, true},
	}
}

// naiveConfig is the engine's fifth, in-memory-only world: naive-k cannot
// persist, so the durable sweeps that range over Configs leave it out.
var naiveConfig = Config{"naive-8", core.Options{Scheme: core.SchemeNaive, NaiveK: 8}, false}

// New builds a fresh engine with one in-memory store per scheme.
func New() (*Engine, error) { return newEngine(0) }

// newEngine is New with every store's pager LRU set to cacheBlocks blocks
// (0 = off, as shipped).
func newEngine(cacheBlocks int) (*Engine, error) {
	e := &Engine{}
	for _, cfg := range append(Configs(), naiveConfig) {
		opts := cfg.Opts
		opts.BlockSize = blockSize
		opts.CacheBlocks = cacheBlocks
		st, err := core.Open(opts)
		if err != nil {
			return nil, fmt.Errorf("difftest: open %s: %w", cfg.Name, err)
		}
		e.worlds = append(e.worlds, &world{
			name:    cfg.Name,
			st:      st,
			oracle:  order.NewOracle(),
			ordinal: cfg.Ordinal,
		})
	}
	return e, nil
}

// script is a cursor over the fuzz input.
type script struct {
	data []byte
	pos  int
}

// next returns the next input byte, or false when the script is exhausted.
func (s *script) next() (byte, bool) {
	if s.pos >= len(s.data) {
		return 0, false
	}
	b := s.data[s.pos]
	s.pos++
	return b, true
}

// Exec decodes and runs one script, verifying every world after every
// operation. The returned error pinpoints the diverging world and op.
func Exec(data []byte) error {
	e, err := New()
	if err != nil {
		return err
	}
	return e.run(data)
}

func (e *Engine) run(data []byte) error {
	s := &script{data: data}
	for e.ops < maxScriptOps {
		kind, ok := s.next()
		if !ok {
			break
		}
		if err := e.step(kind, s); err != nil {
			return err
		}
		if err := e.verify(); err != nil {
			return fmt.Errorf("after op %d (kind %#x): %w", e.ops, kind, err)
		}
		e.ops++
	}
	return e.finalCheck()
}

// step decodes one operation from the script and applies it to every world.
func (e *Engine) step(kind byte, s *script) error {
	w0 := e.worlds[0]
	if len(w0.elems) == 0 {
		// Only bootstrap is meaningful on an empty document.
		return e.insertFirst()
	}
	if kind >= staleSlot {
		return e.staleOp(kind-staleSlot, s)
	}
	switch kind % 7 {
	case 0:
		return e.insertBefore(s)
	case 1:
		return e.insertSubtree(s)
	case 2:
		return e.deleteElement(s)
	case 3:
		return e.deleteSubtree(s)
	case 4:
		return e.lookups(s)
	case 5:
		return e.batch(s)
	default:
		return e.insertBefore(s)
	}
}

// target picks an element index and a side (start/end tag) from the script.
func (e *Engine) target(s *script) (idx int, end bool) {
	b, _ := s.next()
	c, _ := s.next()
	n := len(e.worlds[0].elems)
	if n == 0 {
		return 0, false
	}
	return int(b) % n, c&1 == 1
}

func (w *world) tagAt(idx int, end bool) order.LID {
	if end {
		return w.elems[idx].End
	}
	return w.elems[idx].Start
}

func (e *Engine) insertFirst() error {
	for _, w := range e.worlds {
		elem, err := w.st.InsertFirstElement()
		if err != nil {
			return fmt.Errorf("%s: insert-first: %w", w.name, err)
		}
		if err := w.oracle.InsertFirstElement(elem); err != nil {
			return fmt.Errorf("%s: oracle insert-first: %w", w.name, err)
		}
		w.elems = append(w.elems, elem)
	}
	return nil
}

func (e *Engine) insertBefore(s *script) error {
	idx, end := e.target(s)
	return e.insertBeforeAt(idx, end)
}

func (e *Engine) insertBeforeAt(idx int, end bool) error {
	for _, w := range e.worlds {
		at := w.tagAt(idx, end)
		elem, err := w.st.InsertElementBefore(at)
		if err != nil {
			return fmt.Errorf("%s: insert-before elem %d: %w", w.name, idx, err)
		}
		if err := w.oracle.InsertElementBefore(elem, at); err != nil {
			return fmt.Errorf("%s: oracle insert-before: %w", w.name, err)
		}
		w.elems = append(w.elems, elem)
	}
	return nil
}

// insertSubtree bulk-inserts a small two-level subtree. The LID order of a
// TwoLevel(k) insertion is root.Start, child_i.Start, child_i.End ...,
// root.End — exactly the returned element slice flattened in document
// order.
func (e *Engine) insertSubtree(s *script) error {
	idx, end := e.target(s)
	b, _ := s.next()
	k := 2 + int(b)%3 // 2..4 elements
	tree := xmlgen.TwoLevel(k)
	for _, w := range e.worlds {
		at := w.tagAt(idx, end)
		elems, err := w.st.InsertSubtreeBefore(at, tree)
		if err != nil {
			return fmt.Errorf("%s: insert-subtree(%d) at elem %d: %w", w.name, k, idx, err)
		}
		if len(elems) != k {
			return fmt.Errorf("%s: insert-subtree returned %d elements, want %d", w.name, len(elems), k)
		}
		lids := make([]order.LID, 0, 2*k)
		lids = append(lids, elems[0].Start)
		for _, c := range elems[1:] {
			lids = append(lids, c.Start, c.End)
		}
		lids = append(lids, elems[0].End)
		if err := w.oracle.InsertSliceBefore(lids, at); err != nil {
			return fmt.Errorf("%s: oracle insert-subtree: %w", w.name, err)
		}
		w.elems = append(w.elems, elems...)
	}
	return nil
}

func (e *Engine) deleteElement(s *script) error {
	idx, _ := e.target(s)
	return e.deleteElementAt(idx)
}

func (e *Engine) deleteElementAt(idx int) error {
	for _, w := range e.worlds {
		elem := w.elems[idx]
		if err := w.st.DeleteElement(elem); err != nil {
			return fmt.Errorf("%s: delete-element %d: %w", w.name, idx, err)
		}
		if err := w.oracle.Delete(elem.Start); err != nil {
			return fmt.Errorf("%s: oracle delete start: %w", w.name, err)
		}
		if err := w.oracle.Delete(elem.End); err != nil {
			return fmt.Errorf("%s: oracle delete end: %w", w.name, err)
		}
		w.dead = append(w.dead, elem.Start, elem.End)
		w.elems = append(w.elems[:idx], w.elems[idx+1:]...)
	}
	return nil
}

func (e *Engine) deleteSubtree(s *script) error {
	idx, _ := e.target(s)
	return e.deleteSubtreeAt(idx)
}

func (e *Engine) deleteSubtreeAt(idx int) error {
	for _, w := range e.worlds {
		elem := w.elems[idx]
		if err := w.st.DeleteSubtree(elem); err != nil {
			return fmt.Errorf("%s: delete-subtree %d: %w", w.name, idx, err)
		}
		if err := w.oracle.DeleteRange(elem.Start, elem.End); err != nil {
			return fmt.Errorf("%s: oracle delete-range: %w", w.name, err)
		}
		// Drop every element whose tags fell inside the deleted range.
		live := w.elems[:0]
		for _, el := range w.elems {
			if w.oracle.Position(el.Start) >= 0 {
				live = append(live, el)
			} else {
				w.dead = append(w.dead, el.Start, el.End)
			}
		}
		w.elems = live
	}
	return nil
}

// staleLID returns a LID that names no live label: the most recently
// deleted tag whose LID the LIDF has not reissued since, else one far past
// anything ever allocated.
func (w *world) staleLID() order.LID {
	for i := len(w.dead) - 1; i >= 0; i-- {
		if w.oracle.Position(w.dead[i]) < 0 {
			return w.dead[i]
		}
	}
	return order.LID(1) << 40
}

// staleOp aims one operation at a stale LID. The oracle rejects it (the LID
// has no position, which is what every oracle mutator checks first), so
// every world must reject it too, with the typed error, and — checked by
// the verify that follows every step — without moving a label or taking a
// LIDF record. The kind byte picks one of eight delete and read shapes; a
// side byte with bit 1 set switches to the insert bank, where bit 0 of the
// shape picks element or subtree insert and bit 1 routes it through
// ApplyBatch. (The corpus committed before the insert bank existed has no
// side byte with bit 1 set in a stale op, so it decodes as it did.)
func (e *Engine) staleOp(shape byte, s *script) error {
	b, _ := s.next()
	c, _ := s.next() // target's side byte, with a second bit
	idx, end, inserts := int(b)%len(e.worlds[0].elems), c&1 == 1, c&2 != 0
	for _, w := range e.worlds {
		stale, live := w.staleLID(), w.tagAt(idx, end)
		var err error
		switch {
		case inserts && shape&3 == 0:
			_, err = w.st.InsertElementBefore(stale)
		case inserts && shape&3 == 1:
			_, err = w.st.InsertSubtreeBefore(stale, xmlgen.TwoLevel(2))
		case inserts && shape&3 == 2:
			_, err = w.st.ApplyBatch([]core.Op{
				{Kind: core.OpLookup, LID: live},
				{Kind: core.OpInsertBefore, LID: stale},
			})
		case inserts:
			_, err = w.st.ApplyBatch([]core.Op{
				{Kind: core.OpLookup, LID: live},
				{Kind: core.OpInsertSubtree, LID: stale, Tree: xmlgen.TwoLevel(2)},
			})
		case shape == 0:
			err = w.st.Delete(stale)
		case shape == 1:
			err = w.st.DeleteElement(order.ElemLIDs{Start: stale, End: live})
		case shape == 2:
			err = w.st.DeleteSubtree(order.ElemLIDs{Start: stale, End: live})
		case shape == 3:
			_, err = w.st.Lookup(stale)
		case shape == 4:
			_, err = w.st.LookupSpan(order.ElemLIDs{Start: stale, End: live})
		case shape == 5:
			_, err = w.st.Compare(stale, live)
		case shape == 6:
			_, err = w.st.Compare(live, stale)
		default:
			_, err = w.st.ApplyBatch([]core.Op{
				{Kind: core.OpLookup, LID: live},
				{Kind: core.OpDelete, LID: stale},
			})
		}
		if !errors.Is(err, order.ErrUnknownLID) {
			return fmt.Errorf("%s: stale-LID op %d (inserts=%v) on LID %d: got %v, want %v", w.name, shape, inserts, stale, err, order.ErrUnknownLID)
		}
	}
	return nil
}

// lookups runs the read path: span lookup, pairwise compare, and ordinal
// lookup, cross-checking results between worlds and against the oracle.
func (e *Engine) lookups(s *script) error {
	idx, _ := e.target(s)
	jdx, jend := e.target(s)
	return e.lookupsAt(idx, jdx, jend)
}

func (e *Engine) lookupsAt(idx, jdx int, jend bool) error {
	var wantOrd int64 = -1
	for _, w := range e.worlds {
		sp, err := w.st.LookupSpan(w.elems[idx])
		if err != nil {
			return fmt.Errorf("%s: lookup-span %d: %w", w.name, idx, err)
		}
		if sp.Start >= sp.End {
			return fmt.Errorf("%s: span of elem %d inverted: [%d, %d]", w.name, idx, sp.Start, sp.End)
		}
		a, b := w.tagAt(idx, false), w.tagAt(jdx, jend)
		cmp, err := w.st.Compare(a, b)
		if err != nil {
			return fmt.Errorf("%s: compare: %w", w.name, err)
		}
		pa, pb := w.oracle.Position(a), w.oracle.Position(b)
		want := 0
		if pa < pb {
			want = -1
		} else if pa > pb {
			want = 1
		}
		if cmp != want {
			return fmt.Errorf("%s: compare(%d, %d) = %d, oracle order says %d", w.name, a, b, cmp, want)
		}
		if !w.ordinal {
			continue
		}
		ord, err := w.st.OrdinalLookup(w.tagAt(jdx, jend))
		if err != nil {
			return fmt.Errorf("%s: ordinal-lookup: %w", w.name, err)
		}
		if p := w.oracle.Position(w.tagAt(jdx, jend)); int(ord) != p {
			return fmt.Errorf("%s: ordinal %d, oracle position %d", w.name, ord, p)
		}
		if wantOrd >= 0 && int64(ord) != wantOrd {
			return fmt.Errorf("%s: ordinal %d disagrees with another scheme's %d", w.name, ord, wantOrd)
		}
		wantOrd = int64(ord)
	}
	return nil
}

// batch routes a short run of mutations and reads through ApplyBatch, so
// the batch path and the one-op-per-call path are differentially tested
// against each other (each world's oracle is updated from the batch's
// positional results).
func (e *Engine) batch(s *script) error {
	b, _ := s.next()
	n := 2 + int(b)%3 // 2..4 ops per batch
	type plan struct {
		kind core.OpKind
		idx  int
		end  bool
	}
	plans := make([]plan, 0, n)
	inserts := 0
	for i := 0; i < n; i++ {
		kb, _ := s.next()
		idx, end := e.target(s)
		switch kb % 3 {
		case 0:
			plans = append(plans, plan{core.OpInsertBefore, idx, end})
			inserts++
		case 1:
			plans = append(plans, plan{core.OpLookup, idx, end})
		default:
			plans = append(plans, plan{core.OpLookupSpan, idx, false})
		}
	}
	for _, w := range e.worlds {
		ops := make([]core.Op, len(plans))
		for i, p := range plans {
			switch p.kind {
			case core.OpInsertBefore:
				ops[i] = core.Op{Kind: core.OpInsertBefore, LID: w.tagAt(p.idx, p.end)}
			case core.OpLookup:
				ops[i] = core.Op{Kind: core.OpLookup, LID: w.tagAt(p.idx, p.end)}
			default:
				ops[i] = core.Op{Kind: core.OpLookupSpan, Elem: w.elems[p.idx]}
			}
		}
		results, err := w.st.ApplyBatch(ops)
		if err != nil {
			return fmt.Errorf("%s: apply-batch: %w", w.name, err)
		}
		for i, p := range plans {
			if p.kind != core.OpInsertBefore {
				continue
			}
			elem := results[i].Elem
			if err := w.oracle.InsertElementBefore(elem, w.tagAt(p.idx, p.end)); err != nil {
				return fmt.Errorf("%s: oracle batch insert: %w", w.name, err)
			}
			w.elems = append(w.elems, elem)
		}
	}
	return nil
}

// verify checks every world against its oracle and the worlds against each
// other after one operation.
func (e *Engine) verify() error {
	count := uint64(0)
	for i, w := range e.worlds {
		if err := w.oracle.CheckAgainst(w.st.Labeler(), w.ordinal); err != nil {
			return fmt.Errorf("%s diverged from oracle: %w", w.name, err)
		}
		// Each world owns a private registry and runs single-threaded, so
		// the cost ledger must balance exactly after every operation:
		// structural counters == attributed cells == global totals, and the
		// ledger's I/O kinds == the pager's own read/write counters.
		if err := w.st.CheckLedger(true); err != nil {
			return fmt.Errorf("%s: cost-ledger conservation: %w", w.name, err)
		}
		if i == 0 {
			count = w.st.Count()
		} else if got := w.st.Count(); got != count {
			return fmt.Errorf("%s holds %d labels, %s holds %d", w.name, got, e.worlds[0].name, count)
		}
	}
	return nil
}

// finalCheck runs the deep structural invariant validation on every world
// (too expensive for after-every-op use under fuzzing).
func (e *Engine) finalCheck() error {
	var errs []error
	for _, w := range e.worlds {
		if err := w.st.CheckInvariants(); err != nil {
			errs = append(errs, fmt.Errorf("%s: invariants: %w", w.name, err))
		}
	}
	return errors.Join(errs...)
}

// Ops reports how many script operations ran (for coverage-ish logging in
// the seeded property test).
func (e *Engine) Ops() int { return e.ops }
