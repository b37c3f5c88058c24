package core

import (
	"context"
	"errors"
	"fmt"

	"boxes/internal/obs"
	"boxes/internal/order"
	"boxes/internal/query"
	"boxes/internal/xmlgen"
)

// OpKind selects the operation an Op performs.
type OpKind int

const (
	// OpInsertBefore inserts one element before the tag at Op.LID.
	OpInsertBefore OpKind = iota
	// OpInsertFirst bootstraps an empty document.
	OpInsertFirst
	// OpInsertSubtree bulk-inserts Op.Tree before the tag at Op.LID.
	OpInsertSubtree
	// OpDelete removes the single label Op.LID.
	OpDelete
	// OpDeleteElement removes both labels of Op.Elem.
	OpDeleteElement
	// OpDeleteSubtree removes Op.Elem and all its descendants.
	OpDeleteSubtree
	// OpLookup reads the label of Op.LID (reads may interleave with
	// mutations inside one batch; each sees the batch's writes so far).
	OpLookup
	// OpLookupSpan reads both labels of Op.Elem.
	OpLookupSpan
	// OpOrdinalLookup reads the document position of Op.LID.
	OpOrdinalLookup
)

func (k OpKind) String() string {
	switch k {
	case OpInsertBefore:
		return "insert-before"
	case OpInsertFirst:
		return "insert-first"
	case OpInsertSubtree:
		return "insert-subtree"
	case OpDelete:
		return "delete"
	case OpDeleteElement:
		return "delete-element"
	case OpDeleteSubtree:
		return "delete-subtree"
	case OpLookup:
		return "lookup"
	case OpLookupSpan:
		return "lookup-span"
	case OpOrdinalLookup:
		return "ordinal-lookup"
	default:
		return fmt.Sprintf("OpKind(%d)", int(k))
	}
}

// Op is one operation inside a batch. Which fields are read depends on
// Kind: LID targets single-label ops, Elem targets element ops, Tree is
// the payload of OpInsertSubtree.
type Op struct {
	Kind OpKind
	LID  order.LID
	Elem order.ElemLIDs
	Tree *xmlgen.Tree
}

// OpResult carries the outcome of one batch Op; which field is set depends
// on the Op's Kind.
type OpResult struct {
	Elem    order.ElemLIDs   // OpInsertBefore, OpInsertFirst
	Elems   []order.ElemLIDs // OpInsertSubtree
	Label   order.Label      // OpLookup
	Span    query.Span       // OpLookupSpan
	Ordinal uint64           // OpOrdinalLookup
}

// BatchError reports which operation of a batch failed.
type BatchError struct {
	Index int    // position in the ops slice
	Kind  OpKind // the failing operation
	Err   error
}

func (e *BatchError) Error() string {
	return fmt.Sprintf("core: batch op %d (%s): %v", e.Index, e.Kind, e.Err)
}

func (e *BatchError) Unwrap() error { return e.Err }

// ApplyBatch runs ops as ONE logical operation: on a durable store all
// mutations plus one metadata rewrite commit as a single WAL transaction —
// one commit record, one durability point — instead of one per mutation.
// Results are positional (results[i] answers ops[i]).
//
// The batch is atomic: if any op fails on a durable store, the pager
// operation is aborted, no write of the batch reaches the backend, and the
// in-memory structures roll back to the committed metadata — the same
// bracket (transact) every single-op mutator runs in. A non-durable store
// has no committed state to return to and may retain partial effects of the
// failed prefix.
func (s *Store) ApplyBatch(ops []Op) ([]OpResult, error) {
	return s.ApplyBatchCtx(context.Background(), ops)
}

// ApplyBatchCtx is ApplyBatch with a cancellation point between ops: an
// expired context aborts the batch before the next op runs, the pager
// operation rolls back, and no write reaches the backend. The check sits
// strictly before the commit protocol — once the last op has applied, the
// WAL commit runs to completion regardless of ctx, so a ctx error from
// this method guarantees the batch did NOT commit, and a nil error
// guarantees it is durable. The write-lock acquisition itself is not
// interruptible: a deadline that expires while queued behind the lock is
// detected before the first op runs. Servers use this to shed queued work
// on deadline without ever cancelling mid-WAL-commit.
func (s *Store) ApplyBatchCtx(ctx context.Context, ops []Op) ([]OpResult, error) {
	if len(ops) == 0 {
		return nil, nil
	}
	results := make([]OpResult, len(ops))
	err := s.write(obs.OpBatch, func() error {
		return s.transact(s.opts.Durable, func() error {
			for i := range ops {
				if cerr := ctx.Err(); cerr != nil {
					return fmt.Errorf("core: batch aborted before op %d/%d: %w", i, len(ops), cerr)
				}
				// With span recording on, each positional op is a child span
				// of the batch, so a trace shows the individual inserts that
				// share its one fsync.
				sp := s.reg.Tracer().StartAuto(false, ops[i].Kind.String())
				err := s.applyOne(&ops[i], &results[i])
				sp.End(err)
				if err != nil {
					return &BatchError{Index: i, Kind: ops[i].Kind, Err: err}
				}
			}
			return nil
		})
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// applyOne is the one dispatch of an Op onto the labeler, for single-op
// mutators and batch members alike. It runs inside the transaction's pager
// operation, so a batch's reads see the batch's prior writes.
func (s *Store) applyOne(op *Op, res *OpResult) error {
	switch op.Kind {
	case OpInsertBefore:
		e, err := s.labeler.InsertElementBefore(op.LID)
		res.Elem = e
		return err
	case OpInsertFirst:
		e, err := s.labeler.InsertFirstElement()
		res.Elem = e
		return err
	case OpInsertSubtree:
		if op.Tree == nil || op.Tree.Root == nil {
			return fmt.Errorf("empty subtree")
		}
		elems, err := s.labeler.InsertSubtreeBefore(op.LID, op.Tree.TagStream())
		res.Elems = elems
		return err
	case OpDelete:
		return s.labeler.Delete(op.LID)
	case OpDeleteElement:
		if err := s.labeler.Delete(op.Elem.Start); err != nil {
			return err
		}
		return s.labeler.Delete(op.Elem.End)
	case OpDeleteSubtree:
		return s.labeler.DeleteSubtree(op.Elem.Start, op.Elem.End)
	case OpLookup:
		v, err := s.labeler.Lookup(op.LID)
		res.Label = v
		return err
	case OpLookupSpan:
		sp, err := s.lookupSpan(op.Elem)
		res.Span = sp
		return err
	case OpOrdinalLookup:
		v, err := s.labeler.OrdinalLookup(op.LID)
		res.Ordinal = v
		return err
	default:
		return fmt.Errorf("unknown op kind %v", op.Kind)
	}
}

// LoadBatched inserts tree element-by-element through ApplyBatch
// transactions of batchSize inserts — the incremental counterpart of Load:
// instead of one bulk-load transaction, the document arrives as a stream
// of batches, each a single WAL commit. Insertion runs in BFS order so an
// element's parent is always applied before the element references the
// parent's end tag; the returned Document's Elems are still indexed by
// preorder element index, exactly like Load's.
func (s *Store) LoadBatched(tree *xmlgen.Tree, batchSize int) (*Document, error) {
	if tree == nil || tree.Root == nil {
		return nil, errors.New("core: empty tree")
	}
	if batchSize < 1 {
		batchSize = 1
	}
	nodes := tree.Nodes()
	idx := make(map[*xmlgen.Node]int, len(nodes))
	for i, n := range nodes {
		idx[n] = i
	}
	elems := make([]order.ElemLIDs, len(nodes))
	applied := make([]bool, len(nodes))

	res, err := s.ApplyBatch([]Op{{Kind: OpInsertFirst}})
	if err != nil {
		return nil, err
	}
	elems[0] = res[0].Elem
	applied[0] = true

	var ops []Op
	var owners []int
	flush := func() error {
		if len(ops) == 0 {
			return nil
		}
		res, err := s.ApplyBatch(ops)
		if err != nil {
			return err
		}
		for i := range ops {
			elems[owners[i]] = res[i].Elem
			applied[owners[i]] = true
		}
		ops, owners = ops[:0], owners[:0]
		return nil
	}
	queue := []*xmlgen.Node{tree.Root}
	for len(queue) > 0 {
		nd := queue[0]
		queue = queue[1:]
		p := idx[nd]
		for _, c := range nd.Children {
			if !applied[p] {
				// The parent's insert is still pending in the current
				// batch; apply it so its end-tag LID exists.
				if err := flush(); err != nil {
					return nil, err
				}
			}
			ops = append(ops, Op{Kind: OpInsertBefore, LID: elems[p].End})
			owners = append(owners, idx[c])
			queue = append(queue, c)
			if len(ops) >= batchSize {
				if err := flush(); err != nil {
					return nil, err
				}
			}
		}
	}
	if err := flush(); err != nil {
		return nil, err
	}
	return &Document{Store: s, Tree: tree, Elems: elems}, nil
}
