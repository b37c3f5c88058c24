package main

import (
	"fmt"

	"boxes/internal/core"
	"boxes/internal/fsck"
	"boxes/internal/order"
	"boxes/internal/pager"
)

// verifyStore reopens the drained store file and checks it against the
// client-side record of acknowledged ops: structure invariants, fsck, the
// live label count, and for every touched target that its connection's
// live inserts sit immediately before it in acknowledgement order — the
// only order the partitioned streams allow. It returns the live label
// count.
func verifyStore(img *image, load *loadResult) (uint64, error) {
	fb, err := pager.OpenFile(img.path)
	if err != nil {
		return 0, fmt.Errorf("reopen %s: %w", img.path, err)
	}
	// An LRU over the whole file: the check reads every chain label, and
	// verification time comes out of the run's wall-clock budget.
	st, err := core.OpenExisting(fb, core.Options{CacheBlocks: 1 << 14})
	if err != nil {
		fb.Close()
		return 0, fmt.Errorf("reopen %s: %w", img.path, err)
	}
	defer st.Close()
	if err := st.CheckInvariants(); err != nil {
		return 0, fmt.Errorf("invariants after drain: %w", err)
	}
	want := img.labels
	for _, g := range load.gens {
		want += 2 * (g.inserts - g.deletes)
	}
	got := st.Count()
	if got != want {
		return got, fmt.Errorf("store holds %d labels, acknowledged ops add up to %d", got, want)
	}
	for _, g := range load.gens {
		for target, chain := range g.chains {
			if err := checkChain(st, img, target, chain); err != nil {
				return got, fmt.Errorf("connection %d, target element %d: %w", g.conn, target, err)
			}
		}
	}
	if err := st.Close(); err != nil {
		return got, err
	}
	rep, err := fsck.Check(img.path, fsck.Options{})
	if err != nil {
		return got, fmt.Errorf("fsck: %w", err)
	}
	if !rep.Clean() {
		return got, fmt.Errorf("fsck: %d problems, first: %s", len(rep.Problems), rep.Problems[0])
	}
	return got, nil
}

// checkChain checks prev < n1.start < n1.end < ... < nk.end < target.start,
// where prev is the tag that preceded the target in the set-up document.
func checkChain(st *core.Store, img *image, target int32, chain []order.ElemLIDs) error {
	lids := make([]order.LID, 0, 2*len(chain)+2)
	lids = append(lids, img.tagLID[img.startPos[target]-1])
	for _, e := range chain {
		lids = append(lids, e.Start, e.End)
	}
	lids = append(lids, img.elems[target].Start)
	var prev order.Label
	for i, lid := range lids {
		label, err := st.Lookup(lid)
		if err != nil {
			return fmt.Errorf("acknowledged label (LID %d) is missing: %w", lid, err)
		}
		if i > 0 && label <= prev {
			return fmt.Errorf("chain position %d of %d: label %d does not follow %d", i, len(lids), label, prev)
		}
		prev = label
	}
	return nil
}
