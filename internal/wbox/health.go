package wbox

import (
	"boxes/internal/obs"
	"boxes/internal/pager"
)

// CollectGauges implements obs.Collector: it walks the whole tree and
// reports the structural health of the W-BOX — height, per-level node
// counts and occupancy distributions, the minimum weight-balance slack per
// level (distance to the Section 4 split and merge thresholds), label-space
// utilization, and the LIDF's fragmentation. The walk reads every block,
// like CheckInvariants, but as read ops: run it where a lookup could run
// (behind the caller's read lock) and expect O(N/B) I/Os.
func (l *Labeler) CollectGauges() []obs.GaugeValue {
	gs := []obs.GaugeValue{
		obs.G("boxes_tree_height", "Tree height in levels (0 = empty).", float64(l.height)),
		obs.G("boxes_labels_live", "Live labels in the structure.", float64(l.live)),
		obs.G("boxes_labels_dead", "Tombstoned labels awaiting global rebuild.", float64(l.dead)),
	}
	if l.height > 0 {
		if r, ok := l.p.rangeLen(l.height - 1); ok && r > 0 {
			gs = append(gs, obs.G("boxes_label_space_utilization",
				"Fraction of the root's label range occupied by records (live and dead).",
				float64(l.live+l.dead)/float64(r)))
		}
	}
	gs = append(gs, l.file.CollectGauges()...)
	if l.root == pager.NilBlock {
		return gs
	}

	t := obs.NewTreeStats(l.height)
	if root, err := l.readNode(l.root); err != nil {
		t.AddError()
	} else {
		l.healthNode(root, true, t)
	}
	return append(gs, t.Gauges()...)
}

// healthNode records one node's statistics and recurses into its children.
func (l *Labeler) healthNode(n *node, isRoot bool, t *obs.TreeStats) {
	lv := int(n.level)
	var occ float64
	if n.isLeaf() {
		occ = float64(len(n.recs)) / float64(l.p.LeafCap)
	} else {
		occ = float64(len(n.ents)) / float64(l.p.B)
	}
	// Slack to the nearest weight threshold: a node splits when its weight
	// reaches weightLimit and (unless it is the root) violates balance when
	// it sinks to weightMin, so the min of both distances is how close the
	// node is to triggering structural work.
	weight := n.weight()
	slack, haveSlack := uint64(0), false
	if limit, ok := l.p.weightLimit(lv); ok {
		if weight < limit {
			slack = limit - weight
		}
		haveSlack = true
		if !isRoot {
			if m := l.p.weightMin(lv); weight > m {
				if d := weight - m; d < slack {
					slack = d
				}
			} else {
				slack = 0
			}
		}
	}
	t.Observe(lv, occ, slack, haveSlack)
	if n.isLeaf() {
		return
	}
	for i := range n.ents {
		child, err := l.readNode(n.ents[i].child)
		if err != nil {
			t.AddError()
			continue
		}
		l.healthNode(child, false, t)
	}
}

var _ obs.Collector = (*Labeler)(nil)

// WalkBlocks calls visit for every store block the structure occupies:
// the LIDF's extents and every tree node reachable from the root. fsck
// uses it to cross-check on-disk reachability against the free list.
func (l *Labeler) WalkBlocks(visit func(pager.BlockID) error) error {
	if err := l.file.WalkBlocks(visit); err != nil {
		return err
	}
	if l.root == pager.NilBlock {
		return nil
	}
	return l.walkNodeBlocks(l.root, visit)
}

func (l *Labeler) walkNodeBlocks(blk pager.BlockID, visit func(pager.BlockID) error) error {
	if err := visit(blk); err != nil {
		return err
	}
	n, err := l.readNode(blk)
	if err != nil {
		return err
	}
	if n.isLeaf() {
		return nil
	}
	for i := range n.ents {
		if err := l.walkNodeBlocks(n.ents[i].child, visit); err != nil {
			return err
		}
	}
	return nil
}
