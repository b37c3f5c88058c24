package bbox

import (
	"boxes/internal/obs"
	"boxes/internal/pager"
)

// CollectGauges implements obs.Collector: it walks the whole tree and
// reports the structural health of the B-BOX — height, per-level node
// counts and occupancy distributions, minimum occupancy slack (distance to
// the Section 5 split and underflow thresholds), and label-packing
// headroom — plus the LIDF's gauges. Like CheckInvariants it reads every
// block, but as read ops: run it where a lookup could run (behind the
// caller's read lock) and expect O(N/B) I/Os.
func (l *Labeler) CollectGauges() []obs.GaugeValue {
	gs := []obs.GaugeValue{
		obs.G("boxes_tree_height", "Tree height in levels (0 = empty).", float64(l.height)),
		obs.G("boxes_labels_live", "Live labels in the structure.", float64(l.count)),
	}
	if max := l.p.maxPackedHeight(); max > 0 && l.height > 0 {
		// A B-BOX has no label range to exhaust; the scarce resource is the
		// 64-bit packing budget, compBits per level.
		gs = append(gs, obs.G("boxes_label_space_utilization",
			"Fraction of the 64-bit label packing budget consumed by the tree height.",
			float64(l.height)/float64(max)))
		gs = append(gs, obs.G("bbox_pack_headroom_levels",
			"Levels the tree can still grow before packed labels overflow 64 bits.",
			float64(max-l.height)))
	}
	gs = append(gs, l.file.CollectGauges()...)
	if l.root == pager.NilBlock {
		return gs
	}

	t := obs.NewTreeStats(l.height)
	if root, err := l.readNode(l.root); err != nil {
		t.AddError()
	} else {
		l.healthNode(root, l.height-1, true, t)
	}
	return append(gs, t.Gauges()...)
}

// healthNode records one node's statistics and recurses. B-BOX nodes do
// not store their level, so it is threaded down the walk (leaves at 0).
func (l *Labeler) healthNode(n *node, level int, isRoot bool, t *obs.TreeStats) {
	capacity, minOcc := l.p.Fanout, l.p.MinFanout
	if n.leaf {
		capacity, minOcc = l.p.LeafCap, l.p.MinLeaf
	}
	count := n.count()
	occ := float64(count) / float64(capacity)
	// Slack to the nearest occupancy threshold: a node splits when it
	// reaches capacity and (unless it is the root) underflows below minOcc.
	slack := uint64(capacity - count)
	if !isRoot {
		if count > minOcc {
			if d := uint64(count - minOcc); d < slack {
				slack = d
			}
		} else {
			slack = 0
		}
	}
	t.Observe(level, occ, slack, true)
	if n.leaf {
		return
	}
	for i := range n.ents {
		child, err := l.readNode(n.ents[i].child)
		if err != nil {
			t.AddError()
			continue
		}
		l.healthNode(child, level-1, false, t)
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
	if n.leaf {
		return nil
	}
	for i := range n.ents {
		if err := l.walkNodeBlocks(n.ents[i].child, visit); err != nil {
			return err
		}
	}
	return nil
}
