package naive

import (
	"boxes/internal/obs"
	"boxes/internal/order"
)

// gapLog2Bounds buckets gap sizes by their base-2 logarithm: the initial
// gaps are 2^K and midpoint insertion halves them, so log2(gap) is exactly
// "insertions this gap can still absorb". The upper bounds cover naive-1
// through naive-256.
var gapLog2Bounds = []float64{0, 1, 2, 4, 8, 16, 32, 64, 128, 256}

// CollectGauges implements obs.Collector: label-space utilization against
// the 2^CapacityBits ceiling and the distribution of remaining gap sizes —
// the quantity whose exhaustion triggers the naive scheme's global
// relabelings. Reading the gaps streams the whole LIDF, so collection costs
// O(N/B) I/Os; run it on a quiescent structure.
func (l *Labeler) CollectGauges() []obs.GaugeValue {
	gs := []obs.GaugeValue{
		obs.G("boxes_tree_height", "Tree height in levels (the naive scheme has no tree).", 1),
		obs.G("boxes_labels_live", "Live labels in the structure.", float64(len(l.dir))),
		obs.G("boxes_label_space_utilization",
			"Fraction of the 2^CapacityBits label capacity in use.",
			float64(len(l.dir))/float64(uint64(1)<<uint(l.cfg.CapacityBits))),
	}
	gs = append(gs, l.file.CollectGauges()...)

	// Gap distribution: log2 of every live record's gap field. A mass of
	// small gaps means relabeling is imminent.
	var logs []float64
	errs := 0
	func() {
		r := l.store.BeginRead()
		defer r.End()
		for lid := l.head; lid != order.NilLID; lid = l.dir[lid].next {
			_, gap, gerr := l.readRecord(r, lid)
			if gerr != nil {
				errs++
				continue
			}
			lg := gap.BitLen() - 1
			if lg < 0 {
				lg = 0
			}
			logs = append(logs, float64(lg))
		}
	}()
	gs = append(gs, obs.BucketGauges("naive_gap_log2",
		"Distribution of log2(gap) over live labels; a gap of 2^g absorbs g midpoint insertions.",
		gapLog2Bounds, logs)...)
	gs = append(gs, obs.G("boxes_health_walk_errors",
		"Records the health walk failed to read (non-zero means partial gauges).",
		float64(errs)))
	return gs
}

var _ obs.Collector = (*Labeler)(nil)
