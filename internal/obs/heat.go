// Label-space and block heat maps.
//
// Two fixed-resolution (256-bucket) histogram spaces answer "WHERE does
// the work land":
//
//   - The label space maps insertion density over the 64-bit label key
//     space, so a skewed workload shows up as a hot insertion band.
//   - The block space maps read/write heat over pager block ids, fed from
//     the same CostIO call that feeds the ledger.
//
// Both spaces auto-scale by range doubling: when a key exceeds the covered
// range, the bucket width doubles and every series folds in place
// (counts[j] = counts[2j] + counts[2j+1]). All series of a space share one
// scale, so cross-series bucket comparison is always valid. The fold bumps
// the shift before rewriting counts; a sample racing the fold may land one
// bucket off or be overwritten — a bounded, documented loss (single-
// threaded use is exact), which keeps the sample fast path to two atomic
// adds with no lock.
package obs

import (
	"sync"
	"sync/atomic"
)

// heatBuckets is the fixed resolution of every heat space.
const heatBuckets = 256

// heatSpace is one auto-scaling heat-map space: parallel series of 256
// atomic buckets sharing a single power-of-two bucket width (1<<shift).
// It is embedded in Registry and initialized in place (initHeat), never
// copied.
type heatSpace struct {
	name        string
	seriesNames []string
	mu          sync.Mutex // serializes folds and snapshots
	shift       atomic.Uint32
	series      [][heatBuckets]atomic.Uint64
	samples     []atomic.Uint64
}

func (h *heatSpace) initHeat(name string, seriesNames []string) {
	h.name = name
	h.seriesNames = seriesNames
	h.series = make([][heatBuckets]atomic.Uint64, len(seriesNames))
	h.samples = make([]atomic.Uint64, len(seriesNames))
}

// Series indices of the label heat space.
const (
	heatSeriesInserts = iota
	numLabelSeries
)

// Series indices of the block heat space.
const (
	heatSeriesBlockReads = iota
	heatSeriesBlockWrites
	numBlockSeries
)

var labelSeriesNames = [numLabelSeries]string{
	heatSeriesInserts: "inserts",
}

var blockSeriesNames = [numBlockSeries]string{
	heatSeriesBlockReads:  "reads",
	heatSeriesBlockWrites: "writes",
}

// HeatLabelInsert samples one insertion at the given label key.
func (r *Registry) HeatLabelInsert(label uint64) {
	if r == nil {
		return
	}
	r.heatLabel.sample(heatSeriesInserts, label)
}

// HeatSeriesSnap is one series of a heat-space snapshot.
type HeatSeriesSnap struct {
	Name    string   `json:"name"`
	Samples uint64   `json:"samples"`
	Counts  []uint64 `json:"counts"`
}

// HeatSpaceSnap is a point-in-time copy of one heat space. Bucket i covers
// keys [i*BucketWidth, (i+1)*BucketWidth).
type HeatSpaceSnap struct {
	Space       string           `json:"space"`
	Shift       uint32           `json:"shift"`
	BucketWidth uint64           `json:"bucket_width"`
	Buckets     int              `json:"buckets"`
	Series      []HeatSeriesSnap `json:"series"`
}

// snapshot copies the space under the fold lock, so the scale and counts
// are mutually consistent.
func (h *heatSpace) snapshot() HeatSpaceSnap {
	h.mu.Lock()
	defer h.mu.Unlock()
	shift := h.shift.Load()
	out := HeatSpaceSnap{
		Space:       h.name,
		Shift:       shift,
		BucketWidth: uint64(1) << shift,
		Buckets:     heatBuckets,
	}
	for i := range h.series {
		s := HeatSeriesSnap{
			Name:    h.seriesNames[i],
			Samples: h.samples[i].Load(),
			Counts:  make([]uint64, heatBuckets),
		}
		for j := 0; j < heatBuckets; j++ {
			s.Counts[j] = h.series[i][j].Load()
		}
		out.Series = append(out.Series, s)
	}
	return out
}

// heatGauges summarizes one space for /metrics: per series, the sample
// count, the share of samples in the hottest bucket (skew measure), and
// the number of occupied buckets (spread measure).
func (h *heatSpace) heatGauges() []GaugeValue {
	snap := h.snapshot()
	var out []GaugeValue
	for _, s := range snap.Series {
		var total, hottest uint64
		occupied := 0
		for _, c := range s.Counts {
			total += c
			if c > hottest {
				hottest = c
			}
			if c > 0 {
				occupied++
			}
		}
		if total == 0 {
			continue
		}
		out = append(out,
			G("boxes_heat_samples", "Heat-map samples recorded.", float64(total),
				"space", snap.Space, "series", s.Name),
			G("boxes_heat_hot_bucket_share", "Share of samples in the hottest bucket (1/256 = uniform, 1 = a single hot spot).",
				float64(hottest)/float64(total), "space", snap.Space, "series", s.Name),
			G("boxes_heat_occupied_buckets", "Number of nonzero heat buckets (out of 256).", float64(occupied),
				"space", snap.Space, "series", s.Name),
		)
	}
	return out
}

// HeatDebugPayload is the /debug/heat JSON document: both heat spaces, the
// full cost ledger, per-scheme op counts, the amortized ratios, and a
// live (relaxed) conservation check.
type HeatDebugPayload struct {
	Label          HeatSpaceSnap   `json:"label_space"`
	Block          HeatSpaceSnap   `json:"block_space"`
	Ledger         []LedgerCell    `json:"ledger"`
	Ops            []LedgerOpCount `json:"ops"`
	Amortized      []GaugeValue    `json:"amortized"`
	ConservationOK bool            `json:"conservation_ok"`
	ConservationEr string          `json:"conservation_error,omitempty"`
}

// HeatDebug assembles the /debug/heat payload.
func (r *Registry) HeatDebug() HeatDebugPayload {
	var out HeatDebugPayload
	if r == nil {
		return out
	}
	out.Label = r.heatLabel.snapshot()
	out.Block = r.heatBlock.snapshot()
	out.Ledger = r.LedgerCells()
	out.Ops = r.LedgerOpCounts()
	out.Amortized = r.amortizedGaugesAll()
	if err := r.CheckLedger(false); err != nil {
		out.ConservationEr = err.Error()
	} else {
		out.ConservationOK = true
	}
	return out
}

// sample adds one observation at key to the given series, doubling the
// space's range first when the key falls outside it.
func (h *heatSpace) sample(series int, key uint64) {
	sh := h.shift.Load()
	if key>>sh >= heatBuckets {
		h.grow(key)
		sh = h.shift.Load()
	}
	b := key >> sh
	if b >= heatBuckets {
		// A concurrent grow raced our reload; clamp rather than drop.
		b = heatBuckets - 1
	}
	h.series[series][b].Add(1)
	h.samples[series].Add(1)
}

// grow doubles the bucket width until key fits, folding every series in
// place. The shift is bumped before the fold so concurrent samples use the
// new scale immediately; a sample landing in a bucket mid-fold may be
// overwritten (bounded loss, see the package comment).
func (h *heatSpace) grow(key uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for {
		sh := h.shift.Load()
		if key>>sh < heatBuckets {
			return
		}
		h.shift.Store(sh + 1)
		for s := range h.series {
			c := &h.series[s]
			for j := 0; j < heatBuckets/2; j++ {
				c[j].Store(c[2*j].Load() + c[2*j+1].Load())
			}
			for j := heatBuckets / 2; j < heatBuckets; j++ {
				c[j].Store(0)
			}
		}
	}
}
