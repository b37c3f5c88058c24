// Package bench is the experiment harness that regenerates every table and
// figure of the paper's evaluation (Section 7). Each experiment drives the
// labeling schemes through a workload while recording the block-I/O cost
// of every operation, then reports averages (the "amortized update cost"
// figures) and cost distributions (the CCDF figures).
package bench

import (
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"boxes/internal/bbox"
	"boxes/internal/naive"
	"boxes/internal/obs"
	"boxes/internal/order"
	"boxes/internal/pager"
	"boxes/internal/wbox"
)

// Config holds the experiment parameters. The paper's scale (2,000,000
// base elements + 500,000 insertions; XMark with 336,242 elements primed by
// 200,000) is Default().Scale(100).
type Config struct {
	BlockSize   int
	BaseElems   int   // elements in the two-level base document
	InsertElems int   // elements inserted by the update experiments
	XMarkElems  int   // document size for the XMark experiment
	XMarkPrime  int   // insertions excluded from XMark measurements
	Seed        int64 // XMark generator seed
	NaiveKs     []int // naive-k variants to include

	// Metrics, when non-nil, aggregates every scheme instance's
	// measurements (structural counters, I/O histograms) across the whole
	// run, so a benchmark process can expose one /metrics endpoint.
	Metrics *obs.Registry
}

// attach routes a freshly created scheme store into the run's registry.
func (c Config) attach(name string, store *pager.Store) {
	if c.Metrics == nil {
		return
	}
	store.SetObserver(c.Metrics)
	c.Metrics.SetScheme(name)
}

// instrument brackets fn as one operation of kind op in the run's registry,
// charging it the store's I/O delta. With no registry it just runs fn.
func (c Config) instrument(scheme string, store *pager.Store, op obs.Op, fn func() error) error {
	if c.Metrics == nil {
		return fn()
	}
	st := store.Stats()
	ctx := c.Metrics.Begin(scheme, op, st.Reads, st.Writes)
	err := fn()
	st = store.Stats()
	c.Metrics.End(ctx, st.Reads, st.Writes, err)
	return err
}

// Default returns the laptop-scale configuration (1/100 of the paper's).
func Default() Config {
	return Config{
		BlockSize:   pager.DefaultBlockSize,
		BaseElems:   20000,
		InsertElems: 5000,
		XMarkElems:  3362,
		XMarkPrime:  2000,
		Seed:        1,
		NaiveKs:     []int{4, 16, 64, 256},
	}
}

// Scale multiplies the workload sizes by f (Scale(100) reproduces the
// paper's sizes).
func (c Config) Scale(f int) Config {
	c.BaseElems *= f
	c.InsertElems *= f
	c.XMarkElems *= f
	c.XMarkPrime *= f
	return c
}

// SchemeSpec names a labeling scheme and instantiates it over a fresh
// in-memory store: caching off, exactly the paper's cost model.
type SchemeSpec struct {
	Name string
	New  func(blockSize int) (order.Labeler, *pager.Store, error)
}

// memSpec builds a SchemeSpec whose New allocates a fresh MemStore and
// delegates to newOn.
func memSpec(name string, newOn func(store *pager.Store, bs int) (order.Labeler, error)) SchemeSpec {
	return SchemeSpec{
		Name: name,
		New: func(bs int) (order.Labeler, *pager.Store, error) {
			store := pager.NewMemStore(bs)
			l, err := newOn(store, bs)
			return l, store, err
		},
	}
}

// WBoxSpec is the basic W-BOX.
func WBoxSpec() SchemeSpec {
	return memSpec("W-BOX", func(store *pager.Store, bs int) (order.Labeler, error) {
		p, err := wbox.NewParams(bs, wbox.Basic, false)
		if err != nil {
			return nil, err
		}
		return wbox.New(store, p)
	})
}

// WBoxOSpec is W-BOX-O (pair-optimized leaves).
func WBoxOSpec() SchemeSpec {
	return memSpec("W-BOX-O", func(store *pager.Store, bs int) (order.Labeler, error) {
		p, err := wbox.NewParams(bs, wbox.PairOptimized, false)
		if err != nil {
			return nil, err
		}
		return wbox.New(store, p)
	})
}

// BBoxSpec is the basic B-BOX.
func BBoxSpec() SchemeSpec {
	return memSpec("B-BOX", func(store *pager.Store, bs int) (order.Labeler, error) {
		p, err := bbox.NewParams(bs, false, false)
		if err != nil {
			return nil, err
		}
		return bbox.New(store, p)
	})
}

// BBoxOSpec is B-BOX-O (ordinal labeling support).
func BBoxOSpec() SchemeSpec {
	return memSpec("B-BOX-O", func(store *pager.Store, bs int) (order.Labeler, error) {
		p, err := bbox.NewParams(bs, true, false)
		if err != nil {
			return nil, err
		}
		return bbox.New(store, p)
	})
}

// NaiveSpec is naive-k.
func NaiveSpec(k int) SchemeSpec {
	return memSpec(fmt.Sprintf("naive-%d", k), func(store *pager.Store, bs int) (order.Labeler, error) {
		return naive.New(store, naive.Config{K: k})
	})
}

// UpdateSchemes is the scheme matrix of the update-cost figures.
func UpdateSchemes(naiveKs []int) []SchemeSpec {
	specs := []SchemeSpec{BBoxSpec(), BBoxOSpec(), WBoxSpec(), WBoxOSpec()}
	for _, k := range naiveKs {
		specs = append(specs, NaiveSpec(k))
	}
	return specs
}

// Recorder measures the block-I/O cost of individual operations.
type Recorder struct {
	store *pager.Store
	Skip  int // operations to exclude (the XMark priming prefix)

	reg       *obs.Registry
	scheme    string
	schemeIdx int // the scheme's ledger row in reg
	op        obs.Op

	seen  int
	costs []uint32
	total uint64
}

// NewRecorder wraps store.
func NewRecorder(store *pager.Store) *Recorder { return &Recorder{store: store} }

// Observe additionally records every Do into reg as an operation of kind
// op (typically OpInsert for the update workloads). Returns r for chaining.
func (r *Recorder) Observe(reg *obs.Registry, scheme string, op obs.Op) *Recorder {
	r.reg, r.scheme, r.op = reg, scheme, op
	r.schemeIdx = reg.SchemeIndex(scheme)
	return r
}

// Do runs op as one operation of the recorder's kind and records its I/O
// cost, unless it is still in the skip prefix.
func (r *Recorder) Do(op func() error) error {
	cost, err := r.bracket(r.op, op)
	if err != nil {
		return err
	}
	r.seen++
	if r.seen <= r.Skip {
		return nil
	}
	r.costs = append(r.costs, uint32(cost))
	r.total += cost
	return nil
}

// Bracket runs fn and records it into the registry as one operation of
// kind op, without entering the workload's cost distribution. Used for the
// setup phases (bulk loads) that the figures exclude.
func (r *Recorder) Bracket(op obs.Op, fn func() error) error {
	_, err := r.bracket(op, fn)
	return err
}

// bracket runs fn as one registry operation of kind op and returns its
// block I/Os. The pager records block_read/block_write under the writer-op
// row; whatever wall time it did not claim lands in the op's structure
// phase.
func (r *Recorder) bracket(op obs.Op, fn func() error) (uint64, error) {
	before := r.store.Stats()
	ctx := r.reg.Begin(r.scheme, op, before.Reads, before.Writes)
	r.reg.SetWriterCell(r.schemeIdx, op)
	phBefore := r.store.PhaseStats()
	start := time.Now()
	err := fn()
	elapsed := time.Since(start)
	r.reg.ClearWriterOp()
	after := r.store.Stats()
	r.reg.End(ctx, after.Reads, after.Writes, err)
	if r.reg != nil {
		if resid := int64(elapsed) - r.store.PhaseStats().Sub(phBefore).Total(); resid > 0 {
			r.reg.ObservePhase(op, obs.PhaseStructure, time.Duration(resid))
		}
	}
	return after.Sub(before).Total(), err
}

// N reports the number of recorded operations.
func (r *Recorder) N() int { return len(r.costs) }

// Total reports the summed I/O of recorded operations.
func (r *Recorder) Total() uint64 { return r.total }

// Avg reports the amortized cost (I/Os per recorded operation).
func (r *Recorder) Avg() float64 {
	if len(r.costs) == 0 {
		return 0
	}
	return float64(r.total) / float64(len(r.costs))
}

// Max reports the largest individual cost.
func (r *Recorder) Max() uint64 {
	var m uint32
	for _, c := range r.costs {
		if c > m {
			m = c
		}
	}
	return uint64(m)
}

// IOPercentile returns the p-th percentile of recorded per-op I/O costs.
func (r *Recorder) IOPercentile(p float64) uint64 {
	if len(r.costs) == 0 {
		return 0
	}
	sorted := append([]uint32(nil), r.costs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return uint64(sorted[percentileIndex(len(sorted), p)])
}

// percentileIndex maps percentile p to an index into a sorted sample of n
// (nearest-rank method).
func percentileIndex(n int, p float64) int {
	i := int(math.Ceil(p*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// CCDFPoint is one point of a cost distribution: the fraction of
// operations whose cost strictly exceeds Cost.
type CCDFPoint struct {
	Cost      uint64
	FracAbove float64
}

// CCDF returns the complementary cumulative distribution of recorded
// costs, one point per distinct cost, ascending — the form of Figures 6
// and 9.
func (r *Recorder) CCDF() []CCDFPoint {
	if len(r.costs) == 0 {
		return nil
	}
	sorted := append([]uint32(nil), r.costs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	n := float64(len(sorted))
	var out []CCDFPoint
	for i := 0; i < len(sorted); {
		j := i
		for j < len(sorted) && sorted[j] == sorted[i] {
			j++
		}
		out = append(out, CCDFPoint{Cost: uint64(sorted[i]), FracAbove: float64(len(sorted)-j) / n})
		i = j
	}
	return out
}

// SchemeRun is one scheme's outcome on one workload.
type SchemeRun struct {
	Scheme    string
	AvgIO     float64
	TotalIO   uint64
	MaxIO     uint64
	P99IO     uint64
	Ops       int
	Height    int
	LabelBits int
	Dist      []CCDFPoint

	// RelabelsPerInsert is the cost ledger's amortized relabeled records
	// per insert: the quantity the paper's bounds and the BKS lower bound
	// are about.
	RelabelsPerInsert float64
}

// WriteAvgTable prints the "amortized update cost" form of a figure.
func WriteAvgTable(w io.Writer, title string, runs []SchemeRun) {
	fmt.Fprintf(w, "# %s\n", title)
	fmt.Fprintf(w, "%-12s %12s %12s %8s %7s %10s\n", "scheme", "avg_io/op", "total_io", "max_io", "height", "label_bits")
	for _, r := range runs {
		fmt.Fprintf(w, "%-12s %12.2f %12d %8d %7d %10d\n", r.Scheme, r.AvgIO, r.TotalIO, r.MaxIO, r.Height, r.LabelBits)
	}
}

// WriteCCDF prints the distribution form of a figure: for each scheme the
// fraction of operations exceeding each cost (log-log in the paper).
func WriteCCDF(w io.Writer, title string, runs []SchemeRun) {
	fmt.Fprintf(w, "# %s\n", title)
	fmt.Fprintf(w, "%-12s %10s %14s\n", "scheme", "cost>", "frac_ops")
	for _, r := range runs {
		for _, p := range decimate(r.Dist, 24) {
			fmt.Fprintf(w, "%-12s %10d %14.6f\n", r.Scheme, p.Cost, p.FracAbove)
		}
	}
}

// decimate thins a CCDF to at most n points while keeping endpoints.
func decimate(pts []CCDFPoint, n int) []CCDFPoint {
	if len(pts) <= n {
		return pts
	}
	out := make([]CCDFPoint, 0, n)
	step := float64(len(pts)-1) / float64(n-1)
	for i := 0; i < n; i++ {
		out = append(out, pts[int(float64(i)*step+0.5)])
	}
	return out
}
