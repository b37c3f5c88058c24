package obs

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// GaugeValue is one structural health sample: a metric family name, an
// ordered label set, and the value measured at collection time. Unlike the
// registry's counters — which accumulate events as they happen — gauges
// describe the *current shape* of a structure (tree height, occupancy,
// balance slack, fragmentation) and are evaluated only when someone asks.
type GaugeValue struct {
	Name   string      `json:"name"`
	Help   string      `json:"help,omitempty"`
	Labels [][2]string `json:"labels,omitempty"` // ordered key/value pairs
	Value  float64     `json:"value"`
}

// G builds a GaugeValue from alternating label key/value arguments:
//
//	G("boxes_tree_height", "Tree height in levels.", 3, "scheme", "W-BOX")
//
// An odd trailing key is ignored.
func G(name, help string, value float64, kv ...string) GaugeValue {
	g := GaugeValue{Name: name, Help: help, Value: value}
	for i := 0; i+1 < len(kv); i += 2 {
		g.Labels = append(g.Labels, [2]string{kv[i], kv[i+1]})
	}
	return g
}

// WithLabel returns a copy of gs with an extra label prepended to every
// value. The core layer uses it to stamp a store's scheme name onto the
// gauges its structures report.
func WithLabel(gs []GaugeValue, key, value string) []GaugeValue {
	out := make([]GaugeValue, len(gs))
	for i, g := range gs {
		labels := make([][2]string, 0, len(g.Labels)+1)
		labels = append(labels, [2]string{key, value})
		labels = append(labels, g.Labels...)
		g.Labels = labels
		out[i] = g
	}
	return out
}

// LabelString renders the label set in Prometheus selector form,
// `{k="v",...}`, with values escaped; empty labels render as "".
func (g GaugeValue) LabelString() string {
	if len(g.Labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, kv := range g.Labels {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, kv[0], escapeLabel(kv[1]))
	}
	b.WriteByte('}')
	return b.String()
}

// Key returns the gauge's fully qualified identity (name + rendered
// labels).
func (g GaugeValue) Key() string { return g.Name + g.LabelString() }

// Collector is a source of scrape-time gauges. Every structure in the
// repository (the BOXes, the LIDF, the modification log, the pager)
// implements it: collection walks the live structure, so values are always
// current, and structures that are expensive to walk pay that cost only
// when someone is looking.
//
// Collectors are invoked on the scraping goroutine. Structures in this
// repository follow a single-writer discipline, so register a collector
// for a live store only if scrapes are serialized against updates (see
// core.Store.RegisterHealthGauges) or the store is quiescent; collectors
// must tolerate failure mid-walk (e.g. injected I/O errors) by returning
// what they have, typically with a *_walk_errors gauge recording the
// interruption.
type Collector interface {
	CollectGauges() []GaugeValue
}

// InOpCollector is a Collector that takes a lock of its own per scrape and
// so has a second entry point for gauges gathered on an operation's own
// goroutine — a flight-recorder dump at OpEnd — where the operation already
// holds that lock and taking it again would deadlock.
type InOpCollector interface {
	Collector
	CollectGaugesInOp() []GaugeValue
}

// CollectorFunc adapts a function to the Collector interface.
type CollectorFunc func() []GaugeValue

// CollectGauges implements Collector.
func (f CollectorFunc) CollectGauges() []GaugeValue { return f() }

// RegisterCollector adds a scrape-time gauge source to the registry. The
// registry never copies gauge values between scrapes: each exposition (or
// Snapshot, or crash dump) re-evaluates every collector.
func (r *Registry) RegisterCollector(c Collector) {
	if r == nil || c == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.collectors = append(r.collectors, c)
}

// GatherGauges evaluates every registered collector, in registration
// order, and returns the concatenated samples.
func (r *Registry) GatherGauges() []GaugeValue { return r.gatherGauges(false) }

// gatherGauges is GatherGauges; inOp selects CollectGaugesInOp on the
// collectors that have it.
func (r *Registry) gatherGauges(inOp bool) []GaugeValue {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	cs := make([]Collector, len(r.collectors))
	copy(cs, r.collectors)
	r.mu.Unlock()
	var out []GaugeValue
	for _, c := range cs {
		if ic, ok := c.(InOpCollector); ok && inOp {
			out = append(out, ic.CollectGaugesInOp()...)
		} else {
			out = append(out, c.CollectGauges()...)
		}
	}
	return out
}

// OccupancyBounds are the bucket bounds shared by the per-level
// node-occupancy distributions every tree structure exports, expressed as
// fill ratios (records or children held over the node's capacity).
var OccupancyBounds = []float64{0.25, 0.5, 0.75, 0.9, 1}

// BucketGauges renders a set of observations as a cumulative distribution
// in gauge form: one sample per bound carrying an `le` label (plus a final
// +Inf bucket), each counting the observations <= that bound. The extra
// label pairs in kv are attached to every sample. Gauge-form buckets let
// scrape-time distributions (occupancy, gap sizes) ride the same Collector
// path as scalar gauges.
func BucketGauges(name, help string, bounds []float64, values []float64, kv ...string) []GaugeValue {
	out := make([]GaugeValue, 0, len(bounds)+1)
	for _, b := range bounds {
		var n int
		for _, v := range values {
			if v <= b {
				n++
			}
		}
		le := strconv.FormatFloat(b, 'g', -1, 64)
		out = append(out, G(name, help, float64(n), append([]string{"le", le}, kv...)...))
	}
	out = append(out, G(name, help, float64(len(values)), append([]string{"le", "+Inf"}, kv...)...))
	return out
}

// gaugeFamily groups samples sharing a metric family name for exposition.
type gaugeFamily struct {
	name    string
	help    string
	samples []GaugeValue
}

// groupGauges buckets samples by family name, preserving first-seen order
// of families and sample order within each family, so that the exposition
// emits exactly one # TYPE line per family no matter how many schemes (or
// structures) report into the registry.
func groupGauges(gs []GaugeValue) []gaugeFamily {
	index := make(map[string]int, len(gs))
	var fams []gaugeFamily
	for _, g := range gs {
		i, ok := index[g.Name]
		if !ok {
			i = len(fams)
			index[g.Name] = i
			fams = append(fams, gaugeFamily{name: g.Name, help: g.Help})
		}
		if fams[i].help == "" {
			fams[i].help = g.Help
		}
		fams[i].samples = append(fams[i].samples, g)
	}
	return fams
}

// SortGauges orders samples by family name, then by rendered labels —
// the deterministic order used by reports and tests.
func SortGauges(gs []GaugeValue) {
	sort.SliceStable(gs, func(i, j int) bool {
		if gs[i].Name != gs[j].Name {
			return gs[i].Name < gs[j].Name
		}
		return gs[i].LabelString() < gs[j].LabelString()
	})
}
