package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"
)

// HistSnapshot is a point-in-time copy of one histogram. Counts[i] holds
// observations <= Bounds[i]; Counts[len(Bounds)] is the overflow bucket.
type HistSnapshot struct {
	Bounds []uint64
	Counts []uint64
	Sum    uint64
}

// Total returns the number of observations.
func (h HistSnapshot) Total() uint64 {
	var t uint64
	for _, c := range h.Counts {
		t += c
	}
	return t
}

// Sub returns the bucket-wise difference h - old (the observations made
// between the two snapshots), saturating at zero per bucket.
func (h HistSnapshot) Sub(old HistSnapshot) HistSnapshot {
	out := HistSnapshot{Bounds: h.Bounds, Counts: make([]uint64, len(h.Counts)), Sum: satSub(h.Sum, old.Sum)}
	for i := range h.Counts {
		ov := uint64(0)
		if i < len(old.Counts) {
			ov = old.Counts[i]
		}
		out.Counts[i] = satSub(h.Counts[i], ov)
	}
	return out
}

// Quantile estimates the q-quantile (q in [0, 1]) from the bucket counts,
// returning the upper bound of the bucket containing the quantile (the
// largest finite bound for overflow observations). Returns 0 for an empty
// histogram.
func (h HistSnapshot) Quantile(q float64) uint64 {
	total := h.Total()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// Nearest-rank: the smallest rank whose cumulative share reaches q.
	rank := uint64(q * float64(total))
	if float64(rank) < q*float64(total) {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i, c := range h.Counts {
		cum += c
		if cum >= rank {
			if i < len(h.Bounds) {
				return h.Bounds[i]
			}
			break
		}
	}
	if len(h.Bounds) > 0 {
		return h.Bounds[len(h.Bounds)-1]
	}
	return 0
}

// OpSnapshot is a point-in-time copy of one per-operation series.
type OpSnapshot struct {
	Op      string
	Count   uint64
	Errors  uint64
	Latency HistSnapshot // nanoseconds
	Reads   HistSnapshot // block reads per op
	Writes  HistSnapshot // block writes per op
}

// LatencyTotal returns the cumulative wall time of the series.
func (o OpSnapshot) LatencyTotal() time.Duration { return time.Duration(o.Latency.Sum) }

// Snapshot is a consistent-enough (per-counter atomic) copy of a
// registry's state, the programmatic form of the /metrics exposition.
type Snapshot struct {
	Schemes  []string
	Ops      map[string]OpSnapshot
	Counters map[string]uint64
	// Phases holds the phase-latency histograms (nanoseconds), keyed by
	// row ("insert", "lookup", ..., "wal") then phase name. Only
	// rows and phases with at least one observation appear.
	Phases map[string]map[string]HistSnapshot
	// Gauges holds the structural health samples of every registered
	// collector, evaluated at snapshot time (nil when none are registered).
	Gauges []GaugeValue
}

func snapHist(h *hist) HistSnapshot {
	n := len(h.bounds) + 1
	s := HistSnapshot{
		Bounds: h.bounds,
		Counts: make([]uint64, n),
		Sum:    h.sum.Load(),
	}
	for i := 0; i < n; i++ {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// Snapshot copies the registry's current state.
func (r *Registry) Snapshot() Snapshot { return r.snapshot(false) }

// snapshot is Snapshot with the gauges gathered as gatherGauges(inOp).
func (r *Registry) snapshot(inOp bool) Snapshot {
	s := Snapshot{
		Ops:      make(map[string]OpSnapshot, numOps),
		Counters: make(map[string]uint64, numCounters),
	}
	if r == nil {
		return s
	}
	s.Schemes = r.Schemes()
	for op := Op(0); op < numOps; op++ {
		series := &r.ops[op]
		s.Ops[op.String()] = OpSnapshot{
			Op:      op.String(),
			Count:   series.count.Load(),
			Errors:  series.errors.Load(),
			Latency: snapHist(&series.latency),
			Reads:   snapHist(&series.reads),
			Writes:  snapHist(&series.writes),
		}
	}
	for c := Counter(0); c < numCounters; c++ {
		s.Counters[c.String()] = r.counters[c].Load()
	}
	s.Phases = make(map[string]map[string]HistSnapshot)
	for row := 0; row < numPhaseRows; row++ {
		for ph := Phase(0); ph < numPhases; ph++ {
			h := &r.phases[row][ph]
			hs := snapHist(h)
			if hs.Total() == 0 {
				continue
			}
			rn := phaseRowName(row)
			if s.Phases[rn] == nil {
				s.Phases[rn] = make(map[string]HistSnapshot)
			}
			s.Phases[rn][ph.String()] = hs
		}
	}
	s.Gauges = r.gatherGauges(inOp)
	return s
}

// escapeLabel escapes a label value for the Prometheus text exposition
// format, which recognizes exactly three escapes inside label values:
// backslash, double quote, and newline. (fmt's %q is not equivalent: it
// emits Go escapes like \t and é that Prometheus parsers reject.)
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	b.Grow(len(v) + 2)
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(v[i])
		}
	}
	return b.String()
}

// countingWriter tracks bytes written for the io.WriterTo contract.
type countingWriter struct {
	w   io.Writer
	n   int64
	err error
}

func (cw *countingWriter) printf(format string, args ...any) {
	if cw.err != nil {
		return
	}
	n, err := fmt.Fprintf(cw.w, format, args...)
	cw.n += int64(n)
	cw.err = err
}

// secs renders a nanosecond quantity as seconds for Prometheus.
func secs(ns uint64) string {
	return strconv.FormatFloat(float64(ns)/1e9, 'g', -1, 64)
}

// writeOpHist emits one histogram family with an op label. unit selects
// bound rendering: "s" converts nanosecond bounds to seconds.
func writeOpHist(cw *countingWriter, name, help, unit string, sel func(*opSeries) *hist, r *Registry) {
	cw.printf("# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	for op := Op(0); op < numOps; op++ {
		h := sel(&r.ops[op])
		var cum uint64
		for i, b := range h.bounds {
			cum += h.counts[i].Load()
			le := strconv.FormatUint(b, 10)
			if unit == "s" {
				le = secs(b)
			}
			cw.printf("%s_bucket{op=\"%s\",le=\"%s\"} %d\n", name, escapeLabel(op.String()), le, cum)
		}
		cum += h.counts[len(h.bounds)].Load()
		cw.printf("%s_bucket{op=\"%s\",le=\"+Inf\"} %d\n", name, escapeLabel(op.String()), cum)
		if unit == "s" {
			cw.printf("%s_sum{op=\"%s\"} %s\n", name, escapeLabel(op.String()), secs(h.sum.Load()))
		} else {
			cw.printf("%s_sum{op=\"%s\"} %d\n", name, escapeLabel(op.String()), h.sum.Load())
		}
		cw.printf("%s_count{op=\"%s\"} %d\n", name, escapeLabel(op.String()), cum)
	}
}

// WriteTo writes the registry's state in the Prometheus text exposition
// format (version 0.0.4). It implements io.WriterTo.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	cw := &countingWriter{w: w}
	if r == nil {
		return 0, nil
	}

	cw.printf("# HELP boxes_store_info Labeling schemes reporting into this registry.\n# TYPE boxes_store_info gauge\n")
	for _, s := range r.Schemes() {
		cw.printf("boxes_store_info{scheme=\"%s\"} 1\n", escapeLabel(s))
	}

	cw.printf("# HELP boxes_ops_total Operations executed, by operation kind.\n# TYPE boxes_ops_total counter\n")
	for op := Op(0); op < numOps; op++ {
		cw.printf("boxes_ops_total{op=\"%s\"} %d\n", escapeLabel(op.String()), r.ops[op].count.Load())
	}
	cw.printf("# HELP boxes_op_errors_total Operations that returned an error, by operation kind.\n# TYPE boxes_op_errors_total counter\n")
	for op := Op(0); op < numOps; op++ {
		cw.printf("boxes_op_errors_total{op=\"%s\"} %d\n", escapeLabel(op.String()), r.ops[op].errors.Load())
	}

	writeOpHist(cw, "boxes_op_duration_seconds", "Wall time per operation.", "s",
		func(s *opSeries) *hist { return &s.latency }, r)
	writeOpHist(cw, "boxes_op_reads", "Block reads charged per operation.", "",
		func(s *opSeries) *hist { return &s.reads }, r)
	writeOpHist(cw, "boxes_op_writes", "Block writes charged per operation.", "",
		func(s *opSeries) *hist { return &s.writes }, r)

	// Phase-latency histograms: where each operation's wall time went. Only
	// series with observations are emitted (the full op x phase matrix is
	// mostly empty), under a single # TYPE announcement.
	cw.printf("# HELP boxes_phase_duration_seconds Operation wall time attributed by phase.\n# TYPE boxes_phase_duration_seconds histogram\n")
	for row := 0; row < numPhaseRows; row++ {
		for ph := Phase(0); ph < numPhases; ph++ {
			h := &r.phases[row][ph]
			var cum uint64
			var counts [maxBuckets]uint64
			for i := 0; i <= len(h.bounds); i++ {
				counts[i] = h.counts[i].Load()
				cum += counts[i]
			}
			if cum == 0 {
				continue
			}
			labels := fmt.Sprintf("op=\"%s\",phase=\"%s\"", escapeLabel(phaseRowName(row)), escapeLabel(ph.String()))
			cum = 0
			for i, b := range h.bounds {
				cum += counts[i]
				cw.printf("boxes_phase_duration_seconds_bucket{%s,le=\"%s\"} %d\n", labels, secs(b), cum)
			}
			cum += counts[len(h.bounds)]
			cw.printf("boxes_phase_duration_seconds_bucket{%s,le=\"+Inf\"} %d\n", labels, cum)
			cw.printf("boxes_phase_duration_seconds_sum{%s} %s\n", labels, secs(h.sum.Load()))
			cw.printf("boxes_phase_duration_seconds_count{%s} %d\n", labels, cum)
		}
	}

	// Structural counters, one # TYPE line per metric family. Several
	// schemes (and several stores) may report into one registry; families
	// must still be announced exactly once, so the values of any family
	// already emitted are folded into the first announcement.
	typed := make(map[string]bool, numCounters)
	for c := Counter(0); c < numCounters; c++ {
		name := c.String()
		if typed[name] {
			continue
		}
		typed[name] = true
		total := r.counters[c].Load()
		for d := c + 1; d < numCounters; d++ {
			if d.String() == name {
				total += r.counters[d].Load()
			}
		}
		cw.printf("# TYPE %s counter\n%s %d\n", name, name, total)
	}

	// The amortized-cost ledger: every structural event and block I/O
	// attributed to the (scheme, op) that caused it. Only nonzero cells are
	// emitted; the conservation invariant ties their sums to the structural
	// counters above.
	if cells := r.LedgerCells(); len(cells) > 0 {
		cw.printf("# HELP boxes_cost_total Structural and I/O cost attributed to the causing (scheme, op).\n# TYPE boxes_cost_total counter\n")
		for _, c := range cells {
			cw.printf("boxes_cost_total{scheme=\"%s\",op=\"%s\",kind=\"%s\"} %d\n",
				escapeLabel(c.Scheme), escapeLabel(c.Op), escapeLabel(c.Kind), c.Value)
		}
		cw.printf("# HELP boxes_cost_ops_total Completed operations per ledger (scheme, op) row.\n# TYPE boxes_cost_ops_total counter\n")
		for _, oc := range r.LedgerOpCounts() {
			cw.printf("boxes_cost_ops_total{scheme=\"%s\",op=\"%s\"} %d\n",
				escapeLabel(oc.Scheme), escapeLabel(oc.Op), oc.Count)
		}
	}

	// Scrape-time structural gauges: every registered collector walks its
	// structure now, and samples sharing a family are grouped under a
	// single # TYPE line regardless of which scheme reported them.
	for _, fam := range groupGauges(r.GatherGauges()) {
		if fam.help != "" {
			cw.printf("# HELP %s %s\n", fam.name, fam.help)
		}
		cw.printf("# TYPE %s gauge\n", fam.name)
		for _, g := range fam.samples {
			cw.printf("%s%s %s\n", fam.name, g.LabelString(), strconv.FormatFloat(g.Value, 'g', -1, 64))
		}
	}
	return cw.n, cw.err
}

// String renders the registry in Prometheus text format (for debugging).
func (r *Registry) String() string {
	var b strings.Builder
	r.WriteTo(&b)
	return b.String()
}

// FormatCounters renders the non-zero structural counters of a snapshot as
// "name=value" pairs sorted by name — the compact form the CLIs print.
func (s Snapshot) FormatCounters() string {
	names := make([]string, 0, len(s.Counters))
	for name, v := range s.Counters {
		if v != 0 {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, name := range names {
		parts[i] = fmt.Sprintf("%s=%d", name, s.Counters[name])
	}
	return strings.Join(parts, " ")
}

var _ io.WriterTo = (*Registry)(nil)
