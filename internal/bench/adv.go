package bench

import (
	"fmt"
	"io"
	"strings"
	"text/tabwriter"

	"boxes/internal/order"
	"boxes/internal/workload"
)

// The adversarial experiment: every scheme of the difftest matrix under
// the adaptive BKS adversaries of internal/workload, next to its own
// seeded uniform-insert control. Each variant grows the document from
// empty by element inserts only — the amortized regime of the paper's
// bounds and of the lower-bound constructions — so the cost-ledger
// relabels-per-insert of the three variants are directly comparable: same
// op class, same op count, no bulk-load costs mixed in. TestPaperCostGates
// holds the headline result of the lower-bound papers to absolute bounds:
// under the bisection adversary naive-k's relabeling collapses to
// whole-document sweeps (a floor), while W-BOX and B-BOX stay within a
// constant factor of their uniform-control numbers (ceilings) — the
// paper's "any insertion sequence" claim, made a tier-1 test.

// advNaiveK is the fixed-gap baseline the adversary attacks, matching the
// naive-8 world of the differential harness.
const advNaiveK = 8

// advVariant names one workload column of the adv experiment: run rows
// are "<scheme>" (bisect), "<scheme>/front", "<scheme>/uniform".
type advVariant struct {
	suffix string
	src    func(cfg Config) workload.Source
}

func advVariants() []advVariant {
	return []advVariant{
		{"", func(Config) workload.Source { return workload.NewBisect(64) }},
		{"/front", func(Config) workload.Source { return workload.NewFrontPack(64) }},
		{"/uniform", func(cfg Config) workload.Source { return workload.NewUniform(cfg.Seed) }},
	}
}

// advInserts is the document size an adv variant grows to from empty.
func advInserts(cfg Config) int { return cfg.BaseElems + cfg.InsertElems }

// RunAdversary executes the adversarial workloads over the scheme matrix.
func RunAdversary(cfg Config) ([]SchemeRun, error) { return runRows(cfg, advRows(cfg)) }

// advRows grows a document from empty under each variant's source — a
// fresh one per row, since the adaptive sources keep state: every op is an
// element insert whose position the source picks from the labeler's
// current labels, and every op is metered.
func advRows(cfg Config) []row {
	specs := []SchemeSpec{WBoxSpec(), WBoxOSpec(), BBoxSpec(), BBoxOSpec(), NaiveSpec(advNaiveK)}
	var rows []row
	for _, vt := range advVariants() {
		rows = append(rows, rowsOf(specs, vt.suffix, func(l order.Labeler, rec *Recorder) error {
			return workload.Run(workload.NewDoc(l), vt.src(cfg), advInserts(cfg), func(_ workload.Op, apply func() error) error {
				return rec.Do(apply)
			})
		})...)
	}
	return rows
}

// Adv prints the adversarial-workload experiment: the usual I/O table
// plus the collapse table — amortized relabels/insert per scheme under
// each adversary, with the bisect/uniform ratio that TestPaperCostGates
// bounds.
func Adv(w io.Writer, cfg Config) error {
	runs, err := RunAdversary(cfg)
	if err != nil {
		return err
	}
	WriteAvgTable(w, fmt.Sprintf("Adversarial insertion (BKS lower-bound workloads; %d element inserts from empty)", advInserts(cfg)), runs)

	byRow := make(map[string]float64, len(runs))
	var schemes []string
	for _, r := range runs {
		byRow[r.Scheme] = r.RelabelsPerInsert
		if !strings.Contains(r.Scheme, "/") {
			schemes = append(schemes, r.Scheme)
		}
	}
	fmt.Fprintf(w, "\nAmortized relabeled records per insert (cost ledger)\n")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "scheme\tbks-bisect\tbks-front\tuniform\tbisect/uniform\n")
	for _, s := range schemes {
		bis, fr, uni := byRow[s], byRow[s+"/front"], byRow[s+"/uniform"]
		ratio := "inf"
		if uni > 0 {
			ratio = fmt.Sprintf("%.1fx", bis/uni)
		}
		fmt.Fprintf(tw, "%s\t%.2f\t%.2f\t%.2f\t%s\n", s, bis, fr, uni, ratio)
	}
	return tw.Flush()
}
