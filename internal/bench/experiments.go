package bench

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"slices"

	"boxes/internal/bbox"
	"boxes/internal/naive"
	"boxes/internal/obs"
	"boxes/internal/order"
	"boxes/internal/reflog"
	"boxes/internal/wbox"
	"boxes/internal/xmlgen"
)

// RunConcentrated executes the concentrated-insertion workload over the
// full scheme matrix (Figures 5 and 6).
func RunConcentrated(cfg Config) ([]SchemeRun, error) { return runRows(cfg, concentratedRows(cfg)) }

func concentratedRows(cfg Config) []row {
	return rowsOf(UpdateSchemes(cfg.NaiveKs), "", func(l order.Labeler, rec *Recorder) error {
		return Concentrated(l, rec, cfg.BaseElems, cfg.InsertElems)
	})
}

// RunScattered executes the scattered-insertion workload (Figure 7).
func RunScattered(cfg Config) ([]SchemeRun, error) { return runRows(cfg, scatteredRows(cfg)) }

// scatteredRows always includes naive-1: the paper's Figure 7 highlights
// it, whose gaps are too small even for evenly spread insertions.
func scatteredRows(cfg Config) []row {
	ks := cfg.NaiveKs
	if !slices.Contains(ks, 1) {
		ks = append([]int{1}, ks...)
	}
	return rowsOf(UpdateSchemes(ks), "", func(l order.Labeler, rec *Recorder) error {
		return Scattered(l, rec, cfg.BaseElems, cfg.InsertElems)
	})
}

// RunXMark executes the XMark document-order build-up (Figures 8 and 9).
func RunXMark(cfg Config) ([]SchemeRun, error) { return runRows(cfg, xmarkRows(cfg)) }

func xmarkRows(cfg Config) []row {
	return rowsOf(UpdateSchemes(cfg.NaiveKs), "", func(l order.Labeler, rec *Recorder) error {
		rec.Skip = cfg.XMarkPrime
		return XMarkDocOrder(l, rec, cfg.XMarkElems, cfg.Seed)
	})
}

// Fig5 prints the amortized update cost under concentrated insertion.
func Fig5(w io.Writer, cfg Config) error {
	runs, err := RunConcentrated(cfg)
	if err != nil {
		return err
	}
	WriteAvgTable(w, fmt.Sprintf("Figure 5: amortized update cost, concentrated insertion (base=%d, inserts=%d)", cfg.BaseElems, cfg.InsertElems), runs)
	return nil
}

// Fig6 prints the update cost distribution under concentrated insertion.
func Fig6(w io.Writer, cfg Config) error {
	runs, err := RunConcentrated(cfg)
	if err != nil {
		return err
	}
	WriteCCDF(w, fmt.Sprintf("Figure 6: distribution of update cost, concentrated insertion (base=%d, inserts=%d)", cfg.BaseElems, cfg.InsertElems), runs)
	return nil
}

// Fig7 prints the amortized update cost under scattered insertion.
func Fig7(w io.Writer, cfg Config) error {
	runs, err := RunScattered(cfg)
	if err != nil {
		return err
	}
	WriteAvgTable(w, fmt.Sprintf("Figure 7: amortized update cost, scattered insertion (base=%d, inserts=%d)", cfg.BaseElems, cfg.InsertElems), runs)
	return nil
}

// Fig8 prints the amortized update cost under the XMark build-up.
func Fig8(w io.Writer, cfg Config) error {
	runs, err := RunXMark(cfg)
	if err != nil {
		return err
	}
	WriteAvgTable(w, fmt.Sprintf("Figure 8: amortized update cost, XMark insertion (elements=%d, primed=%d)", cfg.XMarkElems, cfg.XMarkPrime), runs)
	return nil
}

// Fig9 prints the update cost distribution under the XMark build-up.
func Fig9(w io.Writer, cfg Config) error {
	runs, err := RunXMark(cfg)
	if err != nil {
		return err
	}
	WriteCCDF(w, fmt.Sprintf("Figure 9: distribution of update cost, XMark insertion (elements=%d, primed=%d)", cfg.XMarkElems, cfg.XMarkPrime), runs)
	return nil
}

// QueryCost reproduces the in-text "Query performance" discussion of
// Section 7: per-scheme label lookup cost (including the LIDF
// indirection), start/end pair lookup cost, and tree heights.
func QueryCost(w io.Writer, cfg Config) error {
	specs := []SchemeSpec{WBoxSpec(), WBoxOSpec(), BBoxSpec(), BBoxOSpec(), NaiveSpec(16)}
	tags := xmlgen.XMark(cfg.XMarkElems, cfg.Seed).TagStream()
	// Elements whose start and end tags are far apart have their two
	// records on different leaves — the case W-BOX-O optimizes. Rank
	// elements by tag distance and keep the widest.
	startPos := make(map[int32]int)
	var wide []int32
	for i, t := range tags {
		if t.Start {
			startPos[t.Elem] = i
		} else if i-startPos[t.Elem] > 200 {
			wide = append(wide, t.Elem)
		}
	}
	fmt.Fprintf(w, "# Query performance: label lookup cost in I/Os (doc=%d elements, no caching)\n", len(tags)/2)
	fmt.Fprintf(w, "%-12s %7s %14s %13s %18s\n", "scheme", "height", "avg_lookup_io", "avg_pair_io", "avg_pair_io_wide")
	for _, spec := range specs {
		l, store, err := spec.New(cfg.BlockSize)
		if err != nil {
			return err
		}
		cfg.attach(spec.Name, store)
		var elems []order.ElemLIDs
		if err := cfg.instrument(spec.Name, store, obs.OpBulkLoad, func() error {
			var err error
			elems, err = l.BulkLoad(tags)
			return err
		}); err != nil {
			return fmt.Errorf("%s: %w", spec.Name, err)
		}
		rng := rand.New(rand.NewSource(cfg.Seed))
		const samples = 500
		store.ResetStats()
		for i := 0; i < samples; i++ {
			e := elems[rng.Intn(len(elems))]
			lid := e.Start
			if rng.Intn(2) == 0 {
				lid = e.End
			}
			if err := cfg.instrument(spec.Name, store, obs.OpLookup, func() error {
				if nl, ok := l.(*naive.Labeler); ok {
					_, err := nl.LookupBig(lid)
					return err
				}
				_, err := l.Lookup(lid)
				return err
			}); err != nil {
				return err
			}
		}
		single := float64(store.Stats().Total()) / samples
		store.ResetStats()
		for i := 0; i < samples; i++ {
			e := elems[rng.Intn(len(elems))]
			if wl, ok := l.(*wbox.Labeler); ok {
				if _, _, err := wl.LookupPair(e.Start, e.End); err != nil {
					return err
				}
				continue
			}
			if bl, ok := l.(*bbox.Labeler); ok {
				if _, _, err := bl.LookupPair(e.Start, e.End); err != nil {
					return err
				}
				continue
			}
			if nl, ok := l.(*naive.Labeler); ok {
				if _, err := nl.LookupBig(e.Start); err != nil {
					return err
				}
				if _, err := nl.LookupBig(e.End); err != nil {
					return err
				}
				continue
			}
			if _, err := l.Lookup(e.Start); err != nil {
				return err
			}
			if _, err := l.Lookup(e.End); err != nil {
				return err
			}
		}
		pair := float64(store.Stats().Total()) / samples
		pairWide := 0.0
		if len(wide) > 0 {
			store.ResetStats()
			n := 0
			for i := 0; i < samples; i++ {
				e := elems[wide[rng.Intn(len(wide))]]
				if wl, ok := l.(*wbox.Labeler); ok {
					if _, _, err := wl.LookupPair(e.Start, e.End); err != nil {
						return err
					}
				} else if bl, ok := l.(*bbox.Labeler); ok {
					if _, _, err := bl.LookupPair(e.Start, e.End); err != nil {
						return err
					}
				} else if nl, ok := l.(*naive.Labeler); ok {
					if _, err := nl.LookupBig(e.Start); err != nil {
						return err
					}
					if _, err := nl.LookupBig(e.End); err != nil {
						return err
					}
				} else {
					if _, err := l.Lookup(e.Start); err != nil {
						return err
					}
					if _, err := l.Lookup(e.End); err != nil {
						return err
					}
				}
				n++
			}
			pairWide = float64(store.Stats().Total()) / float64(n)
		}
		fmt.Fprintf(w, "%-12s %7d %14.2f %13.2f %18.2f\n", spec.Name, l.Height(), single, pair, pairWide)
	}
	return nil
}

// BulkVsElement reproduces the "Other findings" comparison of Section 7:
// inserting the concentrated subtree element-at-a-time versus with the
// bulk subtree-insert operation, for W-BOX and B-BOX (total I/Os).
func BulkVsElement(w io.Writer, cfg Config) error {
	fmt.Fprintf(w, "# Bulk vs element-at-a-time subtree insertion (base=%d, subtree=%d elements)\n", cfg.BaseElems, cfg.InsertElems)
	fmt.Fprintf(w, "%-12s %18s %14s %9s\n", "scheme", "element_total_io", "bulk_total_io", "speedup")
	for _, spec := range []SchemeSpec{WBoxSpec(), BBoxSpec()} {
		// Element at a time: the concentrated sequence itself.
		l1, store1, err := spec.New(cfg.BlockSize)
		if err != nil {
			return err
		}
		cfg.attach(spec.Name, store1)
		rec := NewRecorder(store1).Observe(cfg.Metrics, spec.Name, obs.OpInsert)
		if err := Concentrated(l1, rec, cfg.BaseElems, cfg.InsertElems); err != nil {
			return err
		}
		elementTotal := rec.Total()

		// Bulk: the same subtree inserted in one operation.
		l2, store2, err := spec.New(cfg.BlockSize)
		if err != nil {
			return err
		}
		cfg.attach(spec.Name, store2)
		var elems []order.ElemLIDs
		if err := cfg.instrument(spec.Name, store2, obs.OpBulkLoad, func() error {
			var err error
			elems, err = l2.BulkLoad(xmlgen.TwoLevel(cfg.BaseElems).TagStream())
			return err
		}); err != nil {
			return err
		}
		sub := xmlgen.TwoLevel(cfg.InsertElems).TagStream()
		store2.ResetStats()
		if err := cfg.instrument(spec.Name, store2, obs.OpSubtreeInsert, func() error {
			_, err := l2.InsertSubtreeBefore(elems[0].End, sub)
			return err
		}); err != nil {
			return err
		}
		bulkTotal := store2.Stats().Total()
		speedup := float64(elementTotal) / float64(bulkTotal)
		fmt.Fprintf(w, "%-12s %18d %14d %8.1fx\n", spec.Name, elementTotal, bulkTotal, speedup)
	}
	return nil
}

// LabelBits reproduces the label-length discussion: measured bits per
// label after the concentrated stress against the analytic bounds of
// Theorems 4.4 and 5.1 and the machine-word limit.
func LabelBits(w io.Writer, cfg Config) error {
	runs, err := RunConcentrated(cfg)
	if err != nil {
		return err
	}
	n := float64(2 * (cfg.BaseElems + cfg.InsertElems))
	logN := math.Log2(n)
	fmt.Fprintf(w, "# Label length in bits after concentrated insertion (N=%d labels)\n", int(n))
	fmt.Fprintf(w, "%-12s %9s %12s %16s\n", "scheme", "measured", "theory_bound", "fits_64bit_word")
	for _, r := range runs {
		bound := "-"
		switch r.Scheme {
		case "W-BOX", "W-BOX-O":
			p, err := wbox.NewParams(cfg.BlockSize, wbox.Basic, false)
			if err != nil {
				return err
			}
			a, k, b := float64(p.A), float64(p.K), float64(p.B)
			v := logN + 1 + math.Ceil(math.Log2(2+4/a)*(math.Log2(n/k)/math.Log2(a))+math.Log2(b))
			bound = fmt.Sprintf("%.0f", v)
		case "B-BOX", "B-BOX-O":
			logB := math.Log2(float64(cfg.BlockSize / 8))
			v := logN + 1 + math.Floor((logN-1)/(logB-1))
			bound = fmt.Sprintf("%.0f", v)
		}
		fits := "yes"
		if r.LabelBits > 64 {
			fits = "no"
		}
		fmt.Fprintf(w, "%-12s %9d %12s %16s\n", r.Scheme, r.LabelBits, bound, fits)
	}
	return nil
}

// CachingLogging reproduces Section 6 as an ablation (the paper gives no
// figure): a read-heavy workload over W-BOX and B-BOX under no caching,
// basic caching, and caching+logging with several log sizes, reporting the
// average lookup I/O and hit composition.
func CachingLogging(w io.Writer, cfg Config) error {
	type mode struct {
		name string
		k    int // -1 = off, 0 = basic, >0 = logged
	}
	modes := []mode{{"off", -1}, {"basic", 0}, {"log-8", 8}, {"log-64", 64}, {"log-512", 512}}
	tags := xmlgen.XMark(cfg.XMarkElems, cfg.Seed).TagStream()
	const lookupsPerUpdate = 50
	rounds := 200
	fmt.Fprintf(w, "# Section 6: lookup cost under caching/logging (doc=%d elements, %d lookups per update)\n", len(tags)/2, lookupsPerUpdate)
	fmt.Fprintf(w, "%-12s %-8s %14s %7s %9s %6s\n", "scheme", "mode", "avg_lookup_io", "fresh%", "replayed%", "miss%")
	for _, spec := range []SchemeSpec{WBoxSpec(), BBoxSpec()} {
		for _, m := range modes {
			l, store, err := spec.New(cfg.BlockSize)
			if err != nil {
				return err
			}
			cfg.attach(spec.Name, store)
			var elems []order.ElemLIDs
			if err := cfg.instrument(spec.Name, store, obs.OpBulkLoad, func() error {
				var err error
				elems, err = l.BulkLoad(tags)
				return err
			}); err != nil {
				return err
			}
			var cache *reflog.Cache
			if m.k >= 0 {
				cache = reflog.NewCache(l, reflog.NewLog(m.k))
			}
			rng := rand.New(rand.NewSource(cfg.Seed))
			// Build warm refs for a sample of labels.
			refs := make([]reflog.Ref, 1000)
			for i := range refs {
				e := elems[rng.Intn(len(elems))]
				lid := e.Start
				if rng.Intn(2) == 0 {
					lid = e.End
				}
				if cache != nil {
					r, err := cache.NewRef(lid)
					if err != nil {
						return err
					}
					refs[i] = r
				} else {
					refs[i] = reflog.Ref{LID: lid}
				}
			}
			// Interleaved phase: a steady update stream with reads in
			// between ages the caches the way a real workload would.
			for round := 0; round < rounds; round++ {
				anchor := elems[rng.Intn(len(elems))]
				if _, err := l.InsertElementBefore(anchor.End); err != nil {
					return err
				}
				for q := 0; q < lookupsPerUpdate; q++ {
					ref := &refs[rng.Intn(len(refs))]
					if cache != nil {
						if _, _, err := cache.Lookup(ref); err != nil {
							return err
						}
					} else if _, err := l.Lookup(ref.LID); err != nil {
						return err
					}
				}
			}
			// Measurement pass: lookups only, immediately after the last
			// update, so the averages isolate the read-side cost.
			store.ResetStats()
			n := 0
			for i := range refs {
				ref := &refs[i]
				if err := cfg.instrument(spec.Name, store, obs.OpLookup, func() error {
					if cache != nil {
						_, _, err := cache.Lookup(ref)
						return err
					}
					_, err := l.Lookup(ref.LID)
					return err
				}); err != nil {
					return err
				}
				n++
			}
			avg := float64(store.Stats().Total()) / float64(n)
			var fresh, repl, miss float64
			if cache != nil {
				tot := float64(cache.Fresh + cache.Replayed + cache.Misses)
				fresh = 100 * float64(cache.Fresh) / tot
				repl = 100 * float64(cache.Replayed) / tot
				miss = 100 * float64(cache.Misses) / tot
			} else {
				miss = 100
			}
			fmt.Fprintf(w, "%-12s %-8s %14.2f %7.1f %9.1f %6.1f\n", spec.Name, m.name, avg, fresh, repl, miss)
		}
	}
	return nil
}
