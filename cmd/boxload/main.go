// Command boxload bulk-loads an XML document into a labeling scheme,
// verifies the structure, reports labeling statistics, and optionally runs
// containment-join or twig queries over the labels.
//
// Usage:
//
//	boxload -scheme wbox doc.xml
//	boxload -scheme bbox -join open_auction,increase doc.xml
//	boxload -scheme wboxo -twig '//open_auction//bidder/increase' doc.xml
//	boxgen -elements 50000 | boxload -scheme bbox -ordinal -
//	boxgen -elements 2000 | boxload -scheme bbox -save doc.box -durable -batch 64 -
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"boxes/internal/core"
	"boxes/internal/fsck"
	"boxes/internal/obs"
	"boxes/internal/pager"
	"boxes/internal/query"
	"boxes/internal/xmlgen"
)

func main() {
	var (
		scheme   = flag.String("scheme", "wbox", "labeling scheme: wbox | wboxo | bbox | naive (in memory only)")
		ordinal  = flag.Bool("ordinal", false, "enable ordinal labeling support")
		naiveK   = flag.Int("k", 16, "gap bits for -scheme naive")
		block    = flag.Int("block", 8192, "block size in bytes")
		join     = flag.String("join", "", "containment join: ancestorName,descendantName")
		twig     = flag.String("twig", "", "linear twig pattern, e.g. //open_auction//bidder/increase")
		pattern  = flag.String("pattern", "", "branching pattern, e.g. //open_auction[//bidder/increase][/seller]")
		check    = flag.Bool("check", true, "verify structural invariants after loading")
		saveTo   = flag.String("save", "", "persist the labeling store to this file after loading")
		runFsck  = flag.Bool("fsck", false, "with -save: close the store and run an offline fsck over the file")
		durable  = flag.Bool("durable", false, "with -save: route every mutation through the write-ahead log")
		batch    = flag.Int("batch", 0, "load element-wise in ApplyBatch transactions of N inserts (0 = one bulk load)")
		metrics  = flag.String("metrics", "", "serve /metrics and /debug/pprof on this address (\":0\" picks a port)")
		trace    = flag.String("trace", "", "record spans and write a Chrome trace-event JSON file (open in Perfetto)")
		slowOp   = flag.Duration("slow-op", 0, "log operations slower than this and keep their span trees (e.g. 5ms)")
		crashDir = flag.String("crashdir", "", "write flight-recorder crash dumps to this directory on op errors")
		linger   = flag.Bool("linger", false, "with -metrics: keep serving after the work until interrupted")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: boxload [flags] <file.xml | ->")
		os.Exit(2)
	}

	var in io.Reader = os.Stdin
	if name := flag.Arg(0); name != "-" {
		f, err := os.Open(name)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	}
	tree, err := xmlgen.Parse(in)
	if err != nil {
		fatal(err)
	}

	opts := core.Options{BlockSize: *block, Ordinal: *ordinal, NaiveK: *naiveK, CrashDir: *crashDir}
	switch *scheme {
	case "wbox":
		opts.Scheme = core.SchemeWBox
	case "wboxo":
		opts.Scheme = core.SchemeWBoxO
	case "bbox":
		opts.Scheme = core.SchemeBBox
	case "naive":
		opts.Scheme = core.SchemeNaive
	default:
		fatal(fmt.Errorf("unknown scheme %q", *scheme))
	}
	if opts.Scheme == core.SchemeNaive && *saveTo != "" {
		fatal(fmt.Errorf("-save: %w", core.ErrNotPersistent))
	}
	if *runFsck && *saveTo == "" {
		fatal(fmt.Errorf("-fsck needs -save (there is no file to check otherwise)"))
	}
	if *durable && *saveTo == "" {
		fatal(fmt.Errorf("-durable needs -save (the WAL lives next to the store file)"))
	}
	opts.Durable = *durable
	var fb *pager.FileBackend
	if *saveTo != "" {
		var err error
		fb, err = pager.CreateFile(*saveTo, *block)
		if err != nil {
			fatal(err)
		}
		opts.Backend = fb
	}
	if *metrics != "" || *trace != "" {
		opts.Metrics = obs.NewRegistry()
	}
	if *metrics != "" {
		ln, err := obs.Serve(*metrics, opts.Metrics)
		if err != nil {
			fatal(err)
		}
		defer ln.Close()
		fmt.Printf("metrics : http://%s/metrics (pprof under /debug/pprof/)\n", ln.Addr())
	}
	if *trace != "" {
		opts.Metrics.Tracer().Start(obs.TraceOptions{SlowOp: *slowOp})
	}
	opts.SlowOpThreshold = *slowOp
	st, err := core.Open(opts)
	if err != nil {
		fatal(err)
	}
	if *trace != "" {
		defer func() {
			f, err := os.Create(*trace)
			if err == nil {
				err = obs.WriteChromeTrace(f, st.MetricsRegistry().Tracer())
				if cerr := f.Close(); err == nil {
					err = cerr
				}
			}
			if err != nil {
				fatal(fmt.Errorf("trace: %w", err))
			}
			fmt.Printf("trace   : wrote %s (load in Perfetto / chrome://tracing)\n", *trace)
		}()
	}
	start := time.Now()
	var doc *core.Document
	if *batch > 0 {
		doc, err = st.LoadBatched(tree, *batch)
	} else {
		doc, err = st.Load(tree)
	}
	if err != nil {
		fatal(err)
	}
	loadIO := st.Stats()
	if *batch > 0 {
		fmt.Printf("mode    : element-wise load, ApplyBatch transactions of %d inserts\n", *batch)
	}
	fmt.Printf("loaded  : %d elements (%d labels) in %v\n", tree.Elements(), st.Count(), time.Since(start).Round(time.Millisecond))
	fmt.Printf("scheme  : %s  height=%d  label_bits=%d  blocks=%d\n", opts.Scheme, st.Height(), st.LabelBits(), st.Blocks())
	fmt.Printf("load i/o: %v\n", loadIO)
	if *durable {
		ws := fb.WALStats()
		fmt.Printf("wal     : %d commits, %d fsyncs, %d checkpoints\n", ws.Commits, ws.Syncs, ws.Checkpoints)
	}

	if *check {
		if err := st.CheckInvariants(); err != nil {
			fatal(fmt.Errorf("invariant check failed: %w", err))
		}
		fmt.Println("check   : all structural invariants hold")
	}

	if *join != "" {
		parts := strings.SplitN(*join, ",", 2)
		if len(parts) != 2 {
			fatal(fmt.Errorf("-join wants ancestorName,descendantName"))
		}
		st.ResetStats()
		anc, err := doc.SpansOf(parts[0])
		if err != nil {
			fatal(err)
		}
		desc, err := doc.SpansOf(parts[1])
		if err != nil {
			fatal(err)
		}
		pairs := query.ContainmentJoin(anc, desc)
		fmt.Printf("join    : %s (%d) x %s (%d) -> %d pairs, %v\n",
			parts[0], len(anc), parts[1], len(desc), len(pairs), st.Stats())
	}

	if *twig != "" {
		st.ResetStats()
		elems, err := doc.LabeledElems()
		if err != nil {
			fatal(err)
		}
		matches := query.Match(elems, query.ParseTwig(*twig))
		fmt.Printf("twig    : %s -> %d matches, %v\n", *twig, len(matches), st.Stats())
	}

	if *pattern != "" {
		pt, err := query.ParsePattern(*pattern)
		if err != nil {
			fatal(err)
		}
		st.ResetStats()
		elems, err := doc.LabeledElems()
		if err != nil {
			fatal(err)
		}
		matches := query.MatchPattern(elems, pt)
		fmt.Printf("pattern : %s -> %d matches, %v\n", pt, len(matches), st.Stats())
	}

	if *saveTo != "" {
		if err := st.Save(); err != nil {
			fatal(err)
		}
		fmt.Printf("saved   : %s (%d blocks); resume with boxes.OpenExisting\n", *saveTo, st.Blocks())
		if *runFsck {
			if err := fb.Close(); err != nil {
				fatal(err)
			}
			rep, err := fsck.Check(*saveTo, fsck.Options{CrashDir: *crashDir})
			if err != nil {
				fatal(fmt.Errorf("fsck: %w", err))
			}
			for _, p := range rep.Problems {
				fmt.Printf("fsck    : %s\n", p)
			}
			if !rep.Clean() {
				fatal(fmt.Errorf("fsck: %s is UNCLEAN (%d problems)", *saveTo, len(rep.Problems)))
			}
			fmt.Printf("fsck    : clean (%d allocated, %d free, %d orphans)\n",
				rep.Allocated, rep.FreeCount, len(rep.Orphans))
		}
	}

	if *metrics != "" {
		// The store is quiescent now, so scrape-time health walks cannot
		// race the single-writer ops above.
		st.RegisterHealthGauges()
		if *linger {
			fmt.Println("lingering: metrics endpoint (with health gauges) stays up until interrupted")
			ch := make(chan os.Signal, 1)
			signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
			sig := <-ch
			fmt.Printf("shutdown: caught %v, draining commits and closing the store\n", sig)
		}
	}
	// -fsck already closed the backend to hand the file to the checker;
	// otherwise shut down cleanly: checkpoint, sync and release the files.
	if !(*saveTo != "" && *runFsck) {
		if err := st.Close(); err != nil {
			fatal(fmt.Errorf("close: %w", err))
		}
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "boxload: %v\n", err)
	os.Exit(1)
}
