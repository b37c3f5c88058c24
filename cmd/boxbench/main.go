// Command boxbench regenerates the tables and figures of the paper's
// evaluation (Section 7). Each experiment reports block-I/O costs measured
// with caching off, exactly like the paper.
//
// Usage:
//
//	boxbench -exp fig5            # one experiment
//	boxbench -exp all -scale 10   # everything, at 10x the default size
//
// Experiments: fig5 fig6 fig7 fig8 fig9 tquery tbulk tbits tcache tfan
// tblock adv all. The paper's own sizes correspond to -scale 100. The I/O
// counts these tables print at -base 2000 -inserts 500 -xmark 1000
// -xprime 200 are pinned exactly by internal/bench TestPaperCostGates.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"boxes/internal/bench"
	"boxes/internal/obs"
)

func main() {
	var (
		exp       = flag.String("exp", "all", "experiment id: fig5 fig6 fig7 fig8 fig9 tquery tbulk tbits tcache tfan tblock adv all")
		scale     = flag.Int("scale", 1, "workload scale factor (100 = the paper's sizes)")
		blockSize = flag.Int("block", 8192, "block size in bytes")
		seed      = flag.Int64("seed", 1, "XMark generator seed")
		base      = flag.Int("base", 0, "override: base document elements")
		inserts   = flag.Int("inserts", 0, "override: inserted elements")
		xmark     = flag.Int("xmark", 0, "override: XMark document elements")
		xprime    = flag.Int("xprime", 0, "override: XMark priming prefix excluded from measurement")
		metrics   = flag.String("metrics", "", "serve /metrics and /debug/pprof on this address (\":0\" picks a port)")
		trace     = flag.String("trace", "", "record spans and write a Chrome trace-event JSON file (open in Perfetto)")
		linger    = flag.Bool("linger", false, "with -metrics: keep serving after the experiments until interrupted")
	)
	flag.Parse()

	cfg := bench.Default().Scale(*scale)
	cfg.BlockSize = *blockSize
	cfg.Seed = *seed
	if *base > 0 {
		cfg.BaseElems = *base
	}
	if *inserts > 0 {
		cfg.InsertElems = *inserts
	}
	if *xmark > 0 {
		// A shrunk document also drops the default priming prefix, which
		// could otherwise exceed the whole workload; set -xprime to restore.
		cfg.XMarkElems = *xmark
		cfg.XMarkPrime = 0
	}
	if *xprime > 0 {
		cfg.XMarkPrime = *xprime
	}

	if *metrics != "" || *trace != "" {
		cfg.Metrics = obs.NewRegistry()
	}
	if *metrics != "" {
		ln, err := obs.Serve(*metrics, cfg.Metrics)
		if err != nil {
			fmt.Fprintf(os.Stderr, "boxbench: metrics: %v\n", err)
			os.Exit(1)
		}
		defer ln.Close()
		fmt.Printf("metrics : http://%s/metrics (pprof under /debug/pprof/)\n", ln.Addr())
	}
	if *trace != "" {
		cfg.Metrics.Tracer().Start(obs.TraceOptions{})
		defer func() {
			f, err := os.Create(*trace)
			if err == nil {
				err = obs.WriteChromeTrace(f, cfg.Metrics.Tracer())
				if cerr := f.Close(); err == nil {
					err = cerr
				}
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "boxbench: trace: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("trace   : wrote %s (load in Perfetto / chrome://tracing)\n", *trace)
		}()
	}

	type experiment struct {
		id  string
		run func(io.Writer, bench.Config) error
	}
	all := []experiment{
		{"fig5", bench.Fig5},
		{"fig6", bench.Fig6},
		{"fig7", bench.Fig7},
		{"fig8", bench.Fig8},
		{"fig9", bench.Fig9},
		{"tquery", bench.QueryCost},
		{"tbulk", bench.BulkVsElement},
		{"tbits", bench.LabelBits},
		{"tcache", bench.CachingLogging},
		{"tfan", bench.RelaxedFanout},
		{"tblock", bench.BlockSizeSweep},
		{"adv", bench.Adv},
	}
	// Each experiment builds and drops its own stores, so each one is a
	// clean shutdown boundary: a SIGINT/SIGTERM finishes the experiment in
	// flight and skips the rest.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	interrupted := func() bool {
		select {
		case sig := <-sigs:
			fmt.Printf("shutdown: caught %v, stopping after the completed experiment\n", sig)
			return true
		default:
			return false
		}
	}

	ran := false
	for _, e := range all {
		if *exp != "all" && *exp != e.id {
			continue
		}
		if interrupted() {
			os.Exit(0)
		}
		ran = true
		start := time.Now()
		if err := e.run(os.Stdout, cfg); err != nil {
			fmt.Fprintf(os.Stderr, "boxbench: %s: %v\n", e.id, err)
			os.Exit(1)
		}
		fmt.Printf("(%s completed in %v)\n\n", e.id, time.Since(start).Round(time.Millisecond))
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "boxbench: unknown experiment %q\n", *exp)
		os.Exit(2)
	}
	if *metrics != "" && *linger {
		fmt.Println("lingering: metrics endpoint stays up until interrupted")
		sig := <-sigs
		fmt.Printf("shutdown: caught %v\n", sig)
	}
}
