// Command boxserve serves a durable labeling store over the native
// length-prefixed protocol: one process owns the store file and its WAL,
// and any number of boxclient connections get ordered-label operations
// with per-request deadlines, bounded admission, group-committed writes,
// and a graceful drain on SIGTERM (in-flight ops finish and ack; new work
// is rejected with a typed draining status).
//
// Usage:
//
//	boxserve -store doc.box -addr :4280
//	boxserve -store doc.box -addr :4280 -metrics :9100 -group-commit 8
//	boxserve -store doc.box -fault-kth 5 -fault-mode crash   # smoke/chaos
//
// The store file is created on first start and recovered (WAL replay) on
// every restart; a fresh boot epoch tells reconnecting clients that
// in-flight ops from the previous life can no longer be settled.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"boxes/internal/core"
	"boxes/internal/faults"
	"boxes/internal/obs"
	"boxes/internal/pager"
	"boxes/internal/serve"
)

func main() {
	var (
		addr      = flag.String("addr", ":4280", "listen address for the native protocol")
		storePath = flag.String("store", "", "store file (created if absent, recovered if present)")
		scheme    = flag.String("scheme", "wbox", "labeling scheme for a NEW store: wbox | wboxo | bbox")
		block     = flag.Int("block", 8192, "block size in bytes for a NEW store")
		groupN    = flag.Int("group-commit", 8, "coalesce up to N transactions per WAL fsync")
		queue     = flag.Int("queue", 256, "admission queue depth; beyond it writes are shed with a typed overload status")
		batchMax  = flag.Int("batch-max", 32, "max queued writes group-committed as one WAL transaction")
		metrics   = flag.String("metrics", "", "serve /metrics and /debug/pprof on this address (\":0\" picks a port)")
		drain     = flag.Duration("drain", 10*time.Second, "graceful-drain hard deadline on SIGTERM/SIGINT")
		crashDir  = flag.String("crashdir", "", "write flight-recorder crash dumps to this directory on op errors")
		faultKth  = flag.Int("fault-kth", 0, "chaos: fault every k-th connection write (0 = off)")
		faultMode = flag.String("fault-mode", "crash", "chaos: stall | corrupt | crash")
		faultSeed = flag.Int64("fault-seed", 1, "chaos: fault schedule seed")
	)
	flag.Parse()
	if *storePath == "" {
		fmt.Fprintln(os.Stderr, "usage: boxserve -store <file.box> [flags]")
		os.Exit(2)
	}

	store, fb, recovered, err := openStore(*storePath, *scheme, *block, *groupN, *crashDir)
	if err != nil {
		fatal(err)
	}

	met := serve.NewMetrics()
	reg := store.MetricsRegistry()
	reg.RegisterCollector(met)
	store.RegisterHealthGauges()
	if *metrics != "" {
		ln, err := obs.Serve(*metrics, reg)
		if err != nil {
			fatal(err)
		}
		defer ln.Close()
		fmt.Printf("metrics : http://%s/metrics (pprof under /debug/pprof/)\n", ln.Addr())
	}

	cfg := serve.Config{
		Store:      store,
		QueueDepth: *queue,
		BatchMax:   *batchMax,
		Metrics:    met,
		Logf:       func(format string, args ...any) { fmt.Fprintf(os.Stderr, "boxserve: "+format+"\n", args...) },
	}
	if *faultKth > 0 {
		sched := faults.NewSchedule(*faultSeed)
		var mode faults.Mode
		switch *faultMode {
		case "stall":
			mode = faults.ModeTransient
		case "corrupt":
			mode = faults.ModePermanent
		case "crash":
			mode = faults.ModeCrash
		default:
			fatal(fmt.Errorf("unknown -fault-mode %q (want stall | corrupt | crash)", *faultMode))
		}
		sched.FailEveryKth(*faultKth, mode, faults.OpWrite)
		cfg.WrapConn = func(conn net.Conn) net.Conn { return serve.NewFaultConn(conn, sched) }
		fmt.Printf("chaos   : %s every %d-th connection write (seed %d)\n", *faultMode, *faultKth, *faultSeed)
	}
	srv, err := serve.NewServer(cfg)
	if err != nil {
		fatal(err)
	}

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	// The handler goes in before the "serving" line goes out: whoever waits
	// for that line may signal the moment it appears, and a TERM must
	// always find the drain, never the runtime's default kill.
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	fmt.Printf("serving : %s  store=%s  scheme=%s  labels=%d\n",
		l.Addr(), *storePath, store.Scheme(), store.Count())
	if recovered {
		ri := fb.RecoveryInfo()
		fmt.Printf("wal     : recovered store; %d transactions (%d block images) replayed from the log, %d tail bytes discarded; log at %d bytes\n",
			ri.ReplayedTxns, ri.ReplayedFrames, ri.DiscardedBytes, fb.WALStats().SizeBytes)
	}

	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()

	select {
	case sig := <-sigCh:
		fmt.Printf("drain   : caught %v; finishing in-flight ops (hard deadline %v)\n", sig, *drain)
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		err := srv.Shutdown(ctx)
		cancel()
		if err != nil {
			fmt.Fprintf(os.Stderr, "boxserve: drain hit the hard deadline: %v\n", err)
		}
		if serr := <-done; serr != nil {
			fmt.Fprintf(os.Stderr, "boxserve: serve: %v\n", serr)
		}
	case err := <-done:
		if err != nil {
			fatal(err)
		}
	}

	if err := store.Close(); err != nil {
		fatal(fmt.Errorf("close: %w", err))
	}
	fmt.Println("closed  : store synced and released")
}

// openStore creates the store file on first start or recovers it (WAL
// replay plus saved metadata) on restart. Either way the result is a
// durable, group-committing Store.
func openStore(path, scheme string, block, groupN int, crashDir string) (*core.Store, *pager.FileBackend, bool, error) {
	runtime := core.Options{Durable: true, CrashDir: crashDir}
	if groupN > 0 {
		runtime.Durability = &pager.Durability{Every: groupN}
	}
	if _, err := os.Stat(path); err == nil {
		fb, err := pager.OpenFile(path)
		if err != nil {
			return nil, nil, false, fmt.Errorf("open %s: %w", path, err)
		}
		st, err := core.OpenExisting(fb, runtime)
		if err != nil {
			fb.Close()
			if errors.Is(err, core.ErrNoSavedStore) {
				return nil, nil, false, fmt.Errorf("%s exists but holds no saved store (partial create?); remove it to start fresh", path)
			}
			return nil, nil, false, fmt.Errorf("recover %s: %w", path, err)
		}
		return st, fb, true, nil
	}
	opts := runtime
	opts.BlockSize = block
	switch scheme {
	case "wbox":
		opts.Scheme = core.SchemeWBox
	case "wboxo":
		opts.Scheme = core.SchemeWBoxO
		opts.Ordinal = true
	case "bbox":
		opts.Scheme = core.SchemeBBox
	default:
		return nil, nil, false, fmt.Errorf("unknown scheme %q", scheme)
	}
	fb, err := pager.CreateFile(path, block)
	if err != nil {
		return nil, nil, false, fmt.Errorf("create %s: %w", path, err)
	}
	opts.Backend = fb
	st, err := core.Open(opts)
	if err != nil {
		fb.Close()
		return nil, nil, false, err
	}
	// Persist the metadata head immediately so a restart before the first
	// write still finds a saved store rather than a half-created file.
	if err := st.Save(); err != nil {
		st.Close()
		return nil, nil, false, fmt.Errorf("initial save: %w", err)
	}
	return st, fb, false, nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "boxserve: %v\n", err)
	os.Exit(1)
}
