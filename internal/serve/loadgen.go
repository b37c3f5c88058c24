package serve

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"boxes/internal/faults"
	"boxes/internal/order"
	"boxes/internal/workload"
)

// LoadConfig configures the closed-loop load generator: N concurrent
// connections, each driving one positional workload source against its
// own private subtree of the served document (a per-worker anchor element
// under the root), so concurrent workers never invalidate each other's
// position coordinates and every op is verifiable client-side.
type LoadConfig struct {
	Addr string
	// Conns is the number of concurrent connections/workers (default 4).
	Conns int
	// Ops is the total operation budget across all workers (default 1000).
	Ops int
	// Source selects the workload profile: "zipf", "churn", "uniform",
	// "bisect", "frontpack" (default "zipf").
	Source string
	Seed   int64
	// Skew is the zipf skew parameter (default 1.1).
	Skew float64
	// ChurnTarget is the churn profile's steady-state size per worker
	// (default 64).
	ChurnTarget int
	// Timeout is the per-op deadline (default 5s).
	Timeout time.Duration
	// Retry overrides the client retry policy (default: the client's,
	// with 12 attempts).
	Retry *faults.RetryPolicy
	// Dial overrides the transport (fault injection).
	Dial func() (net.Conn, error)
}

// LoadReport counts a load run's operations. A shed-and-retried op counts
// once. Timing is the served-request benchmark's job (benchmark/), not
// this generator's: it exists to drive faults and drains.
type LoadReport struct {
	Source    string
	Conns     int
	Attempted uint64
	Acked     uint64
	Failed    uint64
	Skipped   uint64 // no-op positions (delete/lookup on an empty tracker)
	Inserted  uint64 // acked inserts, each one element
	Deleted   uint64 // acked deletes, each one element
	Duration  time.Duration
}

func (cfg *LoadConfig) defaults() {
	if cfg.Conns <= 0 {
		cfg.Conns = 4
	}
	if cfg.Ops <= 0 {
		cfg.Ops = 1000
	}
	if cfg.Source == "" {
		cfg.Source = "zipf"
	}
	if cfg.Skew == 0 {
		cfg.Skew = 1.1
	}
	if cfg.ChurnTarget <= 0 {
		cfg.ChurnTarget = 64
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 5 * time.Second
	}
	if cfg.Retry == nil {
		// A load run exists to push ops through injected connection
		// faults. With the client's four attempts, a kill at every 7th
		// server write (serve-smoke's schedule) exhausts about one op in
		// 400: each attempt is a fresh handshake plus the request, two
		// writes that can each be the 7th. Twelve attempts make that
		// vanishingly rare; a dead server still fails within ~0.5s (the
		// backoff caps at 50ms).
		pol := faults.DefaultRetryPolicy()
		pol.MaxAttempts = 12
		cfg.Retry = &pol
	}
}

func newSource(cfg *LoadConfig, worker int) (workload.Source, error) {
	seed := cfg.Seed + int64(worker)*7919
	switch cfg.Source {
	case "zipf":
		return workload.NewZipfMix(seed, cfg.Skew, 40, 20), nil
	case "churn":
		return workload.NewChurn(seed, cfg.ChurnTarget), nil
	case "uniform":
		return workload.NewUniform(seed), nil
	case "bisect":
		return workload.NewBisect(16), nil
	case "frontpack":
		return workload.NewFrontPack(8), nil
	default:
		return nil, fmt.Errorf("serve: unknown load source %q", cfg.Source)
	}
}

// netView adapts a worker's tracker + client to workload.View so adaptive
// sources (bisect) can observe labels over the wire.
type netView struct {
	ctx context.Context
	c   *Client
	tr  *workload.Tracker
}

func (v *netView) Len() int { return v.tr.Len() }

func (v *netView) Label(pos int) (order.Label, error) {
	return v.c.Lookup(v.ctx, v.tr.Elem(pos).Start)
}

func (v *netView) EndLabel(pos int) (order.Label, error) {
	return v.c.Lookup(v.ctx, v.tr.Elem(pos).End)
}

// RunLoad drives cfg.Ops operations over cfg.Conns connections and
// counts what was acked, failed and skipped. The store
// behind addr must be fresh or already rooted: the generator bootstraps
// the root element if the document is empty, then gives each worker its
// own anchor child to operate under.
func RunLoad(ctx context.Context, cfg LoadConfig) (*LoadReport, error) {
	cfg.defaults()
	opts := ClientOptions{Timeout: cfg.Timeout, Retry: cfg.Retry, Dial: cfg.Dial}

	setup, err := dialRetry(ctx, cfg.Addr, opts)
	if err != nil {
		return nil, fmt.Errorf("serve: load setup dial: %w", err)
	}
	target, err := anchorTarget(ctx, setup)
	if err != nil {
		setup.Close()
		return nil, err
	}
	anchors := make([]order.ElemLIDs, cfg.Conns)
	for i := range anchors {
		a, err := setup.Insert(ctx, target)
		if err != nil {
			setup.Close()
			return nil, fmt.Errorf("serve: load anchor %d: %w", i, err)
		}
		anchors[i] = a
	}
	setup.Close()

	var (
		attempted, acked, failed, skipped atomic.Uint64
		inserted, deleted                 atomic.Uint64
		wg                                sync.WaitGroup
		errMu                             sync.Mutex
		firstErr                          error
	)
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
	}
	opsEach := cfg.Ops / cfg.Conns
	start := time.Now()
	for w := 0; w < cfg.Conns; w++ {
		src, err := newSource(&cfg, w)
		if err != nil {
			return nil, err
		}
		wg.Add(1)
		go func(w int, src workload.Source, anchor order.ElemLIDs) {
			defer wg.Done()
			c, err := dialRetry(ctx, cfg.Addr, opts)
			if err != nil {
				fail(fmt.Errorf("serve: worker %d dial: %w", w, err))
				return
			}
			defer c.Close()
			tr := &workload.Tracker{}
			view := &netView{ctx: ctx, c: c, tr: tr}
			for i := 0; i < opsEach; i++ {
				if ctx.Err() != nil {
					return
				}
				op, err := src.Next(view)
				if err != nil {
					fail(fmt.Errorf("serve: worker %d source: %w", w, err))
					return
				}
				attempted.Add(1)
				pos := tr.Clamp(op.Pos)
				switch op.Kind {
				case workload.Insert:
					target := anchor.End
					if tr.Len() > 0 {
						target = tr.Elem(pos).Start
					}
					e, err := c.Insert(ctx, target)
					if err != nil {
						if loadStop(err) {
							return
						}
						failed.Add(1)
						continue
					}
					tr.NoteInsert(pos, e)
					inserted.Add(1)
				case workload.Delete:
					if tr.Len() == 0 {
						skipped.Add(1)
						continue
					}
					if err := c.DeleteElement(ctx, tr.Elem(pos)); err != nil {
						if loadStop(err) {
							return
						}
						failed.Add(1)
						continue
					}
					tr.NoteDelete(pos)
					deleted.Add(1)
				case workload.Lookup:
					if tr.Len() == 0 {
						skipped.Add(1)
						continue
					}
					if _, err := c.Lookup(ctx, tr.Elem(pos).Start); err != nil {
						if loadStop(err) {
							return
						}
						failed.Add(1)
						continue
					}
				}
				acked.Add(1)
			}
		}(w, src, anchors[w])
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return &LoadReport{
		Source:    cfg.Source,
		Conns:     cfg.Conns,
		Attempted: attempted.Load(),
		Acked:     acked.Load(),
		Failed:    failed.Load(),
		Skipped:   skipped.Load(),
		Inserted:  inserted.Load(),
		Deleted:   deleted.Load(),
		Duration:  time.Since(start),
	}, nil
}

// anchorTarget returns the LID before whose tag the worker anchors are
// inserted: LID 1 (the first label ever allocated) when the document is
// non-empty, so the anchors become elements preceding it; otherwise the
// end tag of a freshly bootstrapped root, making the anchors its
// children. Either way each worker gets a private subtree.
func anchorTarget(ctx context.Context, c *Client) (order.LID, error) {
	if _, err := c.Lookup(ctx, order.LID(1)); err == nil {
		return order.LID(1), nil
	} else if !errors.Is(err, order.ErrUnknownLID) {
		return 0, fmt.Errorf("serve: load probe: %w", err)
	}
	root, err := c.InsertFirst(ctx)
	if err != nil {
		return 0, fmt.Errorf("serve: load bootstrap: %w", err)
	}
	return root.End, nil
}

// dialRetry dials under the client's retry policy. Dial handshakes
// eagerly, so under connection-fault injection the scheduled fault can
// land on the handshake itself; for a load generator every connection-
// setup failure is retryable — a fresh TCP connection is a fresh start.
func dialRetry(ctx context.Context, addr string, opts ClientOptions) (*Client, error) {
	pol := faults.DefaultRetryPolicy()
	if opts.Retry != nil {
		pol = *opts.Retry
	}
	var c *Client
	_, err := faults.NewRetrier(pol).DoCtx(ctx, func() error {
		var derr error
		c, derr = Dial(addr, opts)
		if derr != nil {
			return fmt.Errorf("%w: %w", faults.ErrTransient, derr)
		}
		return nil
	})
	return c, err
}

// loadStop reports whether a worker should stop: the server is draining
// or restarted, or the run's context died. All other failures are
// per-op and counted.
func loadStop(err error) bool {
	return errors.Is(err, ErrDraining) ||
		errors.Is(err, ErrServerRestarted) ||
		errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded)
}
