package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"time"

	"boxes/internal/order"
	"boxes/internal/serve"
)

// slice is the sub-window every gated figure is first taken in; the run's
// figure is the quiet decile of the per-slice ones (see quiet).
const slice = time.Second

// connSamples holds one connection's in-window latency samples in
// completion order, and how many completed in each slice: slice i's samples
// follow those of slices 0..i-1.
type connSamples struct {
	lat      []int64 // ns
	kind     []opKind
	perSlice []int
}

func (c *connSamples) record(sliceIdx int, k opKind, d time.Duration) {
	c.lat = append(c.lat, int64(d))
	c.kind = append(c.kind, k)
	c.perSlice[sliceIdx]++
}

// loadResult is what one closed-loop run against one server produced.
type loadResult struct {
	slices    int
	conn      []connSamples
	gens      []*gen
	attempted uint64 // every request sent, warm-up included
	failed    uint64 // errors + shed + deadline-expired
	firstErr  error
	// cpu is the server's user+sys CPU time in each slice, from
	// /proc/<pid>/stat at the slice's edges (nil for an in-process server).
	cpu []time.Duration
}

// caller issues one request and returns the element an insert created.
type caller func(ctx context.Context, r request) (order.ElemLIDs, order.Label, error)

func clientCaller(c *serve.Client) caller {
	return func(ctx context.Context, r request) (order.ElemLIDs, order.Label, error) {
		switch r.verb {
		case verbLookup:
			l, err := c.Lookup(ctx, r.lid)
			return order.ElemLIDs{}, l, err
		case verbInsert:
			e, err := c.Insert(ctx, r.lid)
			return e, 0, err
		default:
			return order.ElemLIDs{}, 0, c.DeleteElement(ctx, r.elem)
		}
	}
}

// readChecker is read_point's on-line verification for one connection:
// each reply is compared with the previous one against document order, and
// a repeated tag must return the label it returned before.
type readChecker struct {
	seen      []order.Label // by document position; 0 = not looked up yet
	prevPos   int32
	prevLabel order.Label
	have      bool
}

func newReadChecker(img *image) *readChecker {
	return &readChecker{seen: make([]order.Label, len(img.tagLID))}
}

func (rc *readChecker) check(pos int32, label order.Label) error {
	if old := rc.seen[pos]; old != 0 && old != label {
		return fmt.Errorf("tag at position %d returned label %d, then %d", pos, old, label)
	}
	rc.seen[pos] = label
	if rc.have && sign(label, rc.prevLabel) != sign(pos, rc.prevPos) {
		return fmt.Errorf("labels %d, %d disagree with positions %d, %d", rc.prevLabel, label, rc.prevPos, pos)
	}
	rc.prevPos, rc.prevLabel, rc.have = pos, label, true
	return nil
}

func sign[T int32 | uint64](a, b T) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// runLoad drives the closed loop: conns goroutines, one client each, an
// untimed warm-up and then a timed window of whole slices. pid, when
// non-zero, is the server process whose CPU time is read at every slice
// edge. observe, when non-nil, sees every in-window op (the traced
// concurrent pass records its spans there).
func runLoad(ctx context.Context, cfg *config, w workload, img *image, addr string, pid, conns int, window time.Duration,
	observe func(conn int, k opKind, start, end time.Time)) (*loadResult, error) {
	res := &loadResult{slices: int(window / slice), conn: make([]connSamples, conns), gens: make([]*gen, conns)}
	if res.slices < 1 {
		return nil, fmt.Errorf("window %v is shorter than one %v slice", window, slice)
	}
	clients := make([]*serve.Client, conns)
	for i := range clients {
		c, err := serve.Dial(addr, serve.ClientOptions{Timeout: opTimeout})
		if err != nil {
			return nil, fmt.Errorf("dial connection %d: %w", i, err)
		}
		defer c.Close()
		clients[i] = c
		res.gens[i] = newGen(w, img, cfg.seed, i, conns)
		res.conn[i].perSlice = make([]int, res.slices)
	}

	tStart := time.Now().Add(cfg.warmup)
	tEnd := tStart.Add(time.Duration(res.slices) * slice)
	var (
		wg sync.WaitGroup
		mu sync.Mutex // attempted, failed, firstErr
	)
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			g, call, cs := res.gens[i], clientCaller(clients[i]), &res.conn[i]
			var rc *readChecker
			if w.mix == mixReadPoint {
				rc = newReadChecker(img)
			}
			var attempted, failed, warm uint64
			var firstErr error
			for ctx.Err() == nil {
				r := g.next()
				t0 := time.Now()
				if !t0.Before(tEnd) {
					break
				}
				e, label, err := call(ctx, r)
				t1 := time.Now()
				attempted++
				if err != nil {
					failed++
					if firstErr == nil {
						firstErr = fmt.Errorf("connection %d: %w", i, err)
					}
					if errors.Is(err, serve.ErrDraining) || errors.Is(err, serve.ErrServerRestarted) {
						break
					}
					continue
				}
				g.ack(r, e)
				if rc != nil {
					if err := rc.check(r.pos, label); err != nil && firstErr == nil {
						firstErr = fmt.Errorf("connection %d: verification: %w", i, err)
					}
				}
				if t0.Before(tStart) {
					warm++
					continue
				}
				if !t1.Before(tEnd) {
					break
				}
				if cs.lat == nil {
					// Sized from the warm-up rate so the window appends
					// into preallocated memory.
					n := int(float64(warm+1)/cfg.warmup.Seconds()*window.Seconds()*1.5) + 4096
					cs.lat = make([]int64, 0, n)
					cs.kind = make([]opKind, 0, n)
				}
				cs.record(int(t1.Sub(tStart)/slice), r.verb.kind(), t1.Sub(t0))
				if observe != nil {
					observe(i, r.verb.kind(), t0, t1)
				}
			}
			mu.Lock()
			res.attempted += attempted
			res.failed += failed
			if res.firstErr == nil {
				res.firstErr = firstErr
			}
			mu.Unlock()
		}(i)
	}

	var cpuErr error
	if pid != 0 {
		var prev uint64
		for i := 0; i <= res.slices && cpuErr == nil && sleepUntil(ctx, tStart.Add(time.Duration(i)*slice)) == nil; i++ {
			var t uint64
			if t, cpuErr = cpuTicks(pid); i > 0 {
				res.cpu = append(res.cpu, time.Duration(t-prev)*clockTick)
			}
			prev = t
		}
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if cpuErr != nil {
		return nil, cpuErr
	}
	return res, nil
}

func sleepUntil(ctx context.Context, t time.Time) error {
	timer := time.NewTimer(time.Until(t))
	defer timer.Stop()
	select {
	case <-timer.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// has reports whether a sample of kind kk belongs to selection k, where
// numKinds selects every op.
func (k opKind) has(kk opKind) bool { return k == numKinds || k == kk }

// samples returns the latencies of kind k (numKinds: all) acknowledged in
// slices [from, to).
func (r *loadResult) samples(k opKind, from, to int) []int64 {
	var out []int64
	for c := range r.conn {
		cs := &r.conn[c]
		lo, hi := 0, 0
		for i, n := range cs.perSlice[:to] {
			if i < from {
				lo += n
			}
			hi += n
		}
		for j := lo; j < hi; j++ {
			if k.has(cs.kind[j]) {
				out = append(out, cs.lat[j])
			}
		}
	}
	return out
}

// acked counts the in-window acknowledged ops of kind k (numKinds: all).
func (r *loadResult) acked(k opKind) int { return len(r.samples(k, 0, r.slices)) }

// opsPerSlice is the acknowledged ops per second in each slice, every
// connection together.
func (r *loadResult) opsPerSlice() []float64 {
	out := make([]float64, r.slices)
	for c := range r.conn {
		for i, n := range r.conn[c].perSlice {
			out[i] += float64(n) / slice.Seconds()
		}
	}
	return out
}

// cpuPerOpUS is the server's CPU time per acknowledged op in each slice
// that acknowledged any, in microseconds.
func (r *loadResult) cpuPerOpUS() []float64 {
	var out []float64
	for i, ops := range r.opsPerSlice() {
		if ops > 0 {
			out = append(out, float64(r.cpu[i].Microseconds())/(ops*slice.Seconds()))
		}
	}
	return out
}

// wholeUS is the p-th percentile, in microseconds, of every kind-k sample
// of the window: the textbook figure.
func (r *loadResult) wholeUS(k opKind, p float64) (us float64, ok bool) {
	all := r.samples(k, 0, r.slices)
	if len(all) == 0 {
		return 0, false
	}
	return float64(quantile(all, p)) / 1e3, true
}

// quietUS is the quiet decile, over the slices that saw kind k, of each
// slice's p-th percentile of kind-k latency, in microseconds.
func (r *loadResult) quietUS(k opKind, p float64) (us float64, ok bool) {
	var per []float64
	for i := 0; i < r.slices; i++ {
		if s := r.samples(k, i, i+1); len(s) > 0 {
			per = append(per, float64(quantile(s, p))/1e3)
		}
	}
	if len(per) == 0 {
		return 0, false
	}
	return quiet(per, false), true
}

// e2eResult is one workload's end-to-end outcome against a real boxserve.
type e2eResult struct {
	load      *loadResult
	setup     time.Duration // median of the set-ups
	fileBytes int64         // .box + .crc + .wal after the drain
	labels    uint64        // live labels after the drain
	rssPeakMB float64
	verifyErr error
}

// runE2E sets up (cfg.setups times, keeping the last), runs the workload
// against the boxserve subprocess, drains it and verifies the result. If
// keep is non-empty the pristine image is copied there before the first
// request, for the ladder.
func runE2E(ctx context.Context, cfg *config, w workload, window time.Duration, keep string) (*e2eResult, *image, error) {
	var (
		img    *image
		srv    *server
		dir    string
		setups []float64
	)
	for i := 0; i < cfg.setups; i++ {
		if srv != nil {
			// An earlier set-up is thrown away, so it is killed, not
			// drained: boxserve installs its SIGTERM handler only after it
			// starts serving, and a drain this soon can beat it to it.
			srv.kill()
			os.RemoveAll(dir)
		}
		var err error
		if dir, err = os.MkdirTemp(cfg.tmp, w.name+"-"); err != nil {
			return nil, nil, err
		}
		defer os.RemoveAll(dir)
		var d time.Duration
		if img, srv, d, err = setUp(ctx, cfg, w, dir); err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		defer srv.kill()
		setups = append(setups, d.Seconds())
	}
	img.index()
	if keep != "" {
		// The server is idle and its log empty: the files are the image.
		if _, err := copyImage(img.path, keep); err != nil {
			return nil, nil, err
		}
	}

	load, err := runLoad(ctx, cfg, w, img, srv.addr, srv.pid(), e2eConns, window, nil)
	if err != nil {
		return nil, nil, err
	}
	res := &e2eResult{load: load, setup: time.Duration(quantile(setups, 0.5) * float64(time.Second))}
	if res.rssPeakMB, err = rssPeakMB(srv.pid()); err != nil {
		return nil, nil, err
	}
	if err := srv.drain(); err != nil {
		return nil, nil, err
	}
	for _, f := range storeFiles(img.path) {
		fi, err := os.Stat(f)
		if err != nil {
			return nil, nil, err
		}
		res.fileBytes += fi.Size()
	}
	res.labels, res.verifyErr = verifyStore(img, load)
	if res.verifyErr == nil {
		res.verifyErr = load.firstErr
	}
	return res, img, nil
}
