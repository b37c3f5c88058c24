package serve

import (
	"context"
	"errors"
	"net"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"boxes/internal/core"
	"boxes/internal/faults"
	"boxes/internal/order"
	"boxes/internal/pager"
)

// testEnv is one served store: a durable W-BOX behind a loopback listener.
type testEnv struct {
	t     *testing.T
	path  string
	fb    *pager.FileBackend
	store *core.Store
	srv   *Server
	addr  string
	met   *Metrics
	done  chan error
}

type envOptions struct {
	queueDepth  int
	batchMax    int
	maxSessions int
	wrapConn    func(net.Conn) net.Conn
	crash       *pager.DiskController
}

func startEnv(t *testing.T, o envOptions) *testEnv {
	t.Helper()
	path := filepath.Join(t.TempDir(), "served.boxes")
	fb, err := pager.CreateFileOpts(path, pager.FileOptions{
		BlockSize: 512, NoSync: true, DiskControl: o.crash,
	})
	if err != nil {
		t.Fatal(err)
	}
	store, err := core.Open(core.Options{
		Scheme: core.SchemeWBox, BlockSize: 512,
		Backend: fb, Durable: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	met := NewMetrics()
	srv, err := NewServer(Config{
		Store: store, Metrics: met,
		QueueDepth: o.queueDepth, BatchMax: o.batchMax,
		MaxSessions: o.maxSessions,
		WrapConn:    o.wrapConn,
	})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	env := &testEnv{
		t: t, path: path, fb: fb, store: store, srv: srv,
		addr: l.Addr().String(), met: met, done: make(chan error, 1),
	}
	go func() { env.done <- srv.Serve(l) }()
	return env
}

// holdBatcher parks the batcher with its next request in hand until
// release runs (more than once is fine); parked is closed once it has
// parked. It is the tests' stall latch.
func (e *testEnv) holdBatcher() (parked <-chan struct{}, release func()) {
	p, gate := make(chan struct{}), make(chan struct{})
	var parkOnce, releaseOnce sync.Once
	park := func() {
		parkOnce.Do(func() { close(p) })
		<-gate
	}
	e.srv.hold.Store(&park)
	return p, func() {
		releaseOnce.Do(func() {
			e.srv.hold.Store(nil)
			close(gate)
		})
	}
}

// shutdown drains the server and closes the store, asserting both are
// clean.
func (e *testEnv) shutdown() {
	e.t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := e.srv.Shutdown(ctx); err != nil {
		e.t.Fatalf("shutdown: %v", err)
	}
	if err := <-e.done; err != nil {
		e.t.Fatalf("serve: %v", err)
	}
	if err := e.store.Close(); err != nil {
		e.t.Fatalf("store close: %v", err)
	}
}

func TestServeBasicOps(t *testing.T) {
	env := startEnv(t, envOptions{})
	ctx := context.Background()
	c, err := Dial(env.addr, ClientOptions{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	root, err := c.InsertFirst(ctx)
	if err != nil {
		t.Fatalf("insert-first: %v", err)
	}
	a, err := c.Insert(ctx, root.End)
	if err != nil {
		t.Fatalf("insert: %v", err)
	}
	b, err := c.Insert(ctx, root.End)
	if err != nil {
		t.Fatalf("insert: %v", err)
	}
	if cmp, err := c.Compare(ctx, a.Start, b.Start); err != nil || cmp != -1 {
		t.Fatalf("compare(a,b) = %d, %v; want -1", cmp, err)
	}
	if cmp, err := c.Compare(ctx, b.Start, a.Start); err != nil || cmp != 1 {
		t.Fatalf("compare(b,a) = %d, %v; want 1", cmp, err)
	}
	la, err := c.Lookup(ctx, a.Start)
	if err != nil {
		t.Fatalf("lookup: %v", err)
	}
	lb, err := c.Lookup(ctx, b.Start)
	if err != nil {
		t.Fatalf("lookup: %v", err)
	}
	if la >= lb {
		t.Fatalf("labels out of order: %d >= %d", la, lb)
	}
	if err := c.DeleteElement(ctx, b); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if _, err := c.Lookup(ctx, b.Start); !errors.Is(err, order.ErrUnknownLID) {
		t.Fatalf("lookup of deleted LID: %v; want ErrUnknownLID", err)
	}

	// A batch of writes is one atomic transaction with positional results.
	res, err := c.Batch(ctx, []BatchOp{
		{Op: OpInsert, LID: root.End},
		{Op: OpInsert, LID: root.End},
		{Op: OpDeleteElement, Elem: a},
	})
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	if len(res) != 3 {
		t.Fatalf("batch results: %d; want 3", len(res))
	}
	if cmp, err := c.Compare(ctx, res[0].Elem.Start, res[1].Elem.Start); err != nil || cmp != -1 {
		t.Fatalf("batch order: %d, %v", cmp, err)
	}

	// Server-side store agrees.
	if n := env.store.Count(); n != 6 { // root + 2 batch inserts = 3 elements
		t.Fatalf("store count %d; want 6 labels", n)
	}
	env.shutdown()
}

// A full admission queue sheds with a typed overload status instead of
// queuing unboundedly; the shed is visible in metrics and to the client.
func TestServeOverloadShed(t *testing.T) {
	env := startEnv(t, envOptions{queueDepth: 1})
	ctx := context.Background()
	c, err := Dial(env.addr, ClientOptions{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	root, err := c.InsertFirst(ctx)
	if err != nil {
		t.Fatal(err)
	}

	// Stall the batcher so admitted writes pile up behind it.
	_, release := env.holdBatcher()
	type result struct{ err error }
	results := make(chan result, 8)
	noRetry := &faults.RetryPolicy{MaxAttempts: 1}
	for i := 0; i < 8; i++ {
		go func() {
			cc, err := Dial(env.addr, ClientOptions{Timeout: 5 * time.Second, Retry: noRetry})
			if err != nil {
				results <- result{err}
				return
			}
			defer cc.Close()
			_, err = cc.Insert(context.Background(), root.End)
			results <- result{err}
		}()
	}
	var shed, ok int
	deadline := time.After(8 * time.Second)
	for i := 0; i < 8; i++ {
		select {
		case r := <-results:
			if errors.Is(r.err, ErrOverload) {
				shed++
			} else if r.err == nil {
				ok = ok + 1
			} else {
				t.Errorf("unexpected error: %v", r.err)
			}
			if shed > 0 && i < 7 {
				// Once shed is observed, unblock the rest.
				release()
			}
		case <-deadline:
			release()
			t.Fatalf("timed out; %d shed, %d ok so far", shed, ok)
		}
	}
	release()
	if shed == 0 {
		t.Fatal("no request was shed despite queue depth 1 and a held batcher")
	}
	if got := env.met.Shed.Load(); got == 0 {
		t.Fatal("shed metric not incremented")
	}
	env.shutdown()
}

// A deadline that expires while the request is queued cancels it before
// any op runs; the op is not applied and the client sees the typed error.
func TestServeDeadlineWhileQueued(t *testing.T) {
	env := startEnv(t, envOptions{})
	ctx := context.Background()
	c, err := Dial(env.addr, ClientOptions{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	root, err := c.InsertFirst(ctx)
	if err != nil {
		t.Fatal(err)
	}
	before := env.store.Count()

	// Occupy the batcher: one write parks it, so the next one waits in the
	// queue past its deadline.
	_, release := env.holdBatcher()
	blocker := make(chan error, 1)
	go func() {
		cc, err := Dial(env.addr, ClientOptions{Timeout: 10 * time.Second})
		if err != nil {
			blocker <- err
			return
		}
		defer cc.Close()
		_, err = cc.Insert(context.Background(), root.End)
		blocker <- err
	}()
	time.Sleep(100 * time.Millisecond) // let the blocker reach ApplyBatch

	const budget = 50 * time.Millisecond
	short, cancel := context.WithTimeout(ctx, budget)
	defer cancel()
	c2, err := Dial(env.addr, ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	_, err = c2.Insert(short, root.End)
	// The server restarts the remaining budget when it reads the frame, so
	// its deadline ends later than the client's by the send-to-read
	// latency. Hold the batcher for the whole budget again, so that when
	// the batcher reaches the queued insert its server-side deadline has
	// passed too.
	time.Sleep(budget)
	release()
	if !errors.Is(err, ErrDeadlineExpired) && !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued op past deadline: %v; want deadline error", err)
	}
	if berr := <-blocker; berr != nil {
		t.Fatalf("blocker insert: %v", berr)
	}
	if env.met.Deadline.Load() == 0 && !errors.Is(err, context.DeadlineExceeded) {
		t.Fatal("deadline metric not incremented")
	}
	if got := env.store.Count(); got != before+2 {
		t.Fatalf("store count %d; want %d (only the blocker's insert applied)", got, before+2)
	}
	env.shutdown()
}

// Re-sending the same sequence number replays the cached response instead
// of re-applying the op — the lost-ack recovery path.
func TestServeSessionDedupReplay(t *testing.T) {
	env := startEnv(t, envOptions{})
	conn, err := net.Dial("tcp", env.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := writeClientHello(conn, clientHello{}); err != nil {
		t.Fatal(err)
	}
	if _, err := readServerHello(conn); err != nil {
		t.Fatal(err)
	}
	send := func(req *Request) *Response {
		t.Helper()
		if err := writeFrame(conn, encodeRequest(req)); err != nil {
			t.Fatal(err)
		}
		payload, err := readFrame(conn)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := decodeResponse(payload)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	r1 := send(&Request{Seq: 1, Op: OpInsertFirst})
	if r1.Status != StatusOK {
		t.Fatalf("insert-first: %s", r1.Msg)
	}
	count := env.store.Count()
	// "Lost ack": the client re-sends seq 1. The server must replay, not
	// re-apply.
	r1b := send(&Request{Seq: 1, Op: OpInsertFirst})
	if r1b.Status != StatusOK || r1b.Elem != r1.Elem {
		t.Fatalf("replay mismatch: %+v vs %+v", r1b, r1)
	}
	if got := env.store.Count(); got != count {
		t.Fatalf("replay re-applied the op: count %d -> %d", count, got)
	}
	// A stale (below high-water) seq is rejected, not silently applied.
	r0 := send(&Request{Seq: 0, Op: OpLookup, LID: r1.Elem.Start})
	if r0.Status != StatusOK {
		t.Fatalf("unsequenced lookup: %s", r0.Msg)
	}
	env.shutdown()
}

// rawConn is a handshaked protocol connection for tests that need to
// control seqs and framing directly.
type rawConn struct {
	t    *testing.T
	conn net.Conn
	sess uint64
}

func dialRaw(t *testing.T, addr string, session uint64) *rawConn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeClientHello(conn, clientHello{Session: session}); err != nil {
		t.Fatal(err)
	}
	hello, err := readServerHello(conn)
	if err != nil {
		t.Fatal(err)
	}
	return &rawConn{t: t, conn: conn, sess: hello.Session}
}

func (r *rawConn) send(req *Request) {
	r.t.Helper()
	if err := writeFrame(r.conn, encodeRequest(req)); err != nil {
		r.t.Fatal(err)
	}
}

func (r *rawConn) recv() *Response {
	r.t.Helper()
	payload, err := readFrame(r.conn)
	if err != nil {
		r.t.Fatal(err)
	}
	resp, err := decodeResponse(payload)
	if err != nil {
		r.t.Fatal(err)
	}
	return resp
}

func (r *rawConn) roundTrip(req *Request) *Response {
	r.t.Helper()
	r.send(req)
	return r.recv()
}

// An overload rejection must NOT settle its seq in the dedup slot: the
// client retries a shed request with the SAME seq after backoff, and that
// retry has to re-execute once the queue drains — not replay the cached
// StatusOverload forever.
func TestServeOverloadRetrySameSeq(t *testing.T) {
	env := startEnv(t, envOptions{queueDepth: 1})
	a := dialRaw(t, env.addr, 0)
	defer a.conn.Close()
	b := dialRaw(t, env.addr, 0)
	defer b.conn.Close()
	c := dialRaw(t, env.addr, 0)
	defer c.conn.Close()

	rootResp := a.roundTrip(&Request{Seq: 1, Op: OpInsertFirst})
	if rootResp.Status != StatusOK {
		t.Fatalf("insert-first: %s", rootResp.Msg)
	}
	root := rootResp.Elem

	// a's insert parks the held batcher; b's fills the depth-1 queue; c's
	// is shed.
	_, release := env.holdBatcher()
	a.send(&Request{Seq: 2, Op: OpInsert, LID: root.End})
	time.Sleep(100 * time.Millisecond) // batcher picks a's op up
	b.send(&Request{Seq: 1, Op: OpInsert, LID: root.End})
	time.Sleep(100 * time.Millisecond) // b's op reaches the queue
	shed := c.roundTrip(&Request{Seq: 1, Op: OpInsert, LID: root.End})
	if shed.Status != StatusOverload {
		release()
		t.Fatalf("third insert status %s; want overload", statusName(shed.Status))
	}

	release()
	if ra := a.recv(); ra.Status != StatusOK {
		t.Fatalf("first insert: %s", ra.Msg)
	}
	if rb := b.recv(); rb.Status != StatusOK {
		t.Fatalf("second insert: %s", rb.Msg)
	}
	// The retry of the shed seq must execute fresh, not replay the shed.
	retry := c.roundTrip(&Request{Seq: 1, Op: OpInsert, LID: root.End})
	if retry.Status != StatusOK {
		t.Fatalf("retry of shed seq: %s (%s); want OK", statusName(retry.Status), retry.Msg)
	}
	// And a re-send after the ack replays, proving the slot now holds it.
	replay := c.roundTrip(&Request{Seq: 1, Op: OpInsert, LID: root.End})
	if replay.Status != StatusOK || replay.Elem != retry.Elem {
		t.Fatalf("replay after settle: %+v vs %+v", replay, retry)
	}
	env.shutdown()
}

// A retry racing its in-flight predecessor (original conn died with the
// op queued, client reconnected and re-sent the seq) must adopt the
// outstanding execution's result, not apply the op a second time.
func TestServeInFlightRetryAdoptsResult(t *testing.T) {
	env := startEnv(t, envOptions{})
	a := dialRaw(t, env.addr, 0)
	defer a.conn.Close()

	_, release := env.holdBatcher()
	a.send(&Request{Seq: 1, Op: OpInsertFirst})
	time.Sleep(100 * time.Millisecond) // seq 1 is now executing (pending)

	// Reconnect on the same session and re-send the in-flight seq.
	b := dialRaw(t, env.addr, a.sess)
	defer b.conn.Close()
	if b.sess != a.sess {
		t.Fatalf("session not resumed: %d vs %d", b.sess, a.sess)
	}
	b.send(&Request{Seq: 1, Op: OpInsertFirst})
	time.Sleep(100 * time.Millisecond) // the retry reaches the pending-wait
	release()

	ra := a.recv()
	rb := b.recv()
	if ra.Status != StatusOK || rb.Status != StatusOK {
		t.Fatalf("statuses %s / %s; want OK / OK", statusName(ra.Status), statusName(rb.Status))
	}
	if ra.Elem != rb.Elem {
		t.Fatalf("retry re-executed: %+v vs %+v", ra.Elem, rb.Elem)
	}
	if got := env.store.Count(); got != 2 {
		t.Fatalf("store count %d; want 2 (op applied exactly once)", got)
	}
	env.shutdown()
}

// An insert anchored at a deleted element's LID answers StatusUnknownLID,
// alone and as a batch's first op (a later one would anchor at whatever
// the batch's earlier inserts reissued), whichever of the two freed LIDs it
// names: one of them heads the LIDF free list, which an insert that
// allocated before resolving its anchor would reissue to itself and then
// fail untyped.
func TestServeInsertAtStaleAnchor(t *testing.T) {
	env := startEnv(t, envOptions{})
	c := dialRaw(t, env.addr, 0)
	defer c.conn.Close()

	root := c.roundTrip(&Request{Seq: 1, Op: OpInsertFirst})
	a := c.roundTrip(&Request{Seq: 2, Op: OpInsert, LID: root.Elem.End})
	if root.Status != StatusOK || a.Status != StatusOK {
		t.Fatalf("setup: %s / %s", root.Msg, a.Msg)
	}
	if del := c.roundTrip(&Request{Seq: 3, Op: OpDeleteElement, Elem: a.Elem}); del.Status != StatusOK {
		t.Fatalf("delete: %s", del.Msg)
	}
	seq := uint64(4)
	for _, stale := range []order.LID{a.Elem.End, a.Elem.Start} {
		for _, req := range []*Request{
			{Op: OpInsert, LID: stale},
			{Op: OpBatch, Batch: []BatchOp{{Op: OpInsert, LID: stale}, {Op: OpInsert, LID: root.Elem.End}}},
		} {
			req.Seq = seq
			seq++
			if resp := c.roundTrip(req); resp.Status != StatusUnknownLID {
				t.Fatalf("op %d at stale LID %d: %s (%s); want %s", req.Op, stale, statusName(resp.Status), resp.Msg, statusName(StatusUnknownLID))
			}
		}
	}
	if got := env.store.Count(); got != 2 {
		t.Fatalf("store count %d; want 2 (the failed inserts applied nothing)", got)
	}
	if ok := c.roundTrip(&Request{Seq: seq, Op: OpInsert, LID: root.Elem.End}); ok.Status != StatusOK {
		t.Fatalf("insert after the stale ones: %s", ok.Msg)
	}
	if err := env.store.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	env.shutdown()
}

// A server built without Metrics must not panic: every counter access
// goes through the defaulted private bundle.
func TestServeNilMetrics(t *testing.T) {
	path := filepath.Join(t.TempDir(), "unmetered.boxes")
	fb, err := pager.CreateFileOpts(path, pager.FileOptions{BlockSize: 512, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	store, err := core.Open(core.Options{
		Scheme: core.SchemeWBox, BlockSize: 512,
		Backend: fb, Durable: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(Config{Store: store}) // no Metrics
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	c, err := Dial(l.Addr().String(), ClientOptions{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	root, err := c.InsertFirst(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Lookup(ctx, root.Start); err != nil {
		t.Fatal(err)
	}
	shutCtx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
}

// The session table is bounded: short-lived clients churn through the
// LRU instead of growing server state without limit.
func TestServeSessionTableBounded(t *testing.T) {
	env := startEnv(t, envOptions{maxSessions: 2})
	for i := 0; i < 6; i++ {
		c, err := Dial(env.addr, ClientOptions{Timeout: 5 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Lookup(context.Background(), 1); err == nil {
			t.Fatal("lookup of unknown LID succeeded")
		}
		c.Close()
		// Wait for the handler to detach its session (releaseSession runs
		// before the ConnsActive decrement in the handler's defer chain):
		// only detached sessions are evictable, so a client that dials
		// before its predecessor detached would legitimately overshoot.
		deadline := time.Now().Add(5 * time.Second)
		for env.met.ConnsActive.Load() != 0 {
			if time.Now().After(deadline) {
				t.Fatal("connection handler did not exit")
			}
			time.Sleep(time.Millisecond)
		}
	}
	env.srv.mu.Lock()
	n := len(env.srv.sessions)
	env.srv.mu.Unlock()
	if n > 2 {
		t.Fatalf("session table grew to %d despite MaxSessions 2", n)
	}
	if g := env.met.Sessions.Load(); g != int64(n) {
		t.Fatalf("sessions gauge %d disagrees with table size %d", g, n)
	}
	env.shutdown()
}

// A call without a deadline must not inherit the conn deadline a previous
// deadlined call set — it has to clear it, or the next op on the same
// conn fails spuriously once the stale deadline passes.
func TestClientClearsConnDeadline(t *testing.T) {
	env := startEnv(t, envOptions{})
	noRetry := &faults.RetryPolicy{MaxAttempts: 1}
	c, err := Dial(env.addr, ClientOptions{Retry: noRetry})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	root, err := c.InsertFirst(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	short, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	if _, err := c.Lookup(short, root.Start); err != nil {
		t.Fatalf("deadlined lookup: %v", err)
	}
	cancel()
	time.Sleep(600 * time.Millisecond) // the stale conn deadline passes
	// MaxAttempts 1: a stale inherited deadline cannot hide behind a
	// reconnect-and-retry.
	if _, err := c.Lookup(context.Background(), root.Start); err != nil {
		t.Fatalf("undeadlined lookup after stale deadline: %v", err)
	}
	env.shutdown()
}

// After Shutdown begins, idle connections are closed, new work is
// rejected, and an op that was in flight when the drain started is still
// acknowledged (and durable).
func TestServeDrainFinishesInFlight(t *testing.T) {
	env := startEnv(t, envOptions{})
	ctx := context.Background()
	c, err := Dial(env.addr, ClientOptions{Timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	root, err := c.InsertFirst(ctx)
	if err != nil {
		t.Fatal(err)
	}

	// Park one write in the batcher, then drain around it.
	_, release := env.holdBatcher()
	inflight := make(chan error, 1)
	go func() {
		cc, err := Dial(env.addr, ClientOptions{Timeout: 10 * time.Second})
		if err != nil {
			inflight <- err
			return
		}
		defer cc.Close()
		_, err = cc.Insert(context.Background(), root.End)
		inflight <- err
	}()
	time.Sleep(100 * time.Millisecond) // let the insert reach the batcher

	shutCtx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	shutDone := make(chan error, 1)
	go func() { shutDone <- env.srv.Shutdown(shutCtx) }()
	time.Sleep(50 * time.Millisecond)
	release()

	if err := <-inflight; err != nil {
		t.Fatalf("in-flight insert lost during drain: %v", err)
	}
	if err := <-shutDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// The drained server rejects new work: the idle conn was closed and
	// the listener no longer accepts.
	if _, err := c.Lookup(ctx, root.Start); err == nil {
		t.Fatal("lookup succeeded after drain completed")
	}
	if err := <-env.done; err != nil {
		t.Fatalf("serve: %v", err)
	}
	if got := env.store.Count(); got != 4 {
		t.Fatalf("store count %d; want 4 (root + drained insert)", got)
	}
	if err := env.store.Close(); err != nil {
		t.Fatal(err)
	}
	if env.met.DrainNanos.Load() <= 0 {
		t.Fatal("drain duration not recorded")
	}
}

// Corrupted frames are detected by CRC and drop the connection; the
// client's retry loop reconnects and the session dedup keeps the op
// exactly-once.
func TestServeCorruptFrameDetected(t *testing.T) {
	env := startEnv(t, envOptions{})
	sched := faults.NewSchedule(42)
	sched.FailEveryKth(3, faults.ModePermanent, faults.OpWrite)
	dial := func() (net.Conn, error) {
		conn, err := net.Dial("tcp", env.addr)
		if err != nil {
			return nil, err
		}
		return NewFaultConn(conn, sched), nil
	}
	c, err := Dial(env.addr, ClientOptions{Timeout: 5 * time.Second, Dial: dial})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	root, err := c.InsertFirst(ctx)
	if err != nil {
		t.Fatalf("insert-first through corrupting conn: %v", err)
	}
	var elems []order.ElemLIDs
	for i := 0; i < 10; i++ {
		e, err := c.Insert(ctx, root.End)
		if err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		elems = append(elems, e)
	}
	if env.met.BadFrames.Load() == 0 {
		t.Fatal("no corrupt frame reached the server despite every-3rd-write corruption")
	}
	// Exactly-once despite retransmits: root + 10 elements.
	if got := env.store.Count(); got != 22 {
		t.Fatalf("store count %d; want 22 labels", got)
	}
	env.shutdown()
}
