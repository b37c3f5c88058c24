package serve

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"boxes/internal/core"
	"boxes/internal/order"
)

// Config configures a Server. Store is required; the zero value of every
// other field selects a sane production default. The Server does NOT own
// the store's lifecycle — the caller closes it after Shutdown returns, so
// tests and the sweep can inspect the store the server just served.
type Config struct {
	Store *core.Store

	// QueueDepth bounds the write admission queue; a full queue sheds
	// requests with StatusOverload instead of queuing unboundedly.
	// Default 256.
	QueueDepth int
	// BatchMax caps how many queued write requests the batcher coalesces
	// into one ApplyBatch transaction (one WAL commit). Default 32.
	BatchMax int
	// MaxSessions bounds the dedup session table: minting a session past
	// the bound evicts the least-recently-detached idle session, so
	// short-lived clients cannot grow server state without limit.
	// Default 4096.
	MaxSessions int
	// Metrics receives the server's counters and phase histograms
	// (optional; nil gets a private bundle, so metering is always safe).
	Metrics *Metrics
	// WrapConn, when set, wraps every accepted connection — the hook the
	// fault injector uses (see FaultConn). Applied after accept, before
	// the handshake.
	WrapConn func(net.Conn) net.Conn
	// Logf receives connection-level diagnostics (optional).
	Logf func(format string, args ...any)
}

// Server is the gateway: an accept loop, per-connection handlers that
// execute reads inline under the store's read lock, and a single batcher
// goroutine that drains the admission queue into ApplyBatch transactions.
type Server struct {
	cfg   Config
	epoch uint64 // boot identity, exposed in the handshake

	writeQ chan *writeReq
	stopQ  chan struct{} // closed to stop the batcher after a drain

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]*connState
	sessions map[uint64]*session
	nextSess uint64
	draining atomic.Bool
	closed   bool

	wgConns   sync.WaitGroup // connection handlers
	wgBatcher sync.WaitGroup // the batcher goroutine

	// hold is nil except in tests, which install a function that parks the
	// batcher with its next request in hand, before it drains the rest of
	// the group.
	hold atomic.Pointer[func()]
}

// connState tracks whether a connection handler is mid-request, so a
// drain can close idle connections (blocked in a frame read) immediately
// while busy ones finish and acknowledge their in-flight op.
type connState struct {
	busy atomic.Bool
}

// session is the dedup state enabling idempotent retries: one outstanding
// op per session, identified by a strictly increasing seq. lastResp is
// replayed verbatim when the client re-sends lastSeq after a lost ack.
// pendingSeq/pendingDone cover the window while a seq is still executing:
// a retry arriving on a fresh connection during that window (the original
// conn died with the op in the admission queue) waits for the outcome
// instead of re-executing it.
type session struct {
	id          uint64
	mu          sync.Mutex
	lastSeq     uint64
	lastResp    *Response
	pendingSeq  uint64        // seq currently executing (0 = none)
	pendingDone chan struct{} // closed when pendingSeq's execute returns

	// Guarded by the server's mu, not sess.mu:
	refs       int   // connections currently attached to this session
	lastActive int64 // UnixNano of the last detach, orders LRU eviction
}

// writeReq is one write admitted to the queue. done is buffered so the
// batcher never blocks completing a request whose conn died.
type writeReq struct {
	ops      []core.Op
	ctx      context.Context
	enqueued time.Time
	opName   string
	done     chan writeDone
}

type writeDone struct {
	results []core.OpResult
	err     error
}

// NewServer builds a server around cfg.Store.
func NewServer(cfg Config) (*Server, error) {
	if cfg.Store == nil {
		return nil, errors.New("serve: Config.Store is required")
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 256
	}
	if cfg.BatchMax <= 0 {
		cfg.BatchMax = 32
	}
	if cfg.MaxSessions <= 0 {
		cfg.MaxSessions = 4096
	}
	if cfg.Metrics == nil {
		// Callers that don't scrape metrics still hit the counters on
		// every path; a private bundle keeps those accesses safe.
		cfg.Metrics = NewMetrics()
	}
	s := &Server{
		cfg:      cfg,
		epoch:    uint64(time.Now().UnixNano()),
		writeQ:   make(chan *writeReq, cfg.QueueDepth),
		stopQ:    make(chan struct{}),
		conns:    make(map[net.Conn]*connState),
		sessions: make(map[uint64]*session),
	}
	cfg.Metrics.queueDepth = func() int { return len(s.writeQ) }
	s.wgBatcher.Add(1)
	go s.batcher()
	return s, nil
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Serve accepts connections on l until Shutdown closes it. It returns
// nil after a clean shutdown.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errors.New("serve: server already shut down")
	}
	s.listener = l
	s.mu.Unlock()
	for {
		conn, err := l.Accept()
		if err != nil {
			if s.draining.Load() {
				return nil
			}
			return err
		}
		if s.cfg.WrapConn != nil {
			conn = s.cfg.WrapConn(conn)
		}
		s.mu.Lock()
		if s.closed || s.draining.Load() {
			s.mu.Unlock()
			conn.Close()
			continue
		}
		st := &connState{}
		s.conns[conn] = st
		s.mu.Unlock()
		s.cfg.Metrics.ConnsAccepted.Add(1)
		s.cfg.Metrics.ConnsActive.Add(1)
		s.wgConns.Add(1)
		go s.handleConn(conn, st)
	}
}

func (s *Server) dropConn(conn net.Conn) {
	conn.Close()
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
	s.cfg.Metrics.ConnsActive.Add(-1)
	s.wgConns.Done()
}

// getSession resolves the handshake's session claim: 0 mints a fresh
// session; a known ID resumes it (the dedup path); an unknown non-zero ID
// (e.g. from before a restart) also mints fresh — the old dedup state is
// gone and the epoch change tells the client so. The handler detaches via
// releaseSession when its connection closes.
func (s *Server) getSession(id uint64) *session {
	s.mu.Lock()
	defer s.mu.Unlock()
	if id != 0 {
		if sess, ok := s.sessions[id]; ok {
			sess.refs++
			return sess
		}
	}
	if len(s.sessions) >= s.cfg.MaxSessions {
		s.evictSessionLocked()
	}
	s.nextSess++
	sess := &session{id: s.nextSess, refs: 1}
	s.sessions[sess.id] = sess
	s.cfg.Metrics.Sessions.Add(1)
	return sess
}

// evictSessionLocked drops the least-recently-detached session with no
// attached connection. If every session is attached the table grows past
// the bound rather than break a live session's dedup guarantee.
func (s *Server) evictSessionLocked() {
	var victim *session
	for _, sess := range s.sessions {
		if sess.refs > 0 {
			continue
		}
		if victim == nil || sess.lastActive < victim.lastActive {
			victim = sess
		}
	}
	if victim != nil {
		delete(s.sessions, victim.id)
		s.cfg.Metrics.Sessions.Add(-1)
	}
}

// releaseSession detaches one connection from sess, stamping the detach
// time that orders LRU eviction.
func (s *Server) releaseSession(sess *session) {
	s.mu.Lock()
	sess.refs--
	sess.lastActive = time.Now().UnixNano()
	s.mu.Unlock()
}

func (s *Server) handleConn(conn net.Conn, st *connState) {
	defer s.dropConn(conn)
	hello, err := readClientHello(conn)
	if err != nil {
		s.logf("serve: handshake: %v", err)
		if errors.Is(err, ErrBadFrame) {
			s.cfg.Metrics.BadFrames.Add(1)
		}
		return
	}
	sess := s.getSession(hello.Session)
	defer s.releaseSession(sess)
	sess.mu.Lock()
	known := sess.lastSeq
	sess.mu.Unlock()
	if err := writeServerHello(conn, serverHello{Session: sess.id, Epoch: s.epoch, KnownSeq: known}); err != nil {
		return
	}
	var in, out []byte // this connection's frame buffers, reused by every request
	for {
		in, err = readFrameInto(conn, in)
		if err != nil {
			if errors.Is(err, ErrBadFrame) {
				s.cfg.Metrics.BadFrames.Add(1)
				s.logf("serve: session %d: %v", sess.id, err)
			}
			return
		}
		req, err := decodeRequest(in)
		if err != nil {
			s.cfg.Metrics.BadFrames.Add(1)
			s.logf("serve: session %d: %v", sess.id, err)
			return
		}
		s.cfg.Metrics.Requests.Add(1)
		st.busy.Store(true)
		resp := s.dispatch(sess, req)
		t0 := time.Now()
		out = appendResponse(startFrame(out), resp)
		err = sendFrame(conn, out)
		st.busy.Store(false)
		if err != nil {
			// The ack is lost but the op's effect stands; the session's
			// dedup entry replays it when the client retries the seq.
			s.logf("serve: session %d: response write: %v", sess.id, err)
			return
		}
		s.cfg.Metrics.observePhase(OpName(req.Op), phaseRespond, time.Since(t0))
		if s.draining.Load() {
			// The in-flight op is acknowledged; nothing more is accepted
			// on this connection, so close it rather than waiting for the
			// client to notice the drain.
			return
		}
	}
}

// dispatch routes one request: dedup check, then read-inline or
// write-through-queue, recording the session's last response on the way
// out so a re-sent seq replays instead of re-applying.
func (s *Server) dispatch(sess *session, req *Request) *Response {
	var myDone chan struct{}
	if req.Seq != 0 {
		for {
			sess.mu.Lock()
			if req.Seq == sess.lastSeq && sess.lastResp != nil {
				resp := sess.lastResp
				sess.mu.Unlock()
				return resp
			}
			if req.Seq < sess.lastSeq {
				sess.mu.Unlock()
				return &Response{Seq: req.Seq, Status: StatusBadRequest,
					Msg: fmt.Sprintf("seq %d below session high-water %d", req.Seq, sess.lastSeq)}
			}
			if sess.pendingSeq == req.Seq {
				// The seq is executing on another connection: the original
				// conn died with the op still queued and the client
				// reconnected and re-sent. Adopt that execution's outcome —
				// running it again here would double-apply the write.
				wait := sess.pendingDone
				sess.mu.Unlock()
				<-wait
				continue // replay from lastResp, or re-execute if it was shed
			}
			myDone = make(chan struct{})
			sess.pendingSeq = req.Seq
			sess.pendingDone = myDone
			sess.mu.Unlock()
			break
		}
	}

	resp := s.execute(req)

	if req.Seq != 0 {
		sess.mu.Lock()
		// Not-applied rejections (shed, queued-deadline, draining) must
		// stay OUT of the dedup slot: the client retries them with the
		// SAME seq, and a recorded rejection would replay forever even
		// after the queue drained.
		if req.Seq > sess.lastSeq && seqSettled(resp.Status) {
			sess.lastSeq = req.Seq
			sess.lastResp = resp
		}
		if sess.pendingDone == myDone {
			sess.pendingSeq = 0
			sess.pendingDone = nil
		}
		sess.mu.Unlock()
		close(myDone)
	}
	return resp
}

// seqSettled reports whether a response settles its sequence number: the
// op was applied (OK) or failed definitively. Overload, queued-deadline,
// and draining rejections left the op un-applied, and the client re-sends
// the same seq expecting a fresh execution.
func seqSettled(status uint8) bool {
	switch status {
	case StatusOverload, StatusDeadline, StatusDraining:
		return false
	}
	return true
}

func (s *Server) execute(req *Request) *Response {
	// Draining rejects every NEW request (reads too — the conn should go
	// away); retried seqs of already-applied ops never reach here, they
	// replay from the dedup cache in dispatch.
	if s.draining.Load() {
		s.cfg.Metrics.Drained.Add(1)
		return &Response{Seq: req.Seq, Status: StatusDraining, Msg: "server is draining"}
	}
	switch req.Op {
	case OpLookup:
		label, err := s.cfg.Store.Lookup(req.LID)
		if err != nil {
			return errResponse(req.Seq, err)
		}
		return &Response{Seq: req.Seq, Status: StatusOK, Label: label}
	case OpCompare:
		cmp, err := s.cfg.Store.Compare(req.A, req.B)
		if err != nil {
			return errResponse(req.Seq, err)
		}
		return &Response{Seq: req.Seq, Status: StatusOK, Cmp: int8(cmp)}
	case OpInsert, OpInsertFirst, OpDeleteElement, OpDeleteSubtree, OpBatch:
		return s.executeWrite(req)
	default:
		return &Response{Seq: req.Seq, Status: StatusBadRequest, Msg: fmt.Sprintf("unknown opcode %d", req.Op)}
	}
}

// toCoreOps maps the wire request to core batch ops.
func toCoreOps(req *Request) ([]core.Op, error) {
	one := func(op uint8, lid order.LID, elem order.ElemLIDs) (core.Op, error) {
		switch op {
		case OpInsert:
			return core.Op{Kind: core.OpInsertBefore, LID: lid}, nil
		case OpInsertFirst:
			return core.Op{Kind: core.OpInsertFirst}, nil
		case OpDeleteElement:
			return core.Op{Kind: core.OpDeleteElement, Elem: elem}, nil
		case OpDeleteSubtree:
			return core.Op{Kind: core.OpDeleteSubtree, Elem: elem}, nil
		default:
			return core.Op{}, fmt.Errorf("opcode %d not allowed in a write batch", op)
		}
	}
	if req.Op != OpBatch {
		op, err := one(req.Op, req.LID, req.Elem)
		if err != nil {
			return nil, err
		}
		return []core.Op{op}, nil
	}
	ops := make([]core.Op, len(req.Batch))
	for i, b := range req.Batch {
		op, err := one(b.Op, b.LID, b.Elem)
		if err != nil {
			return nil, err
		}
		ops[i] = op
	}
	return ops, nil
}

// executeWrite admits the request to the bounded write queue and waits
// for the batcher to commit it. A full queue sheds immediately; a server
// mid-drain rejects; a deadline that expires while queued cancels before
// any op runs (the batcher re-checks ctx at pickup). Only writes carry the
// request's deadline as a context: reads run inline and never consult one.
func (s *Server) executeWrite(req *Request) *Response {
	ops, err := toCoreOps(req)
	if err != nil {
		return &Response{Seq: req.Seq, Status: StatusBadRequest, Msg: err.Error()}
	}
	ctx := context.Background()
	if req.DeadlineMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.DeadlineMS)*time.Millisecond)
		defer cancel()
	}
	wr := &writeReq{
		ops:      ops,
		ctx:      ctx,
		enqueued: time.Now(),
		opName:   OpName(req.Op),
		done:     make(chan writeDone, 1),
	}
	select {
	case s.writeQ <- wr:
	default:
		s.cfg.Metrics.Shed.Add(1)
		return &Response{Seq: req.Seq, Status: StatusOverload, Msg: "write queue full"}
	}
	d := <-wr.done
	if d.err != nil {
		if errors.Is(d.err, context.DeadlineExceeded) || errors.Is(d.err, context.Canceled) {
			s.cfg.Metrics.Deadline.Add(1)
			return &Response{Seq: req.Seq, Status: StatusDeadline, Msg: "deadline expired while queued"}
		}
		return errResponse(req.Seq, d.err)
	}
	return okWriteResponse(req, d.results)
}

func okWriteResponse(req *Request, results []core.OpResult) *Response {
	resp := &Response{Seq: req.Seq, Status: StatusOK}
	if req.Op == OpBatch {
		resp.Batch = make([]BatchResult, len(results))
		for i, r := range results {
			resp.Batch[i].Elem = r.Elem
		}
		return resp
	}
	if len(results) == 1 {
		resp.Elem = results[0].Elem
	}
	return resp
}

func errResponse(seq uint64, err error) *Response {
	status := StatusError
	switch {
	case errors.Is(err, order.ErrUnknownLID):
		status = StatusUnknownLID
	case errors.Is(err, core.ErrReadOnly):
		status = StatusReadOnly
	}
	return &Response{Seq: seq, Status: status, Msg: err.Error()}
}

// batcher is the single consumer of the write queue: it blocks for one
// request, greedily drains up to BatchMax-1 more without blocking, drops
// the ones whose deadline expired while queued, and commits the rest as
// ONE ApplyBatch transaction: one WAL commit and one fsync for the whole
// group, the store's only coalescing of writes. On a batch failure it
// degrades to per-request application so one poisoned request cannot fail
// its neighbors.
func (s *Server) batcher() {
	defer s.wgBatcher.Done()
	for {
		var first *writeReq
		select {
		case first = <-s.writeQ:
		case <-s.stopQ:
			// Drain stragglers admitted before the queue stopped.
			for {
				select {
				case wr := <-s.writeQ:
					s.commitGroup([]*writeReq{wr})
				default:
					return
				}
			}
		}
		if h := s.hold.Load(); h != nil {
			(*h)()
		}
		group := []*writeReq{first}
		for len(group) < s.cfg.BatchMax {
			select {
			case wr := <-s.writeQ:
				group = append(group, wr)
			default:
				goto collected
			}
		}
	collected:
		s.commitGroup(group)
	}
}

// commitGroup applies a group of admitted requests. Deadlines are checked
// exactly here — after the queue, before any op runs; past this point the
// batch commits regardless of request contexts (never cancel
// mid-WAL-commit).
func (s *Server) commitGroup(group []*writeReq) {
	live := group[:0]
	now := time.Now()
	for _, wr := range group {
		s.cfg.Metrics.observePhase(wr.opName, phaseQueue, now.Sub(wr.enqueued))
		if err := wr.ctx.Err(); err != nil {
			wr.done <- writeDone{err: err}
			continue
		}
		live = append(live, wr)
	}
	if len(live) == 0 {
		return
	}
	if len(live) == 1 {
		s.commitOne(live[0])
		return
	}
	ops := make([]core.Op, 0, len(live)*2)
	owner := make([]int, 0, cap(ops)) // ops index -> live index
	for i, wr := range live {
		for range wr.ops {
			owner = append(owner, i)
		}
		ops = append(ops, wr.ops...)
	}
	t0 := time.Now()
	results, err := s.cfg.Store.ApplyBatch(ops)
	if err == nil {
		d := time.Since(t0)
		off := 0
		for _, wr := range live {
			s.cfg.Metrics.observePhase(wr.opName, phaseApply, d)
			wr.done <- writeDone{results: results[off : off+len(wr.ops)]}
			off += len(wr.ops)
		}
		return
	}
	// One request's op failed (or the commit itself did): re-run each
	// request as its own transaction so only the guilty one fails. The
	// aborted combined batch left no durable state, so this is safe.
	var be *core.BatchError
	if !errors.As(err, &be) {
		// Commit-level failure (fault, read-only): everyone gets the truth.
		for _, wr := range live {
			wr.done <- writeDone{err: err}
		}
		return
	}
	for _, wr := range live {
		s.commitOne(wr)
	}
}

// commitOne applies a single request as its own transaction.
func (s *Server) commitOne(wr *writeReq) {
	t0 := time.Now()
	results, err := s.cfg.Store.ApplyBatchCtx(wr.ctx, wr.ops)
	s.cfg.Metrics.observePhase(wr.opName, phaseApply, time.Since(t0))
	var be *core.BatchError
	if errors.As(err, &be) {
		err = be.Err
	}
	wr.done <- writeDone{results: results, err: err}
}

// Shutdown drains gracefully: stop accepting, reject new work with
// StatusDraining, let every admitted (acknowledgeable) op commit and its
// response flush, then stop the batcher and close idle connections. The
// ctx deadline is the hard escape hatch: when it fires, remaining
// connections are force-closed. The store itself is NOT closed (the
// caller owns it); every acknowledged op is already durable in its WAL.
func (s *Server) Shutdown(ctx context.Context) error {
	start := time.Now()
	if !s.draining.CompareAndSwap(false, true) {
		return errors.New("serve: already shut down")
	}
	s.mu.Lock()
	l := s.listener
	s.closed = true
	s.mu.Unlock()
	if l != nil {
		l.Close()
	}

	// Close idle connections immediately (their handlers are blocked in a
	// frame read with no op in flight — nothing is lost). Busy handlers
	// finish their op, flush the ack, see the draining flag, and exit. A
	// conn that turns busy in the instant before Close loses only an
	// unacknowledged request, which the contract already leaves atomic.
	s.mu.Lock()
	for conn, st := range s.conns {
		if !st.busy.Load() {
			conn.Close()
		}
	}
	s.mu.Unlock()

	// Wait for handlers under the hard deadline.
	done := make(chan struct{})
	go func() {
		s.wgConns.Wait()
		close(done)
	}()
	var hardStop error
	select {
	case <-done:
	case <-ctx.Done():
		hardStop = ctx.Err()
		s.mu.Lock()
		for conn := range s.conns {
			conn.Close()
		}
		s.mu.Unlock()
		<-done
	}

	// No producers remain; stop the batcher (it drains stragglers).
	close(s.stopQ)
	s.wgBatcher.Wait()
	s.cfg.Metrics.DrainNanos.Store(int64(time.Since(start)))
	return hardStop
}
