package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"os"
	"path/filepath"

	"boxes/internal/core"
	"boxes/internal/difftest"
	"boxes/internal/faults"
	"boxes/internal/fsck"
	"boxes/internal/obs"
	"boxes/internal/order"
	"boxes/internal/pager"
)

// simBlockSize matches the crash-matrix harness: small blocks mean many
// raw write points per operation, so fault plans land in interesting
// places even on short histories.
const simBlockSize = 512

// Config identifies one simulated history. Seed, Scheme, Mix, Ops and
// FaultRate fully determine the trace; everything else tunes checking and
// artifact output without changing the schedule.
type Config struct {
	Seed      int64   `json:"seed"`
	Scheme    string  `json:"scheme"` // a difftest.Configs() name: wbox, wbox-o, bbox, bbox-o, naive-8
	Mix       string  `json:"mix"`
	Ops       int     `json:"ops"`
	FaultRate float64 `json:"fault_rate"`

	// VerifyEvery runs the full oracle check every that many committed
	// ops (0 = 64). Recoveries are always fully verified regardless.
	VerifyEvery int `json:"verify_every,omitempty"`

	// Dir hosts the store files (a fresh temp dir when empty). The run
	// removes its files unless KeepFiles is set.
	Dir       string `json:"-"`
	KeepFiles bool   `json:"-"`
	// ArtifactDir, when set, is passed to the store as CrashDir so
	// operation failures leave flight-recorder dumps next to the traces.
	ArtifactDir string `json:"-"`
	// Metrics receives the sim_* counters (a private registry when nil).
	Metrics *obs.Registry `json:"-"`
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.Mix == "" {
		out.Mix = MixMixed
	}
	if out.Ops <= 0 {
		out.Ops = 200
	}
	if out.VerifyEvery <= 0 {
		out.VerifyEvery = 64
	}
	return out
}

// Stats summarizes what one history exercised.
type Stats struct {
	Ops          int `json:"ops"`           // committed operations
	Lookups      int `json:"lookups"`       // read-only cross-checks
	Aborts       int `json:"aborts"`        // clean aborts (ENOSPC, transient commit faults)
	OpsLost      int `json:"ops_lost"`      // in-flight ops a recovery resolved at boundary k
	OpsRecovered int `json:"ops_recovered"` // in-flight ops a recovery resolved at boundary k+1
	Restarts     int `json:"restarts"`      // crash-restart cycles (incl. redo-crash re-restarts)
	RedoCrashes  int `json:"redo_crashes"`  // crashes injected during WAL redo
	Faults       int `json:"faults"`        // fault points armed
}

// Failure describes why a history failed; Class is stable across replays
// of the same trace, Msg carries the detail.
type Failure struct {
	Class      string `json:"class"`
	Msg        string `json:"msg"`
	EventIndex int    `json:"event_index"` // trace index at which the failure surfaced (len(trace) = final check)
}

func (f *Failure) Error() string {
	return fmt.Sprintf("sim failure [%s] at event %d: %s", f.Class, f.EventIndex, f.Msg)
}

// Report is the outcome of one history.
type Report struct {
	Config      Config   `json:"config"`
	TraceDigest string   `json:"trace_digest"`
	ExecDigest  string   `json:"exec_digest"` // hash of every observed result; equal digests = byte-identical replay
	Stats       Stats    `json:"stats"`
	Failure     *Failure `json:"failure,omitempty"`
}

// Run generates the trace for cfg and executes it. The returned error is
// reserved for harness-setup problems (temp dir, unknown scheme/mix);
// store misbehavior lands in Report.Failure.
func Run(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	trace, err := GenTrace(cfg)
	if err != nil {
		return nil, err
	}
	return RunTrace(cfg, trace)
}

// RunTrace executes an explicit event trace (replay and minimization).
func RunTrace(cfg Config, trace []Event) (*Report, error) {
	cfg = cfg.withDefaults()
	r, err := newRunner(cfg)
	if err != nil {
		return nil, err
	}
	defer r.cleanup()
	rep := &Report{Config: cfg, TraceDigest: TraceDigest(cfg, trace)}
	rep.Failure = r.execute(trace)
	rep.Stats = r.stats
	rep.ExecDigest = hex.EncodeToString(r.exec.Sum(nil))
	return rep, nil
}

// pendingOp is an operation with its positional operands resolved to
// concrete targets — the form that can be replayed against the shadow
// store to reconstruct boundary k+1 after a crash.
type pendingOp struct {
	kind  OpKind
	at    order.LID      // KInsertBefore target
	elem  order.ElemLIDs // delete target
	batch []order.LID    // KBatch insert-before targets
}

type redoPlan struct {
	delay uint32
	torn  bool
}

type runner struct {
	cfg    Config
	dcfg   difftest.Config
	dir    string
	ownDir bool
	path   string
	reg    *obs.Registry
	exec   hash.Hash

	fb *pager.FileBackend
	dc *pager.DiskController
	st *core.Store

	// shadow mirrors the committed state on a memory backend: after a
	// crash that recovered at boundary k+1, replaying the in-flight op on
	// the shadow reconstructs the LIDs the lost store handed out, because
	// LID allocation is a deterministic function of the structure state.
	shadow *core.Store

	oracle *order.Oracle
	elems  []order.ElemLIDs

	pendingRedo []redoPlan
	stats       Stats
}

func newRunner(cfg Config) (*runner, error) {
	var dcfg *difftest.Config
	for _, c := range difftest.Configs() {
		if c.Name == cfg.Scheme {
			cc := c
			dcfg = &cc
			break
		}
	}
	if dcfg == nil {
		var names []string
		for _, c := range difftest.Configs() {
			names = append(names, c.Name)
		}
		return nil, fmt.Errorf("sim: unknown scheme %q (want one of %v)", cfg.Scheme, names)
	}
	if _, err := mixWeights(cfg.Mix); err != nil {
		return nil, err
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	dir := cfg.Dir
	ownDir := false
	if dir == "" {
		d, err := os.MkdirTemp("", "boxsim-*")
		if err != nil {
			return nil, err
		}
		dir = d
		ownDir = true
	}
	r := &runner{
		cfg:    cfg,
		dcfg:   *dcfg,
		dir:    dir,
		ownDir: ownDir,
		path:   filepath.Join(dir, "sim.box"),
		reg:    reg,
		exec:   sha256.New(),
		oracle: order.NewOracle(),
	}
	reg.Inc(obs.CtrSimHistories)
	return r, nil
}

func (r *runner) ordinal() bool { return r.dcfg.Ordinal }

// structuralOpts are the create-time options of the store under test.
func (r *runner) structuralOpts() core.Options {
	opts := r.dcfg.Opts
	opts.BlockSize = simBlockSize
	return opts
}

// runtimeOpts are the options of every open, initial and recovery alike:
// durable synchronous commits with a small block LRU in play, mirroring
// the crash matrix.
func (r *runner) runtimeOpts() core.Options {
	return core.Options{
		Durable:     true,
		CacheBlocks: 8,
		Metrics:     r.reg,
		CrashDir:    r.cfg.ArtifactDir,
	}
}

func (r *runner) cleanup() {
	r.closeStore()
	if r.shadow != nil {
		r.shadow.Close()
		r.shadow = nil
	}
	if !r.cfg.KeepFiles {
		for _, suffix := range []string{"", ".crc", ".wal"} {
			os.Remove(r.path + suffix)
		}
		if r.ownDir {
			os.Remove(r.dir)
		}
	}
}

func (r *runner) closeStore() {
	if r.st != nil {
		r.st.Close() // error ignored: the backend may be simulated-dead
		r.st = nil
		r.fb = nil
		r.dc = nil
	} else if r.fb != nil {
		r.fb.Close()
		r.fb = nil
		r.dc = nil
	}
}

func (r *runner) fail(i int, class, format string, args ...any) *Failure {
	return &Failure{Class: class, Msg: fmt.Sprintf(format, args...), EventIndex: i}
}

// setup creates the store, its memory shadow, and commits one bootstrap
// element through the normal path, so the first crash always finds a
// committed metadata blob to recover.
func (r *runner) setup() *Failure {
	dc := pager.NewDiskController()
	dc.SkipRealSync = true
	fb, err := pager.CreateFileOpts(r.path, pager.FileOptions{BlockSize: simBlockSize, DiskControl: dc})
	if err != nil {
		return r.fail(0, "setup", "create store file: %v", err)
	}
	opts := r.structuralOpts()
	rt := r.runtimeOpts()
	opts.Durable = rt.Durable
	opts.CacheBlocks = rt.CacheBlocks
	opts.Metrics = rt.Metrics
	opts.CrashDir = rt.CrashDir
	opts.Backend = fb
	st, err := core.Open(opts)
	if err != nil {
		fb.Close()
		return r.fail(0, "setup", "open store: %v", err)
	}
	r.fb, r.dc, r.st = fb, dc, st

	shadowOpts := r.structuralOpts()
	shadowOpts.Backend = pager.NewMemBackend(simBlockSize)
	shadow, err := core.Open(shadowOpts)
	if err != nil {
		return r.fail(0, "setup", "open shadow store: %v", err)
	}
	r.shadow = shadow

	boot := &pendingOp{kind: KInsertFirst}
	lids, err := applyOp(r.st, boot)
	if err != nil {
		return r.fail(0, "setup", "bootstrap insert: %v", err)
	}
	return r.commitToModel(0, boot, lids)
}

func (r *runner) execute(trace []Event) *Failure {
	if f := r.setup(); f != nil {
		return f
	}
	for i, ev := range trace {
		switch ev.Kind {
		case EvFault:
			r.planFault(ev)
		case EvRedoCrash:
			r.pendingRedo = append(r.pendingRedo, redoPlan{delay: ev.Delay, torn: ev.Torn})
			r.stats.Faults++
		case EvOp:
			if f := r.execOp(i, ev); f != nil {
				return f
			}
		default:
			return r.fail(i, "harness", "unknown event kind %d", ev.Kind)
		}
	}
	// Final barrier: one last restart (consuming any queued redo crash),
	// then a full verification, a clean close, and a clean fsck.
	if f := r.restart(len(trace), nil); f != nil {
		return f
	}
	if f := r.fullVerify(len(trace)); f != nil {
		return f
	}
	st := r.st
	r.st, r.fb, r.dc = nil, nil, nil
	if err := st.Close(); err != nil {
		return r.fail(len(trace), "close", "final close: %v", err)
	}
	if f := r.fsck(len(trace)); f != nil {
		return f
	}
	return nil
}

// planFault arms one disk fault a few I/O points into the future of the
// live controller.
func (r *runner) planFault(ev Event) {
	var armed bool
	switch ev.Fault {
	case FSyncFail:
		idx := r.dc.Syncs() + 1 + int(ev.Delay)%6
		armed = r.dc.PlanSync(idx, pager.DiskSyncFail)
		if armed {
			r.reg.Inc(obs.CtrSimFaultsSyncFail)
		}
	case FCrash, FTorn:
		kind := pager.DiskCrash
		if ev.Fault == FTorn {
			kind = pager.DiskTornCrash
		}
		idx := r.dc.Writes() + 1 + int(ev.Delay)%40
		armed = r.dc.PlanWrite(idx, kind)
		if armed {
			r.reg.Inc(obs.CtrSimFaultsCrash)
		}
	case FNoSpace:
		idx := r.dc.Writes() + 1 + int(ev.Delay)%40
		armed = r.dc.PlanWrite(idx, pager.DiskNoSpace)
		if armed {
			r.reg.Inc(obs.CtrSimFaultsNoSpace)
		}
	case FTransient:
		idx := r.dc.Writes() + 1 + int(ev.Delay)%40
		armed = r.dc.PlanWrite(idx, pager.DiskTransient)
		if armed {
			r.reg.Inc(obs.CtrSimFaultsTransient)
		}
	}
	if armed {
		r.stats.Faults++
	}
}

// resolveOp turns an event's positional operands into concrete targets.
// It returns nil for ops that are no-ops in the current state (lookups on
// an empty document). Any mutating op on an empty document becomes
// KInsertFirst — that is what makes every event subsequence a valid trace.
func (r *runner) resolveOp(ev Event) *pendingOp {
	n := len(r.elems)
	if n == 0 {
		if ev.Op == KLookup {
			return nil
		}
		return &pendingOp{kind: KInsertFirst}
	}
	switch ev.Op {
	case KInsertFirst:
		// Positional rewrite: a non-empty document has no first insert;
		// treat it as an insert before the front.
		return &pendingOp{kind: KInsertBefore, at: r.elems[0].Start}
	case KInsertBefore:
		var e order.ElemLIDs
		switch (ev.B >> 1) & 3 {
		case targetFront:
			e = r.elems[0]
		case targetBack:
			e = r.elems[n-1]
		default:
			e = r.elems[int(ev.A)%n]
		}
		at := e.Start
		if ev.B&1 == 1 {
			at = e.End
		}
		return &pendingOp{kind: KInsertBefore, at: at}
	case KDeleteElement:
		return &pendingOp{kind: KDeleteElement, elem: r.elems[int(ev.A)%n]}
	case KDeleteSubtree:
		return &pendingOp{kind: KDeleteSubtree, elem: r.elems[int(ev.A)%n]}
	case KLookup:
		return &pendingOp{kind: KLookup, at: r.elems[int(ev.A)%n].Start,
			elem: r.elems[int(ev.B)%n]}
	case KBatch:
		size := 2 + int(ev.B)%4
		targets := make([]order.LID, size)
		for i := 0; i < size; i++ {
			e := r.elems[(int(ev.A)+i*2654435761)%n]
			if (ev.B>>(1+uint(i)))&1 == 1 {
				targets[i] = e.End
			} else {
				targets[i] = e.Start
			}
		}
		return &pendingOp{kind: KBatch, batch: targets}
	}
	return nil
}

// applyOp runs p against a store, returning the inserted elements (nil
// for deletes). It is the single code path shared by the store under test
// and the shadow, so both observe identical operations.
func applyOp(st *core.Store, p *pendingOp) ([]order.ElemLIDs, error) {
	switch p.kind {
	case KInsertFirst:
		e, err := st.InsertFirstElement()
		if err != nil {
			return nil, err
		}
		return []order.ElemLIDs{e}, nil
	case KInsertBefore:
		e, err := st.InsertElementBefore(p.at)
		if err != nil {
			return nil, err
		}
		return []order.ElemLIDs{e}, nil
	case KDeleteElement:
		return nil, st.DeleteElement(p.elem)
	case KDeleteSubtree:
		return nil, st.DeleteSubtree(p.elem)
	case KBatch:
		ops := make([]core.Op, len(p.batch))
		for i, at := range p.batch {
			ops[i] = core.Op{Kind: core.OpInsertBefore, LID: at}
		}
		res, err := st.ApplyBatch(ops)
		if err != nil {
			return nil, err
		}
		out := make([]order.ElemLIDs, len(res))
		for i := range res {
			out[i] = res[i].Elem
		}
		return out, nil
	}
	return nil, fmt.Errorf("applyOp: bad kind %v", p.kind)
}

func sameElems(a, b []order.ElemLIDs) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// commitToModel mirrors a committed op into the shadow store, checks LID
// determinism, and registers the result in the oracle and element list.
func (r *runner) commitToModel(i int, p *pendingOp, lids []order.ElemLIDs) *Failure {
	slids, err := applyOp(r.shadow, p)
	if err != nil {
		return r.fail(i, "harness", "shadow apply of %v: %v", p.kind, err)
	}
	if !sameElems(lids, slids) {
		return r.fail(i, "determinism", "%v returned LIDs %v on the store but %v on the shadow", p.kind, lids, slids)
	}
	if f := r.registerOp(i, p, lids); f != nil {
		return f
	}
	r.noteExec(p, lids)
	r.stats.Ops++
	r.reg.Inc(obs.CtrSimOps)
	return nil
}

// registerOp applies a committed op to the oracle and element list.
func (r *runner) registerOp(i int, p *pendingOp, lids []order.ElemLIDs) *Failure {
	switch p.kind {
	case KInsertFirst:
		if err := r.oracle.InsertFirstElement(lids[0]); err != nil {
			return r.fail(i, "harness", "oracle insert-first: %v", err)
		}
		r.elems = append(r.elems, lids[0])
	case KInsertBefore:
		if err := r.oracle.InsertElementBefore(lids[0], p.at); err != nil {
			return r.fail(i, "harness", "oracle insert-before: %v", err)
		}
		r.elems = append(r.elems, lids[0])
	case KBatch:
		for j, e := range lids {
			if err := r.oracle.InsertElementBefore(e, p.batch[j]); err != nil {
				return r.fail(i, "harness", "oracle batch insert %d: %v", j, err)
			}
			r.elems = append(r.elems, e)
		}
	case KDeleteElement:
		if err := r.oracle.Delete(p.elem.Start); err != nil {
			return r.fail(i, "harness", "oracle delete start: %v", err)
		}
		if err := r.oracle.Delete(p.elem.End); err != nil {
			return r.fail(i, "harness", "oracle delete end: %v", err)
		}
		for j, e := range r.elems {
			if e == p.elem {
				r.elems = append(r.elems[:j], r.elems[j+1:]...)
				break
			}
		}
	case KDeleteSubtree:
		if err := r.oracle.DeleteRange(p.elem.Start, p.elem.End); err != nil {
			return r.fail(i, "harness", "oracle delete range: %v", err)
		}
		kept := r.elems[:0]
		for _, e := range r.elems {
			if r.oracle.Position(e.Start) >= 0 {
				kept = append(kept, e)
			}
		}
		r.elems = kept
	}
	return nil
}

// noteExec folds an observed result into the execution digest.
func (r *runner) noteExec(p *pendingOp, lids []order.ElemLIDs) {
	var buf [8]byte
	r.exec.Write([]byte{byte(p.kind)})
	for _, e := range lids {
		binary.LittleEndian.PutUint64(buf[:], uint64(e.Start))
		r.exec.Write(buf[:])
		binary.LittleEndian.PutUint64(buf[:], uint64(e.End))
		r.exec.Write(buf[:])
	}
}

func (r *runner) execOp(i int, ev Event) *Failure {
	p := r.resolveOp(ev)
	if p == nil {
		return nil
	}
	if p.kind == KLookup {
		return r.execLookup(i, p)
	}
	lids, err := applyOp(r.st, p)
	if err != nil {
		return r.handleOpError(i, p, err)
	}
	if f := r.commitToModel(i, p, lids); f != nil {
		return f
	}
	if r.stats.Ops%r.cfg.VerifyEvery == 0 {
		return r.fullVerify(i)
	}
	return nil
}

// execLookup cross-checks the read path against the oracle: document
// order via Compare, and ordinal positions on ordinal-enabled schemes.
func (r *runner) execLookup(i int, p *pendingOp) *Failure {
	a, b := p.at, p.elem.Start
	got, err := r.st.Compare(a, b)
	if err != nil {
		return r.fail(i, "lookup-error", "compare(%d, %d): %v", a, b, err)
	}
	pa, pb := r.oracle.Position(a), r.oracle.Position(b)
	want := 0
	switch {
	case pa < pb:
		want = -1
	case pa > pb:
		want = 1
	}
	if got != want {
		return r.fail(i, "order-mismatch", "compare(%d, %d) = %d, oracle positions %d vs %d", a, b, got, pa, pb)
	}
	if r.ordinal() {
		ord, err := r.st.OrdinalLookup(a)
		if err != nil {
			return r.fail(i, "lookup-error", "ordinal lookup of %d: %v", a, err)
		}
		if int(ord) != pa {
			return r.fail(i, "order-mismatch", "ordinal of %d = %d, oracle position %d", a, ord, pa)
		}
	}
	var buf [8]byte
	r.exec.Write([]byte{0xfe, byte(got + 1)})
	binary.LittleEndian.PutUint64(buf[:], uint64(a))
	r.exec.Write(buf[:])
	r.stats.Lookups++
	return nil
}

// handleOpError classifies a failed mutation per the failure-semantics
// contract (DESIGN.md §13): crash/poison/degrade → restart and resolve the
// boundary; ENOSPC and transient commit faults → clean abort, the store
// must still match boundary k and stay writable; anything else is a bug.
func (r *runner) handleOpError(i int, p *pendingOp, err error) *Failure {
	crashed := errors.Is(err, pager.ErrCrashed)
	poisoned := errors.Is(err, pager.ErrPoisoned) || r.fb.Poisoned() != nil
	if crashed || poisoned || r.st.Degraded() || (r.dc != nil && r.dc.Crashed()) {
		return r.restart(i, p)
	}
	if errors.Is(err, pager.ErrNoSpace) || errors.Is(err, faults.ErrTransient) {
		if cerr := r.oracle.CheckAgainst(r.st.Labeler(), r.ordinal()); cerr != nil {
			return r.fail(i, "abort-divergence", "after clean abort of %v (%v): %v", p.kind, err, cerr)
		}
		r.exec.Write([]byte{0xfd})
		r.stats.Aborts++
		return nil
	}
	return r.fail(i, "op-error", "%v failed with no fault to blame: %v", p.kind, err)
}

// fsck verifies the closed store files are boxfsck-clean.
func (r *runner) fsck(i int) *Failure {
	rep, err := fsck.Check(r.path, fsck.Options{})
	if err != nil {
		return r.fail(i, "fsck", "fsck: %v", err)
	}
	if !rep.Clean() {
		return r.fail(i, "fsck", "fsck unclean: %v", rep.Problems)
	}
	if len(rep.Orphans) != 0 {
		return r.fail(i, "fsck", "fsck found %d orphaned blocks", len(rep.Orphans))
	}
	return nil
}

// restart is the crash-recovery protocol: close (ignoring errors from the
// simulated-dead device), fsck, reopen through WAL redo — possibly with a
// queued crash cutting the redo itself, in which case fsck and reopen
// again — then verify the recovered state sits at an exact op boundary: k
// (in-flight op lost) or k+1 (its commit record was already durable).
// resolve is the in-flight op, nil when the restart is a scheduled barrier
// rather than a mid-op crash.
func (r *runner) restart(i int, resolve *pendingOp) *Failure {
	r.closeStore()
	r.stats.Restarts++
	r.reg.Inc(obs.CtrSimRestarts)
	for attempt := 0; ; attempt++ {
		if attempt > 100 {
			return r.fail(i, "restart-loop", "restart did not converge after %d attempts", attempt)
		}
		if f := r.fsck(i); f != nil {
			return f
		}
		dc := pager.NewDiskController()
		dc.SkipRealSync = true
		if len(r.pendingRedo) > 0 {
			plan := r.pendingRedo[0]
			r.pendingRedo = r.pendingRedo[1:]
			kind := pager.DiskCrash
			if plan.torn {
				kind = pager.DiskTornCrash
			}
			dc.PlanWrite(1+int(plan.delay)%8, kind)
			r.stats.RedoCrashes++
			r.reg.Inc(obs.CtrSimRedoCrashes)
		}
		fb, err := pager.OpenFileOpts(r.path, pager.FileOptions{DiskControl: dc})
		if err != nil {
			if errors.Is(err, pager.ErrCrashed) || dc.Crashed() {
				r.stats.Restarts++
				r.reg.Inc(obs.CtrSimRestarts)
				continue
			}
			return r.fail(i, "reopen", "reopen after crash: %v", err)
		}
		st, err := core.OpenExisting(fb, r.runtimeOpts())
		if err != nil {
			fb.Close()
			if errors.Is(err, pager.ErrCrashed) || dc.Crashed() {
				r.stats.Restarts++
				r.reg.Inc(obs.CtrSimRestarts)
				continue
			}
			return r.fail(i, "reopen", "OpenExisting after crash: %v", err)
		}
		r.fb, r.dc, r.st = fb, dc, st
		break
	}
	if err := r.st.CheckInvariants(); err != nil {
		return r.fail(i, "invariants", "after recovery: %v", err)
	}
	return r.resolveBoundary(i, resolve)
}

// resolveBoundary decides which exact boundary the recovery landed on.
func (r *runner) resolveBoundary(i int, resolve *pendingOp) *Failure {
	errK := r.oracle.CheckAgainst(r.st.Labeler(), r.ordinal())
	if errK == nil {
		// Boundary k: the in-flight op (if any) never became durable.
		if resolve != nil {
			r.stats.OpsLost++
			r.exec.Write([]byte{0xfc, 0})
		}
		return r.sweepLookups(i)
	}
	if resolve == nil {
		return r.fail(i, "recovery-divergence", "recovered state diverged from committed boundary: %v", errK)
	}
	// Boundary k+1: the in-flight op's commit record was durable. Replay
	// it on the shadow to reconstruct the LIDs the lost store returned.
	lids, err := applyOp(r.shadow, resolve)
	if err != nil {
		return r.fail(i, "recovery-divergence",
			"recovered state matches neither k (%v) nor k+1 (shadow replay of %v failed: %v)", errK, resolve.kind, err)
	}
	if f := r.registerOp(i, resolve, lids); f != nil {
		return f
	}
	if err := r.oracle.CheckAgainst(r.st.Labeler(), r.ordinal()); err != nil {
		return r.fail(i, "recovery-divergence",
			"recovered state matches neither k (%v) nor k+1 (%v)", errK, err)
	}
	r.noteExec(resolve, lids)
	r.stats.Ops++
	r.stats.OpsRecovered++
	r.reg.Inc(obs.CtrSimOps)
	r.exec.Write([]byte{0xfc, 1})
	return r.sweepLookups(i)
}

// sweepLookups re-reads every live label through the store's lookup path
// (through the block LRU the runtime options enable) and checks strict
// document order — CheckAgainst goes through the labeler directly, so this
// is the only coverage the store's read path gets after recovery.
func (r *runner) sweepLookups(i int) *Failure {
	var prev order.Label
	for j, lid := range r.oracle.LIDs() {
		lab, err := r.st.Lookup(lid)
		if err != nil {
			return r.fail(i, "lookup-error", "lookup of %d after recovery: %v", lid, err)
		}
		if j > 0 && lab <= prev {
			return r.fail(i, "order-mismatch", "lookups out of order at position %d", j)
		}
		prev = lab
	}
	return nil
}

// fullVerify is the strong check: oracle equality through the labeler,
// the cached-lookup sweep, and structural invariants.
func (r *runner) fullVerify(i int) *Failure {
	if err := r.oracle.CheckAgainst(r.st.Labeler(), r.ordinal()); err != nil {
		return r.fail(i, "oracle-mismatch", "%v", err)
	}
	if f := r.sweepLookups(i); f != nil {
		return f
	}
	if err := r.st.CheckInvariants(); err != nil {
		return r.fail(i, "invariants", "%v", err)
	}
	return nil
}
