package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"boxes/internal/core"
	"boxes/internal/lidf"
	"boxes/internal/obs"
	"boxes/internal/order"
	"boxes/internal/pager"
	"boxes/internal/serve"
)

// The ladder replays the end-to-end run's request stream, one caller, against
// five public entry points, each a strict superset of the one inside it:
//
//	structure ⊂ core_mem ⊂ core_file ⊂ core_durable ⊂ served
//
// A rung's median minus the inner rung's median is the outer layer's self
// time. The spans come from the benchmark's own calls; nothing inside the
// program is touched.
var rungNames = []string{"structure", "core_mem", "core_file", "core_durable", "served"}

// span is one call into one rung. op_index identifies the request; a
// span's parent is the span with the same op_index on the rung named by
// Parent (the next-outer one).
type span struct {
	Workload string `json:"workload"`
	Rung     string `json:"rung"`
	Kind     string `json:"kind"`
	Op       int    `json:"op_index"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	Parent   string `json:"parent,omitempty"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	workload string
	epoch    time.Time
	spans    []span
}

func (t *tracer) add(rung, parent string, k opKind, op int, start, end time.Time) {
	t.spans = append(t.spans, span{t.workload, rung, k.String(), op,
		int64(start.Sub(t.epoch)), int64(end.Sub(t.epoch)), parent})
}

func writeSpans(path string, spans []span) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// rung is one entry point, opened on its own copy of the set-up image.
type rung struct {
	name  string
	img   *image // whose elems the generator resolves against
	call  func(r request) (order.ElemLIDs, error)
	io    func() pager.IOStats
	wal   func() pager.WALStats // nil over a MemBackend
	close func() error
}

// openMem bulk-loads the image's tree into a default MemBackend store.
func openMem(img *image, scheme core.Scheme) (*core.Store, *image, error) {
	st, err := core.Open(core.Options{Scheme: scheme, BlockSize: blockSize})
	if err != nil {
		return nil, nil, err
	}
	doc, err := st.Load(img.tree)
	if err != nil {
		st.Close()
		return nil, nil, err
	}
	view := *img
	view.elems = doc.Elems
	return st, &view, nil
}

func openStructure(name string, img *image, scheme core.Scheme) (*rung, error) {
	st, view, err := openMem(img, scheme)
	if err != nil {
		return nil, err
	}
	lab := st.Labeler()
	return &rung{
		name: name,
		img:  view,
		call: func(r request) (order.ElemLIDs, error) {
			switch r.verb {
			case verbLookup:
				_, err := lab.Lookup(r.lid)
				return order.ElemLIDs{}, err
			case verbInsert:
				return lab.InsertElementBefore(r.lid)
			default:
				if err := lab.Delete(r.elem.Start); err != nil {
					return order.ElemLIDs{}, err
				}
				return order.ElemLIDs{}, lab.Delete(r.elem.End)
			}
		},
		io:    st.Stats,
		close: st.Close,
	}, nil
}

// syncCall drives a SyncStore the way the server does: lookups inline,
// every write a one-op ApplyBatch.
func syncCall(ss *core.SyncStore) func(r request) (order.ElemLIDs, error) {
	return func(r request) (order.ElemLIDs, error) {
		switch r.verb {
		case verbLookup:
			_, err := ss.Lookup(r.lid)
			return order.ElemLIDs{}, err
		case verbInsert:
			res, err := ss.ApplyBatch([]core.Op{{Kind: core.OpInsertBefore, LID: r.lid}})
			if err != nil {
				return order.ElemLIDs{}, err
			}
			return res[0].Elem, nil
		default:
			_, err := ss.ApplyBatch([]core.Op{{Kind: core.OpDeleteElement, Elem: r.elem}})
			return order.ElemLIDs{}, err
		}
	}
}

func openCoreMem(img *image) (*rung, error) {
	st, view, err := openMem(img, img.scheme)
	if err != nil {
		return nil, err
	}
	ss := core.NewSyncStore(st)
	return &rung{name: "core_mem", img: view, call: syncCall(ss), io: ss.Stats, close: ss.Close}, nil
}

// openFileStore opens a fresh copy of the pristine image as boxserve does.
func openFileStore(pristine, dir string, noSync bool) (*core.SyncStore, *pager.FileBackend, error) {
	path, err := copyImage(pristine, dir)
	if err != nil {
		return nil, nil, err
	}
	fb, err := pager.OpenFileOpts(path, pager.FileOptions{NoSync: noSync})
	if err != nil {
		return nil, nil, err
	}
	st, err := core.OpenExisting(fb, storeOptions())
	if err != nil {
		fb.Close()
		return nil, nil, err
	}
	return core.NewSyncStore(st), fb, nil
}

func openCoreFile(name string, img *image, pristine, dir string, noSync bool) (*rung, error) {
	ss, fb, err := openFileStore(pristine, dir, noSync)
	if err != nil {
		return nil, err
	}
	return &rung{name: name, img: img, call: syncCall(ss), io: ss.Stats, wal: fb.WALStats, close: ss.Close}, nil
}

// inproc is a serve.Server in the benchmark's own process, over a store
// opened as boxserve opens it.
type inproc struct {
	ss     *core.SyncStore
	fb     *pager.FileBackend
	srv    *serve.Server
	addr   string
	served chan error
}

func startInproc(pristine, dir string) (*inproc, error) {
	ss, fb, err := openFileStore(pristine, dir, false)
	if err != nil {
		return nil, err
	}
	srv, err := serve.NewServer(serve.Config{Store: ss, Metrics: serve.NewMetrics()})
	if err != nil {
		ss.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		ss.Close()
		return nil, err
	}
	p := &inproc{ss: ss, fb: fb, srv: srv, addr: ln.Addr().String(), served: make(chan error, 1)}
	go func() { p.served <- srv.Serve(ln) }()
	return p, nil
}

func (p *inproc) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := p.srv.Shutdown(ctx)
	if serr := <-p.served; err == nil {
		err = serr
	}
	if cerr := p.ss.Close(); err == nil {
		err = cerr
	}
	return err
}

func openServed(img *image, pristine, dir string) (*rung, error) {
	p, err := startInproc(pristine, dir)
	if err != nil {
		return nil, err
	}
	c, err := serve.Dial(p.addr, serve.ClientOptions{Timeout: opTimeout})
	if err != nil {
		p.stop()
		return nil, err
	}
	call := clientCaller(c)
	return &rung{
		name: "served",
		img:  img,
		call: func(r request) (order.ElemLIDs, error) {
			e, _, err := call(context.Background(), r)
			return e, err
		},
		io:  p.ss.Stats,
		wal: p.fb.WALStats,
		close: func() error {
			c.Close()
			return p.stop()
		},
	}, nil
}

// kindStats is what one rung measured for one kind of request.
type kindStats struct {
	durs          []int64 // ns, one per op
	allocs, bytes uint64  // runtime.MemStats deltas
	reads, writes uint64  // pager block I/Os, the paper's metric
}

func (k *kindStats) medianUS() float64 {
	return float64(quantile(k.durs, 0.5)) / 1e3
}

type rungResult struct {
	kinds [numKinds]kindStats
	wal   pager.WALStats // over the whole replay
}

// replay runs the end-to-end run's stream against rg with one caller until the
// rung has seen the configured number of lookups and of writes, of the
// kinds the workload issues. Lookups past their quota are skipped (they
// have no effect); writes never are, because later requests refer to what
// they inserted. Allocation and block-I/O counters are read only where the
// stream changes kind, so the reads stay out of the timed calls and the
// deltas are exact per kind.
func replay(cfg *config, tr *tracer, w workload, rg *rung, parent string) (*rungResult, error) {
	g := newGen(w, rg.img, cfg.seed, 0, e2eConns)
	var need [numKinds]int
	if w.issues(kindLookup) {
		need[kindLookup] = cfg.ladderLookups
	}
	if w.issues(kindWrite) {
		need[kindWrite] = cfg.ladderWrites
	}
	res := &rungResult{}
	for k := range res.kinds {
		res.kinds[k].durs = make([]int64, 0, need[k]+need[k]/4)
	}
	var wal0 pager.WALStats
	if rg.wal != nil {
		wal0 = rg.wal()
	}

	var (
		ms   runtime.MemStats
		io   pager.IOStats
		cur  = numKinds // no kind yet
		mark = func(next opKind) {
			var m runtime.MemStats
			runtime.ReadMemStats(&m)
			s := rg.io()
			if cur != numKinds {
				ks := &res.kinds[cur]
				ks.allocs += m.Mallocs - ms.Mallocs
				ks.bytes += m.TotalAlloc - ms.TotalAlloc
				ks.reads += s.Reads - io.Reads
				ks.writes += s.Writes - io.Writes
			}
			ms, io, cur = m, s, next
		}
	)
	for op := 0; len(res.kinds[kindLookup].durs) < need[kindLookup] || len(res.kinds[kindWrite].durs) < need[kindWrite]; op++ {
		r := g.next()
		k := r.verb.kind()
		if k == kindLookup && len(res.kinds[k].durs) >= need[k] {
			continue
		}
		if k != cur {
			mark(k)
		}
		t0 := time.Now()
		e, err := rg.call(r)
		t1 := time.Now()
		if err != nil {
			return nil, fmt.Errorf("rung %s, op %d (%s): %w", rg.name, op, k, err)
		}
		g.ack(r, e)
		res.kinds[k].durs = append(res.kinds[k].durs, int64(t1.Sub(t0)))
		tr.add(rg.name, parent, k, op, t0, t1)
	}
	mark(numKinds)
	if rg.wal != nil {
		res.wal = walDelta(rg.wal(), wal0)
	}
	return res, nil
}

func walDelta(a, b pager.WALStats) pager.WALStats {
	return pager.WALStats{
		Commits:      a.Commits - b.Commits,
		WALBytes:     a.WALBytes - b.WALBytes,
		DataBytes:    a.DataBytes - b.DataBytes,
		Syncs:        a.Syncs - b.Syncs,
		GroupCommits: a.GroupCommits - b.GroupCommits,
		GroupedTxns:  a.GroupedTxns - b.GroupedTxns,
	}
}

// traced is the traced run of one workload: the ladder, the concurrent
// pass and, on read_point, the direct calls. e2e is the untraced reference
// the gap and the tracing overhead are taken against; its by-kind medians
// are reported as ref.*_p50_us so the columns can be added up, and its
// whole-window figures as the rest of ref.*: what the quiet deciles the
// end-to-end run gates on leave out.
func traced(ctx context.Context, cfg *config, w workload, img *image, pristine string, e2e *loadResult, window time.Duration) ([]metric, []span, error) {
	tr := &tracer{workload: w.name, epoch: time.Now()}
	var out []metric
	dir, err := os.MkdirTemp(cfg.tmp, w.name+"-ladder-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)
	pristinePath := filepath.Join(pristine, filepath.Base(img.path))

	openers := []func() (*rung, error){
		func() (*rung, error) { return openStructure("structure", img, w.scheme) },
		func() (*rung, error) { return openCoreMem(img) },
		func() (*rung, error) {
			return openCoreFile("core_file", img, pristinePath, filepath.Join(dir, "core_file"), true)
		},
		func() (*rung, error) {
			return openCoreFile("core_durable", img, pristinePath, filepath.Join(dir, "core_durable"), false)
		},
		func() (*rung, error) { return openServed(img, pristinePath, filepath.Join(dir, "served")) },
	}
	run := func(open func() (*rung, error), parent string) (*rungResult, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		rg, err := open()
		if err != nil {
			return nil, err
		}
		res, err := replay(cfg, tr, w, rg, parent)
		if cerr := rg.close(); err == nil {
			err = cerr
		}
		return res, err
	}

	kinds := []opKind{kindLookup, kindWrite}
	results := make([]*rungResult, len(openers))
	for i, open := range openers {
		parent := ""
		if i+1 < len(rungNames) {
			parent = rungNames[i+1]
		}
		if results[i], err = run(open, parent); err != nil {
			return nil, nil, err
		}
		for _, k := range kinds {
			if ks := &results[i].kinds[k]; len(ks.durs) > 0 {
				n := float64(len(ks.durs))
				pre := fmt.Sprintf("rung.%s.%s_", rungNames[i], k)
				out = append(out,
					metric{pre + "us", ks.medianUS(), "us", len(ks.durs)},
					metric{pre + "allocs", float64(ks.allocs) / n, "count", len(ks.durs)},
					metric{pre + "bytes", float64(ks.bytes) / n, "B", len(ks.durs)})
			}
		}
	}

	// The structure rung for both schemes: the workload's own was just
	// run; the other replays the same stream over the other tree.
	names := map[core.Scheme]string{core.SchemeWBox: "wbox", core.SchemeBBox: "bbox"}
	other := core.SchemeBBox
	if w.scheme == core.SchemeBBox {
		other = core.SchemeWBox
	}
	own, otherName := names[w.scheme], names[other]
	otherRes, err := run(func() (*rung, error) { return openStructure("structure."+otherName, img, other) }, "")
	if err != nil {
		return nil, nil, err
	}

	// Self times: each rung's median minus the inner rung's, as measured
	// and never clamped. With the structure rung below and the gap above,
	// each kind's column adds up to the end-to-end median by construction.
	selfNames := []string{"core.%s_self_us", "pager.file_%s_self_us", "pager.fsync_%s_self_us", "serve.%s_self_us"}
	for _, k := range kinds {
		n := len(results[0].kinds[k].durs)
		if n == 0 {
			continue
		}
		out = append(out,
			metric{fmt.Sprintf("%s.%s_us", own, k), results[0].kinds[k].medianUS(), "us", n},
			metric{fmt.Sprintf("%s.%s_us", otherName, k), otherRes.kinds[k].medianUS(), "us", len(otherRes.kinds[k].durs)})
		for i, name := range selfNames {
			self := results[i+1].kinds[k].medianUS() - results[i].kinds[k].medianUS()
			out = append(out, metric{fmt.Sprintf(name, k), self, "us", 0})
		}
		if p50, ok := e2e.wholeUS(k, 0.5); ok {
			out = append(out,
				metric{fmt.Sprintf("gap.%s_us", k), p50 - results[4].kinds[k].medianUS(), "us", 0},
				metric{fmt.Sprintf("ref.%s_p50_us", k), p50, "us", e2e.acked(k)})
		}
	}
	// The textbook tails over every sample of the window, stalls included,
	// and the plain mean rate: too unsteady between runs in this sandbox to
	// gate, still worth reading.
	for _, k := range kinds {
		if p99, ok := e2e.wholeUS(k, 0.99); ok {
			out = append(out, metric{fmt.Sprintf("ref.%s_p99_us", k), p99, "us", e2e.acked(k)})
		}
	}
	all := e2e.acked(numKinds)
	out = append(out, metric{"ref.ops_per_s", float64(all) / (float64(e2e.slices) * slice.Seconds()), "1/s", all})

	// Counts from public getters, exact with one caller.
	mem, durable := results[1], results[3]
	if ks := &mem.kinds[kindLookup]; len(ks.durs) > 0 {
		out = append(out, metric{"pager.reads_per_lookup", float64(ks.reads) / float64(len(ks.durs)), "count", len(ks.durs)})
	}
	if ks := &mem.kinds[kindWrite]; len(ks.durs) > 0 {
		n := float64(len(ks.durs))
		out = append(out,
			metric{"pager.reads_per_write", float64(ks.reads) / n, "count", len(ks.durs)},
			metric{"pager.writes_per_write", float64(ks.writes) / n, "count", len(ks.durs)},
			metric{"pager.wal_bytes_per_write", float64(durable.wal.WALBytes) / n, "B", len(ks.durs)},
			metric{"pager.data_bytes_per_write", float64(durable.wal.DataBytes) / n, "B", len(ks.durs)})
	}

	conc, err := concurrentPass(ctx, cfg, tr, w, img, pristinePath, filepath.Join(dir, "concurrent"), e2e, window)
	if err != nil {
		return nil, nil, err
	}
	out = append(out, conc...)

	// The direct calls do not depend on the workload: one copy, on the
	// workload whose read path they sit under.
	if w.name == "read_point" {
		direct, err := directCalls(pristinePath, filepath.Join(dir, "direct"))
		if err != nil {
			return nil, nil, err
		}
		out = append(out, direct...)
	}
	return out, tr.spans, nil
}

// concurrentPass runs the workload with two connections against an
// in-process server, recording a span per op: what one caller cannot show
// (group sizes, commits shared between writers) and what the recording
// itself costs against the untraced end-to-end run.
func concurrentPass(ctx context.Context, cfg *config, tr *tracer, w workload, img *image, pristine, dir string, e2e *loadResult, window time.Duration) ([]metric, error) {
	p, err := startInproc(pristine, dir)
	if err != nil {
		return nil, err
	}
	var spans [concurrentConns][]span
	wal0 := p.fb.WALStats()
	load, err := runLoad(ctx, cfg, w, img, p.addr, 0, concurrentConns, window, func(conn int, k opKind, start, end time.Time) {
		spans[conn] = append(spans[conn], span{w.name, "concurrent", k.String(), len(spans[conn])*concurrentConns + conn,
			int64(start.Sub(tr.epoch)), int64(end.Sub(tr.epoch)), ""})
	})
	wal := walDelta(p.fb.WALStats(), wal0)
	if serr := p.stop(); err == nil {
		err = serr
	}
	if err == nil {
		err = load.firstErr
	}
	if err != nil {
		return nil, fmt.Errorf("concurrent pass: %w", err)
	}
	for _, s := range spans {
		tr.spans = append(tr.spans, s...)
	}

	var out []metric
	var writes uint64
	for _, g := range load.gens {
		writes += g.inserts + g.deletes
	}
	if writes > 0 && wal.Commits > 0 && wal.GroupCommits > 0 {
		out = append(out,
			metric{"serve.writes_per_commit", float64(writes) / float64(wal.Commits), "count", int(writes)},
			metric{"pager.group_mean", float64(wal.GroupedTxns) / float64(wal.GroupCommits), "count", int(wal.GroupCommits)},
			metric{"pager.syncs_per_write", float64(wal.Syncs) / float64(writes), "count", int(writes)})
	}
	for _, k := range []opKind{kindLookup, kindWrite} {
		p50, ok := load.wholeUS(k, 0.5)
		if !ok {
			continue
		}
		p99, _ := load.wholeUS(k, 0.99)
		out = append(out,
			metric{fmt.Sprintf("concurrent.%s_p50_us", k), p50, "us", load.acked(k)},
			metric{fmt.Sprintf("concurrent.%s_p99_us", k), p99, "us", load.acked(k)})
		if ref, ok := e2e.wholeUS(k, 0.5); ok {
			out = append(out, metric{fmt.Sprintf("trace.%s_overhead_share", k), (p50 - ref) / ref, "share", 0})
		}
	}
	return out, nil
}

// measure times n calls of fn and reads the allocator before and after.
func measure(n int, fn func(i int) error) (ns, allocs, bytes float64, err error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for i := 0; i < n && err == nil; i++ {
		err = fn(i)
	}
	d := time.Since(t0)
	runtime.ReadMemStats(&m1)
	f := float64(n)
	return float64(d) / f, float64(m1.Mallocs-m0.Mallocs) / f, float64(m1.TotalAlloc-m0.TotalAlloc) / f, err
}

// directCalls measures single calls into the layers under every rung.
func directCalls(pristine, dir string) ([]metric, error) {
	const n = 20000
	var out []metric
	add := func(prefix string, ns, allocs, bytes float64) {
		out = append(out,
			metric{prefix + "_ns", ns, "ns", n},
			metric{prefix + "_allocs", allocs, "count", n},
			metric{prefix + "_bytes", bytes, "B", n})
	}

	// pager.Store.Read served by a warm LRU.
	hit := pager.NewMemStore(blockSize, pager.WithCache(64))
	ids := make([]pager.BlockID, 32)
	buf := make([]byte, blockSize)
	for i := range ids {
		id, err := hit.Allocate()
		if err != nil {
			return nil, err
		}
		if err := hit.Write(id, buf); err != nil {
			return nil, err
		}
		ids[i] = id
	}
	ns, allocs, bytes, err := measure(n, func(i int) error {
		_, err := hit.Read(ids[i%len(ids)])
		return err
	})
	if err != nil {
		return nil, err
	}
	add("pager.read_hit", ns, allocs, bytes)

	// pager.Store.Read from the file backend, no cache, checksum verified.
	path, err := copyImage(pristine, dir)
	if err != nil {
		return nil, err
	}
	fb, err := pager.OpenFile(path)
	if err != nil {
		return nil, err
	}
	miss := pager.NewStore(fb)
	defer miss.Close()
	free, err := fb.FreeBlocks()
	if err != nil {
		return nil, err
	}
	isFree := make(map[pager.BlockID]bool, len(free))
	for _, id := range free {
		isFree[id] = true
	}
	var live []pager.BlockID
	for id := pager.BlockID(1); id < fb.Bound(); id++ {
		if !isFree[id] {
			live = append(live, id)
		}
	}
	rng := rand.New(rand.NewSource(1))
	rng.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
	ns, allocs, bytes, err = measure(n, func(i int) error {
		_, err := miss.Read(live[i%len(live)])
		return err
	})
	if err != nil {
		return nil, err
	}
	add("pager.read_miss", ns, allocs, bytes)

	// lidf.File.GetU64 over a MemBackend.
	lf, err := lidf.New(pager.NewMemStore(blockSize), 8)
	if err != nil {
		return nil, err
	}
	lids := make([]order.LID, 4096)
	for i := range lids {
		if lids[i], err = lf.Alloc(); err != nil {
			return nil, err
		}
		if err := lf.SetU64(lids[i], uint64(i)); err != nil {
			return nil, err
		}
	}
	rng.Shuffle(len(lids), func(i, j int) { lids[i], lids[j] = lids[j], lids[i] })
	ns, _, _, err = measure(n, func(i int) error {
		_, err := lf.GetU64(lids[i%len(lids)])
		return err
	})
	if err != nil {
		return nil, err
	}
	out = append(out, metric{"lidf.get_ns", ns, "ns", n})

	// The always-on instrumentation core wraps every op in.
	reg := obs.NewRegistry()
	reg.SetScheme("W-BOX")
	ns, allocs, _, _ = measure(n, func(i int) error {
		c := reg.Begin("W-BOX", obs.OpLookup, uint64(i), 0)
		d := reg.End(c, uint64(i)+2, 0, nil)
		reg.ObservePhase(obs.OpLookup, obs.PhaseStructure, d)
		return nil
	})
	out = append(out, metric{"obs.op_ns", ns, "ns", n}, metric{"obs.op_allocs", allocs, "count", n})
	return out, nil
}
