package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"

	"boxes/internal/core"
	"boxes/internal/order"
)

// The closed-loop client counts: one goroutine and one serve.Dial each.
// Every gated figure comes from a single connection, so that client and
// server take turns and never run more threads at once than the sandbox has
// processors; only the traced run's concurrent pass uses two. Targets of
// writes are partitioned by element index mod the connection count, which
// the verification relies on.
const (
	e2eConns        = 1
	concurrentConns = 2
)

type mix int

const (
	mixReadPoint mix = iota
	mixWriteScatter
	mixHot
)

// workload is one traffic mix. The names are fixed: later issues cite them.
type workload struct {
	name   string
	scheme core.Scheme
	mix    mix
	// stream keys the op-stream seed, so mixed_hot_bbox replays exactly
	// mixed_hot's requests against the other structure.
	stream string
}

// Why each is here is recorded once, in BENCHMARK.json.
var workloads = []workload{
	{"read_point", core.SchemeWBox, mixReadPoint, "read_point"},
	{"write_scatter", core.SchemeWBox, mixWriteScatter, "write_scatter"},
	{"mixed_hot", core.SchemeWBox, mixHot, "mixed_hot"},
	{"mixed_hot_bbox", core.SchemeBBox, mixHot, "mixed_hot"},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func (w workload) issues(k opKind) bool {
	switch w.mix {
	case mixReadPoint:
		return k == kindLookup
	case mixWriteScatter:
		return k == kindWrite
	default:
		return true
	}
}

// opKind is the metric class of a request: inserts and deletes are both
// durable writes and share one latency distribution.
type opKind uint8

const (
	kindLookup opKind = iota
	kindWrite
	numKinds
)

func (k opKind) String() string {
	if k == kindLookup {
		return "lookup"
	}
	return "write"
}

type verb uint8

const (
	verbLookup verb = iota
	verbInsert
	verbDelete
)

func (v verb) kind() opKind {
	if v == verbLookup {
		return kindLookup
	}
	return kindWrite
}

// request is one generated operation, already resolved to the LIDs the
// server understands.
type request struct {
	verb   verb
	lid    order.LID      // lookup subject, or the tag an insert goes before
	elem   order.ElemLIDs // delete subject
	target int32          // insert/delete: base element whose start tag anchors the chain
	pos    int32          // lookup of a base-document tag: its document position, else -1
	live   int            // delete: index into gen.live
}

const (
	hotTargets   = 16
	zipfS        = 1.1
	recentWindow = 1024
	insertShare  = 0.10 // mixed_hot
	deleteShare  = 0.20 // write_scatter
)

type ownElem struct {
	elem   order.ElemLIDs
	target int32
}

// gen produces one connection's request stream. The random choices depend
// only on (seed, stream, conn) and on how many of the connection's own
// writes were acknowledged, never on the LIDs the server hands back, so the
// abstract stream is the same on every run and on every ladder rung.
type gen struct {
	w           workload
	conn, conns int // this connection, of how many
	img         *image
	rng         *rand.Rand

	// chains holds, per touched target, the connection's live inserts in
	// the order they were acknowledged: each went immediately before the
	// target's start tag, so document order must equal this order.
	chains map[int32][]order.ElemLIDs
	live   []ownElem // write_scatter: candidates for deletion

	hot    []int32
	zipf   *rand.Zipf
	recent [recentWindow]order.ElemLIDs
	nIns   int

	inserts, deletes uint64 // acknowledged
}

func streamSeed(seed int64, stream string, conn int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%d", seed, stream, conn)
	return int64(h.Sum64())
}

func newGen(w workload, img *image, seed int64, conn, conns int) *gen {
	g := &gen{
		w:      w,
		conn:   conn,
		conns:  conns,
		img:    img,
		rng:    rand.New(rand.NewSource(streamSeed(seed, w.stream, conn))),
		chains: make(map[int32][]order.ElemLIDs),
	}
	if w.mix == mixHot {
		for len(g.hot) < hotTargets {
			t := g.ownTarget()
			if _, dup := g.chains[t]; !dup {
				g.chains[t] = nil
				g.hot = append(g.hot, t)
			}
		}
		g.zipf = rand.NewZipf(g.rng, zipfS, 1, hotTargets-1)
	}
	return g
}

// ownTarget draws a base element of this connection's partition (index
// mod conns == conn), never the root: a sibling of the root would make the
// document a forest.
func (g *gen) ownTarget() int32 {
	n := (len(g.img.elems) - g.conn + g.conns - 1) / g.conns
	t := g.conn + g.conns*g.rng.Intn(n)
	if t == 0 {
		t = g.conns
	}
	return int32(t)
}

func (g *gen) next() request {
	switch g.w.mix {
	case mixReadPoint:
		i := g.rng.Intn(len(g.img.elems))
		if g.rng.Intn(2) == 0 {
			return request{verb: verbLookup, lid: g.img.elems[i].Start, pos: g.img.startPos[i]}
		}
		return request{verb: verbLookup, lid: g.img.elems[i].End, pos: g.img.endPos[i]}
	case mixWriteScatter:
		if g.rng.Float64() < deleteShare && len(g.live) > 0 {
			i := g.rng.Intn(len(g.live))
			return request{verb: verbDelete, elem: g.live[i].elem, target: g.live[i].target, live: i}
		}
		return g.insertBefore(g.ownTarget())
	default:
		if g.rng.Float64() < insertShare {
			return g.insertBefore(g.hot[g.zipf.Uint64()])
		}
		nRecent := min(g.nIns, recentWindow)
		var e order.ElemLIDs
		if c := g.rng.Intn(nRecent + hotTargets); c < nRecent {
			e = g.recent[c]
		} else {
			e = g.img.elems[g.hot[c-nRecent]]
		}
		lid := e.Start
		if g.rng.Intn(2) == 1 {
			lid = e.End
		}
		return request{verb: verbLookup, lid: lid, pos: -1}
	}
}

func (g *gen) insertBefore(t int32) request {
	return request{verb: verbInsert, lid: g.img.elems[t].Start, target: t}
}

// ack records an acknowledged write; lookups change nothing.
func (g *gen) ack(r request, e order.ElemLIDs) {
	switch r.verb {
	case verbInsert:
		g.inserts++
		g.chains[r.target] = append(g.chains[r.target], e)
		if g.w.mix == mixWriteScatter {
			g.live = append(g.live, ownElem{e, r.target})
		} else {
			g.recent[g.nIns%recentWindow] = e
			g.nIns++
		}
	case verbDelete:
		g.deletes++
		last := len(g.live) - 1
		g.live[r.live] = g.live[last]
		g.live = g.live[:last]
		chain := g.chains[r.target]
		for i, c := range chain {
			if c == r.elem {
				g.chains[r.target] = append(chain[:i], chain[i+1:]...)
				break
			}
		}
	}
}
