// Package reflog implements the caching and logging techniques of
// Section 6 of the paper, which remove the dereferencing cost that the
// LID indirection and the BOX structures add to lookups.
//
// References held in indexes are augmented with the cached label value and
// a last-cached timestamp. The document keeps a last-modified timestamp
// and, in the caching+logging mode, a FIFO log of the last k modifications,
// each described succinctly as a range effect ("+1 to every label in
// [l, l_max]") or, when an update reorganized multiple leaves, as a range
// invalidation. A lookup whose cached value predates only logged
// modifications replays their effects and answers with no I/O at all.
//
// The package is reproduction-only: the Section 6 experiment (boxbench
// -exp tcache, BenchmarkCachingLogging) attaches it to a labeler
// directly. core.Store does not wire it in, because a served lookup
// carries a bare LID, not a reference holding a cached value.
package reflog

import "boxes/internal/order"

// Entry is one logged modification.
type Entry struct {
	Ts         uint64 // logical timestamp of the modification
	Lo, Hi     order.Label
	Delta      int64 // label shift; ignored when Invalidate is set
	Invalidate bool  // cached labels in [Lo, Hi] cannot be repaired
}

// Log is the document-level modification log plus timestamps. It
// implements order.UpdateLogger, so it can be attached to any BOX via
// SetLogger. A Log with K == 0 degenerates to the "basic caching" approach
// (a single last-modified timestamp).
type Log struct {
	k       int
	clock   uint64
	lastMod uint64
	entries []Entry // FIFO, oldest first
	dropped bool    // an entry has been evicted from the FIFO
}

// NewLog creates a modification log keeping the last k entries (k == 0 is
// the basic-caching mode). Logical time starts at 1 so that a timestamp of
// 0 always means "never cached".
func NewLog(k int) *Log {
	return &Log{k: k, clock: 1}
}

// K reports the log capacity.
func (g *Log) K() int { return g.k }

// Now returns the current logical time.
func (g *Log) Now() uint64 { return g.clock }

// LastModified returns the time of the last label-changing modification.
func (g *Log) LastModified() uint64 { return g.lastMod }

func (g *Log) push(e Entry) {
	g.clock++
	e.Ts = g.clock
	g.lastMod = g.clock
	if g.k == 0 {
		return
	}
	if len(g.entries) == g.k {
		copy(g.entries, g.entries[1:])
		g.entries = g.entries[:g.k-1]
		g.dropped = true
	}
	g.entries = append(g.entries, e)
}

// replayableFrom reports whether every modification made after ts is still
// in the log.
func (g *Log) replayableFrom(ts uint64) bool {
	if g.k == 0 {
		return false
	}
	if !g.dropped {
		return true
	}
	// Evicted entries all have timestamps below entries[0].Ts; they are
	// harmless only if they cannot postdate ts.
	return len(g.entries) > 0 && g.entries[0].Ts <= ts+1
}

// LogShift implements order.UpdateLogger.
func (g *Log) LogShift(lo, hi order.Label, delta int64) {
	g.push(Entry{Lo: lo, Hi: hi, Delta: delta})
}

// LogInvalidate implements order.UpdateLogger.
func (g *Log) LogInvalidate(lo, hi order.Label) {
	g.push(Entry{Lo: lo, Hi: hi, Invalidate: true})
}

// Ref is an augmented reference to a label: the immutable LID, the cached
// value, and when it was cached. The zero Ref (LastCached == 0, before any
// modification) is treated as never-cached.
type Ref struct {
	LID        order.LID
	Cached     order.Label
	LastCached uint64
}

// Repair outcome classification, exposed for the experiments.
type Outcome int

const (
	// HitFresh means the cached value was current (no replay needed).
	HitFresh Outcome = iota
	// HitReplayed means the cached value was repaired from the log.
	HitReplayed
	// Miss means the full lookup cost had to be paid.
	Miss
)

// Cache wraps a Labeler with the Section 6 lookup protocol. The same type
// serves regular labels (NewCache) and ordinal labels (NewOrdinalCache);
// only the fetch path and the log feeding it differ.
type Cache struct {
	fetch func(order.LID) (order.Label, error)
	log   *Log

	// Stats.
	Fresh    uint64
	Replayed uint64
	Misses   uint64
}

// NewCache wires a labeler and a log together: the log is attached as the
// labeler's update logger, and lookups through the cache consult it.
func NewCache(l order.Labeler, g *Log) *Cache {
	if ll, ok := l.(order.LoggingLabeler); ok {
		ll.SetLogger(g)
	}
	return &Cache{fetch: l.Lookup, log: g}
}

// NewOrdinalCache wires a labeler's ordinal labels to a (separate) log:
// the log receives ordinal effects ("[o, ∞): ±1"), and lookups through the
// cache answer OrdinalLookup queries. The labeler must have ordinal
// support enabled.
func NewOrdinalCache(l order.Labeler, g *Log) *Cache {
	if ol, ok := l.(order.OrdinalLoggingLabeler); ok {
		ol.SetOrdinalLogger(g)
	}
	return &Cache{fetch: l.OrdinalLookup, log: g}
}

// Log returns the underlying modification log.
func (c *Cache) Log() *Log { return c.log }

// NewRef builds a reference for lid with a warm cache entry (one full
// lookup).
func (c *Cache) NewRef(lid order.LID) (Ref, error) {
	v, err := c.fetch(lid)
	if err != nil {
		return Ref{}, err
	}
	return Ref{LID: lid, Cached: v, LastCached: c.log.Now()}, nil
}

// Lookup returns the label behind ref, repairing or refreshing the cached
// value as needed, and reports how the answer was obtained.
func (c *Cache) Lookup(ref *Ref) (order.Label, Outcome, error) {
	if ref.LastCached > 0 && ref.LastCached >= c.log.LastModified() {
		c.Fresh++
		return ref.Cached, HitFresh, nil
	}
	if ref.LastCached > 0 && c.log.replayableFrom(ref.LastCached) {
		// Every modification since last-cached is in the log: replay.
		v := ref.Cached
		ok := true
		for _, e := range c.log.entries {
			if e.Ts <= ref.LastCached {
				continue
			}
			if v < e.Lo || v > e.Hi {
				continue
			}
			if e.Invalidate {
				ok = false
				break
			}
			v = order.Label(int64(v) + e.Delta)
		}
		if ok {
			ref.Cached = v
			ref.LastCached = c.log.Now()
			c.Replayed++
			return v, HitReplayed, nil
		}
	}
	v, err := c.fetch(ref.LID)
	if err != nil {
		return 0, Miss, err
	}
	ref.Cached = v
	ref.LastCached = c.log.Now()
	c.Misses++
	return v, Miss, nil
}

var _ order.UpdateLogger = (*Log)(nil)
