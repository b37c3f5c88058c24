package core

import "boxes/internal/obs"

// Health gathers the structural gauges of every layer of the store — the
// labeler's tree walk (height, occupancy, balance slack, label-space
// utilization, LIDF fragmentation) and the pager (footprint, LRU fill and
// hit ratio) — each sample stamped with the store's scheme label. Tree
// walks read every block, so expect O(N/B) I/Os per call. The walk reads
// through a read op of its own under the read lock, like a lookup.
func (s *Store) Health() []obs.GaugeValue {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.health()
}

// health is Health for a caller that already holds the lock.
func (s *Store) health() []obs.GaugeValue {
	var gs []obs.GaugeValue
	if c, ok := s.labeler.(obs.Collector); ok {
		gs = append(gs, c.CollectGauges()...)
	}
	gs = append(gs, s.store.CollectGauges()...)
	return obs.WithLabel(gs, "scheme", s.schemeName)
}

// RegisterHealthGauges registers the store as a scrape-time gauge source on
// its metrics registry, so /metrics and Snapshot include the structural
// gauges. A scrape takes the read lock, so it serializes against writers;
// a flight-recorder dump, which runs on a failing operation's goroutine
// while that operation still holds the lock, collects without taking it.
func (s *Store) RegisterHealthGauges() {
	s.reg.RegisterCollector(healthCollector{s})
}

// healthCollector is the obs.InOpCollector RegisterHealthGauges installs.
type healthCollector struct{ s *Store }

func (c healthCollector) CollectGauges() []obs.GaugeValue     { return c.s.Health() }
func (c healthCollector) CollectGaugesInOp() []obs.GaugeValue { return c.s.health() }
