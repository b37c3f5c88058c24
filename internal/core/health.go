package core

import "boxes/internal/obs"

// Health gathers the structural gauges of every layer of the store — the
// labeler's tree walk (height, occupancy, balance slack, label-space
// utilization, LIDF fragmentation) and the pager (footprint, LRU fill and
// hit ratio) — each sample stamped with the store's scheme label. Tree
// walks read every block, so expect O(N/B) I/Os per call.
//
// The walk runs on the calling goroutine against live structures: only
// call it when no update is in flight (the structures are single-writer).
// SyncStore.Health serializes against operations for concurrent use.
func (s *Store) Health() []obs.GaugeValue {
	var gs []obs.GaugeValue
	if c, ok := s.labeler.(obs.Collector); ok {
		gs = append(gs, c.CollectGauges()...)
	}
	gs = append(gs, s.store.CollectGauges()...)
	return obs.WithLabel(gs, "scheme", s.schemeName)
}

// RegisterHealthGauges registers the store as a scrape-time gauge source on
// its metrics registry, so /metrics and Snapshot include the structural
// gauges. Scrapes walk the live structure on the scraping goroutine;
// register only when scrapes cannot race updates — after loading completes,
// or on a SyncStore (whose RegisterHealthGauges variant takes the store
// lock per scrape).
func (s *Store) RegisterHealthGauges() {
	s.reg.RegisterCollector(obs.CollectorFunc(s.Health))
}
