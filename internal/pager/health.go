package pager

import "boxes/internal/obs"

// CollectGauges implements obs.Collector for the block store: backend
// footprint, LRU cache fill, and the cumulative hit ratio (derived from
// the observer's hit/miss counters, so it reflects the same accounting the
// paper's caching-on experiments use). Collection reads in-memory state
// only.
func (s *Store) CollectGauges() []obs.GaugeValue {
	gs := []obs.GaugeValue{
		obs.G("pager_blocks", "Blocks currently allocated in the backend.", float64(s.backend.NumBlocks())),
	}
	if s.cache != nil {
		gs = append(gs,
			obs.G("pager_cache_blocks", "Blocks held by the global LRU cache.", float64(s.cache.len())),
			obs.G("pager_cache_capacity", "Capacity of the global LRU cache in blocks.", float64(s.cache.capacity)),
		)
	}
	hits := s.obs.Counter(obs.CtrPagerCacheHits)
	misses := s.obs.Counter(obs.CtrPagerCacheMisses)
	if total := hits + misses; total > 0 {
		gs = append(gs, obs.G("pager_cache_hit_ratio",
			"Cumulative LRU hit fraction over all cache-eligible reads.",
			float64(hits)/float64(total)))
	}
	if ws, ok := s.backend.(WALStatser); ok {
		st := ws.WALStats()
		gs = append(gs,
			obs.G("pager_wal_commits", "Write-ahead log transactions committed.", float64(st.Commits)),
			obs.G("pager_wal_frames", "Block images appended to the write-ahead log.", float64(st.Frames)),
			obs.G("pager_wal_bytes", "Bytes appended to the write-ahead log.", float64(st.WALBytes)),
			obs.G("pager_wal_data_bytes", "Bytes applied in place by checkpoints.", float64(st.DataBytes)),
			obs.G("pager_wal_write_amplification",
				"Physical bytes written (WAL + data + header) per logical block byte.",
				st.WriteAmplification(s.backend.BlockSize())),
			obs.G("pager_wal_syncs", "Write-ahead log fsyncs (one per durability point, one per checkpoint's log reset).", float64(st.Syncs)),
			obs.G("pager_wal_data_syncs", "Data/sidecar fsyncs (two per checkpoint).", float64(st.DataSyncs)),
			obs.G("pager_wal_size_bytes",
				"Live bytes of the write-ahead log (grows between checkpoints, bounded by pager.WALCheckpointBytes plus one commit).",
				float64(st.SizeBytes)),
		)
		if st.Commits > 0 {
			gs = append(gs, obs.G("pager_wal_syncs_per_commit",
				"WAL fsyncs per committed transaction (checkpoint log resets take it above 1).",
				float64(st.Syncs)/float64(st.Commits)))
		}
	}
	return gs
}

// WALStatser is implemented by backends that track durability I/O
// (FileBackend). Store surfaces the stats as pager_wal_* gauges.
type WALStatser interface {
	WALStats() WALStats
}

var _ obs.Collector = (*Store)(nil)
