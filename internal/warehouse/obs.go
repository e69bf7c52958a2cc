package warehouse

import (
	"streamloader/internal/obs"
)

// whMetrics bundles the warehouse's latency histograms. Handles are nil
// when no registry is configured, and every obs method is nil-safe, so the
// hot paths carry the instrumentation unconditionally.
type whMetrics struct {
	append       *obs.Histogram
	selectQ      *obs.Histogram
	aggregate    *obs.Histogram
	coldRead     *obs.Histogram
	spill        *obs.Histogram
	compaction   *obs.Histogram
	retentionCut *obs.Histogram
	viewRebuild  *obs.Histogram
	viewPublish  *obs.Histogram
	walWrite     *obs.Histogram
	walSync      *obs.Histogram
}

// newWHMetrics creates the warehouse histogram families eagerly (even with
// zero traffic every family shows up in /metrics, which the CI smoke
// requires). A nil registry yields all-nil no-op handles.
func newWHMetrics(reg *obs.Registry) whMetrics {
	return whMetrics{
		append:       reg.Histogram("streamloader_warehouse_append_seconds", "Latency of one Append or AppendBatch call (WAL write + insert + tap dispatch)."),
		selectQ:      reg.Histogram("streamloader_warehouse_select_seconds", "Latency of one Select/Count query (shard fan-out + merge)."),
		aggregate:    reg.Histogram("streamloader_warehouse_aggregate_seconds", "Latency of one Aggregate query (shard fan-out + partial merge)."),
		coldRead:     reg.Histogram("streamloader_cold_read_seconds", "Latency of one cold-file chunk-range read."),
		spill:        reg.Histogram("streamloader_spill_seconds", "Latency of one segment spill (encode + write + validate + swap)."),
		compaction:   reg.Histogram("streamloader_compaction_seconds", "Latency of one cold-file compaction round (merge + write + swap)."),
		retentionCut: reg.Histogram("streamloader_warehouse_retention_cut_seconds", "How long one retention cut holds every shard's write lock (walk + manifest save + drops)."),
		viewRebuild:  reg.Histogram("streamloader_view_rebuild_seconds", "Latency of one standing-view backfill or rebuild scan."),
		viewPublish:  reg.Histogram("streamloader_view_publish_seconds", "Latency of one view snapshot broadcast to its subscribers."),
		walWrite:     reg.Histogram("streamloader_wal_write_seconds", "Latency of one WAL buffer write syscall."),
		walSync:      reg.Histogram("streamloader_wal_fsync_seconds", "Latency of one WAL fsync."),
	}
}

// Obs returns the registry this warehouse reports into (nil when none was
// configured). The server mounts it at /metrics.
func (w *Warehouse) Obs() *obs.Registry { return w.obsReg }

// registerStatsCollector exposes the Stats() snapshot through the registry
// as scrape-time series, so the JSON stats endpoint and /metrics read the
// same numbers from the same fold — one source of truth, no drift.
func (w *Warehouse) registerStatsCollector(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.Collect("warehouse", func(e *obs.Emitter) {
		st := w.Stats()
		e.Gauge("streamloader_warehouse_events", "", float64(st.Events))
		e.Gauge("streamloader_warehouse_sources", "", float64(st.Sources))
		e.Gauge("streamloader_warehouse_segments", "", float64(st.Segments))
		e.Gauge("streamloader_warehouse_segments_cold", "", float64(st.SegmentsCold))
		e.Gauge("streamloader_warehouse_views", "", float64(st.Views))
		e.Gauge("streamloader_warehouse_view_subscribers", "", float64(st.ViewSubscribers))
		e.Gauge("streamloader_warehouse_wal_bytes", "", float64(st.WALBytes))
		e.Gauge("streamloader_warehouse_disk_bytes", "", float64(st.DiskBytes))
		e.Gauge("streamloader_warehouse_cold_cache_bytes", "", float64(st.ColdCacheBytes))
		e.Gauge("streamloader_warehouse_cold_cache_held_bytes", "", float64(st.ColdCacheHeldBytes))
		e.Counter("streamloader_warehouse_evicted_total", "", float64(w.Evicted()))
		e.Counter("streamloader_warehouse_segments_dropped_total", "", float64(st.SegmentsDropped))
		e.Counter("streamloader_warehouse_segments_spilled_total", "", float64(st.SegmentsSpilled))
		e.Counter("streamloader_warehouse_recovered_events_total", "", float64(st.RecoveredEvents))
		e.Counter("streamloader_warehouse_manifest_save_errors_total", "", float64(st.ManifestSaveErrors))
		e.Counter("streamloader_warehouse_cold_cache_hits_total", "", float64(st.ColdCacheHits))
		e.Counter("streamloader_warehouse_cold_cache_misses_total", "", float64(st.ColdCacheMisses))
		e.Counter("streamloader_warehouse_cold_chunk_stats_hits_total", "", float64(st.ColdChunkStatsHits))
		e.Counter("streamloader_warehouse_cold_columns_skipped_total", "", float64(st.ColdColumnsSkipped))
		e.Counter("streamloader_warehouse_compactions_total", "", float64(st.Compactions))
		e.Counter("streamloader_warehouse_segments_compacted_total", "", float64(st.SegmentsCompacted))
		e.Counter("streamloader_warehouse_view_encodes_total", "", float64(st.ViewEncodes))
	})
	for _, d := range [][2]string{
		{"streamloader_warehouse_events", "Live events stored across all shards."},
		{"streamloader_warehouse_sources", "Distinct sources with live events."},
		{"streamloader_warehouse_segments", "Live segments (hot + sealed + cold)."},
		{"streamloader_warehouse_segments_cold", "Live spilled cold-segment files."},
		{"streamloader_warehouse_views", "Registered materialized views."},
		{"streamloader_warehouse_view_subscribers", "Subscribers across all views."},
		{"streamloader_warehouse_wal_bytes", "Bytes held by live WAL files."},
		{"streamloader_warehouse_disk_bytes", "Total on-disk footprint (WAL + cold files)."},
		{"streamloader_warehouse_cold_cache_bytes", "Encoded bytes of decoded chunks resident in the cold chunk cache."},
		{"streamloader_warehouse_cold_cache_held_bytes", "Bytes the decoded chunks resident in the cold chunk cache hold in memory."},
		{"streamloader_warehouse_evicted_total", "Events dropped by retention."},
		{"streamloader_warehouse_segments_dropped_total", "Whole segments dropped by retention."},
		{"streamloader_warehouse_segments_spilled_total", "Segments spilled to disk."},
		{"streamloader_warehouse_recovered_events_total", "Events recovered by the last Open."},
		{"streamloader_warehouse_manifest_save_errors_total", "Manifest saves that failed since Open."},
		{"streamloader_warehouse_cold_cache_hits_total", "Cold-chunk reads served from the cache."},
		{"streamloader_warehouse_cold_cache_misses_total", "Cold-chunk reads that went to disk."},
		{"streamloader_warehouse_cold_chunk_stats_hits_total", "Chunks answered from per-chunk stats without decoding."},
		{"streamloader_warehouse_cold_columns_skipped_total", "Column sections skipped by projected v3 cold reads."},
		{"streamloader_warehouse_compactions_total", "Background cold-file compaction rounds."},
		{"streamloader_warehouse_segments_compacted_total", "Cold files merged away by compaction."},
		{"streamloader_warehouse_view_encodes_total", "View snapshots rendered to their wire form (one per update, shared by its subscribers)."},
	} {
		reg.Describe(d[0], d[1])
	}
}
