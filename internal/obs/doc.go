// Package obs is streamLoader's dependency-free observability layer: a
// metrics registry (counters, gauges, fixed-bucket latency histograms),
// Prometheus text exposition, and a per-request trace span API.
//
// Every accessor is nil-safe and the Noop registry hands out nil handles,
// so instrumented code pays one nil check when observability is disabled.
// Histogram.Observe is two atomic adds — cheap enough for the warehouse
// append hot path. Named collectors (Registry.Collect) sample subsystem
// state (warehouse Stats, monitor rings) at scrape time so there is one
// source of truth rather than parallel snapshot paths.
//
// # Exported metrics
//
// Latency histograms (unit: seconds; exposed as cumulative _bucket /
// _sum / _count series with exponential bounds 1µs..~16.8s):
//
//	streamloader_warehouse_append_seconds   one Append or AppendBatch call (WAL write + in-memory insert + tap dispatch)
//	streamloader_warehouse_select_seconds   one Select/Count query (fan-out + merge)
//	streamloader_warehouse_aggregate_seconds one Aggregate query (fan-out + partial merge)
//	streamloader_wal_write_seconds          one WAL buffer write syscall
//	streamloader_wal_fsync_seconds          one WAL fsync
//	streamloader_cold_read_seconds          one cold-file chunk-range read (cache miss included)
//	streamloader_spill_seconds              one segment spill (encode + write + validate + swap)
//	streamloader_compaction_seconds         one shard compaction round (merge + write + swap)
//	streamloader_warehouse_retention_cut_seconds one retention cut's hold of every shard's write lock (walk + manifest save + drops)
//	streamloader_view_rebuild_seconds       one standing-view backfill/rebuild scan
//	streamloader_view_publish_seconds       one view snapshot broadcast to subscribers
//	streamloader_http_request_seconds{route} one HTTP request, labeled by mux pattern
//	streamloader_sink_watermark_lag_seconds clock minus watermark, observed where a sink decides whether its stream is live (executor.Deployment.runSink): the least a subscriber lags that stream; a replay reads the clock once per run and its lag is capped at one hour
//
// Sink counters (executor.Executor.RegisterMetrics):
//
//	streamloader_sink_flushes_total{reason}  batches a buffered sink handed to its destination, by what ended them:
//	                                         size (buffer full), live (watermark caught up with the clock on an
//	                                         empty edge), age (the SinkMaxAge tick), close (end of run)
//
// Source counters (executor.Executor.RegisterMetrics):
//
//	streamloader_source_barrier_waits_total  times a source parked on the event-time barrier because another
//	                                         source had not reached its event time yet (what ingest waits on
//	                                         between sources); N sources replaying in lockstep park N-1 times
//	                                         per tick, so ~(N-1)/N per event
//
// HTTP counters:
//
//	streamloader_http_requests_total{route,code}  requests by route and status code
//	streamloader_slow_queries_total               queries over the -slow-query threshold
//
// Warehouse snapshot (collector "warehouse"; gauges unless noted; byte
// gauges in bytes, the rest in events/segments/entries):
//
//	streamloader_warehouse_events, _sources, _segments, _segments_cold,
//	_views, _view_subscribers, _wal_bytes, _disk_bytes, _cold_cache_bytes
//	(encoded bytes cached: what -cold-cache-bytes bounds),
//	_cold_cache_held_bytes (what those chunks hold in memory, decoded)
//
//	counters: streamloader_warehouse_evicted_total,
//	_segments_dropped_total, _segments_spilled_total,
//	_recovered_events_total, _manifest_save_errors_total (manifest
//	saves that failed since Open), _cold_cache_hits_total,
//	_cold_cache_misses_total, _cold_chunk_stats_hits_total,
//	_compactions_total, _segments_compacted_total, _view_encodes_total
//	(view snapshots rendered to JSON: one per update, whatever the
//	subscriber count; updates are streamloader_view_publish_seconds_count)
//
// Monitor (collector "monitor"; the paper's Figure-3 facility, labeled
// {op,node}):
//
//	counters: streamloader_op_in_total, streamloader_op_out_total,
//	          streamloader_op_dropped_total   (tuples)
//	gauges:   streamloader_op_rate_in, streamloader_op_rate_out (tuples/s),
//	          streamloader_node_load{node}    (load fraction, 0..1)
//
// # Tracing
//
// NewTrace/Trace.Start produce a TraceReport embedded under "trace" in
// query and aggregate responses when the request carries ?trace=1: one
// span per shard scanned (attrs: events, segments scanned/pruned, cache
// hits/misses, chunk-stats answers) plus a final merge span.
package obs
