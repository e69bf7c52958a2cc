package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"

	"streamloader/internal/obs"
)

// layerCounters collects part (A) of a traced run: what the child reports
// about its own layers over HTTP — /metrics scraped at every phase boundary,
// the `segments` object of every query reply, the operator counters, the
// subscriber's frames. Its methods are no-ops on a nil receiver, which is
// what an untraced run holds.
type layerCounters struct {
	out map[string]float64

	selectTracedMS, aggTracedMS []float64
	seg                         segmentStats
	replies                     float64
}

// segmentStats is the `segments` object of a query reply.
type segmentStats struct {
	Scanned        float64 `json:"segments_scanned"`
	Pruned         float64 `json:"segments_pruned"`
	BytesDecoded   float64 `json:"cold_bytes_decoded"`
	ColumnsSkipped float64 `json:"cold_columns_skipped"`
	ChunkStatsHits float64 `json:"cold_chunk_stats_hits"`
}

func (l *layerCounters) set(name string, v float64) {
	if l.out == nil {
		l.out = map[string]float64{}
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	l.out[name] = v
}

func parseMetrics(rd io.Reader) (map[string]float64, error) {
	series, err := obs.ParseExposition(rd)
	if err != nil {
		return nil, err
	}
	m := make(map[string]float64, len(series))
	for _, s := range series {
		m[s.Key()] = s.Value
	}
	return m, nil
}

// scrapeDelta is the change of the child's metrics over one phase.
type scrapeDelta struct{ before, after map[string]float64 }

func (d scrapeDelta) of(key string) float64 { return d.after[key] - d.before[key] }

// histMean is the mean of a latency histogram over the phase, in seconds,
// and how many observations it made.
func (d scrapeDelta) histMean(name, labels string) (mean, count float64) {
	suffix := ""
	if labels != "" {
		suffix = "{" + labels + "}"
	}
	count = d.of(name + "_count" + suffix)
	if count == 0 {
		return 0, 0
	}
	return d.of(name+"_sum"+suffix) / count, count
}

const whPrefix = "streamloader_warehouse_"

func (l *layerCounters) ingestDelta(before, after map[string]float64, rounds []roundResult) {
	if l == nil {
		return
	}
	d := scrapeDelta{before, after}
	wall, events := 0.0, 0.0
	var scraped, plain []float64
	for i, rd := range rounds {
		wall += rd.wall
		events += float64(rd.events)
		if i == 0 {
			continue
		}
		if rate := float64(rd.events) / rd.wall; rd.scraped {
			scraped = append(scraped, rate)
		} else {
			plain = append(plain, rate)
		}
	}
	stored := d.of(whPrefix+"events") + d.of(whPrefix+"evicted_total")
	appendMean, appends := d.histMean(whPrefix+"append_seconds", "")
	l.set("warehouse.append_us_per_event", appendMean*appends/stored*1e6)
	l.set("micro.stored_per_generated", stored/events)
	spillMean, spills := d.histMean("streamloader_spill_seconds", "")
	l.set("warehouse.spill_s_total", spillMean*spills)
	compMean, comps := d.histMean("streamloader_compaction_seconds", "")
	l.set("warehouse.compaction_s_total", compMean*comps)
	l.set("warehouse.segments_spilled", d.of(whPrefix+"segments_spilled_total"))
	l.set("warehouse.compactions", d.of(whPrefix+"compactions_total"))
	l.set("warehouse.retention_evicted_per_s", d.of(whPrefix+"evicted_total")/wall)
	pubMean, _ := d.histMean("streamloader_view_publish_seconds", "")
	l.set("warehouse.view_publish_ms_mean", pubMean*1e3)
	rebuildMean, _ := d.histMean("streamloader_view_rebuild_seconds", "")
	l.set("warehouse.view_rebuild_ms_mean", rebuildMean*1e3)
	walMean, _ := d.histMean("streamloader_wal_write_seconds", "")
	l.set("persist.wal_write_us_per_batch", walMean*1e6)
	fsyncMean, fsyncs := d.histMean("streamloader_wal_fsync_seconds", "")
	l.set("persist.wal_fsync_ms_mean", fsyncMean*1e3)
	l.set("persist.wal_fsyncs", fsyncs)
	// What scraping /metrics every 100 ms costs ingest: every other measured
	// round of a traced run is scraped, the rest are not.
	if len(scraped) > 0 && len(plain) > 0 {
		l.set("trace.overhead_ingest_pct", (median(plain)/median(scraped)-1)*100)
	}
}

func (l *layerCounters) queryDelta(before, after map[string]float64) {
	if l == nil {
		return
	}
	d := scrapeDelta{before, after}
	selMean, _ := d.histMean(whPrefix+"select_seconds", "")
	aggMean, _ := d.histMean(whPrefix+"aggregate_seconds", "")
	selHandler, _ := d.histMean("streamloader_http_request_seconds", obs.Labels("route", "GET /api/warehouse/query"))
	aggHandler, _ := d.histMean("streamloader_http_request_seconds", obs.Labels("route", "GET /api/warehouse/aggregate"))
	coldMean, _ := d.histMean("streamloader_cold_read_seconds", "")
	l.set("warehouse.select_ms_mean", selMean*1e3)
	l.set("warehouse.aggregate_ms_mean", aggMean*1e3)
	l.set("server.select_handler_ms_mean", selHandler*1e3)
	l.set("server.agg_handler_ms_mean", aggHandler*1e3)
	l.set("server.select_encode_ms_mean", (selHandler-selMean)*1e3)
	l.set("persist.cold_read_ms_mean", coldMean*1e3)
	hits, misses := d.of(whPrefix+"cold_cache_hits_total"), d.of(whPrefix+"cold_cache_misses_total")
	l.set("warehouse.cold_cache_hit_ratio", hits/(hits+misses))
}

// liveDone records what the live phase adds to part (A).
func (l *layerCounters) liveDone(res liveResult, sub *subscriber) {
	if l == nil {
		return
	}
	l.set("executor.live_cpu_us_per_event", res.cpuUS)
	if l.out["server.subscribe_frames"] == 0 { // views-durable reports its standing view instead
		l.viewFrames(sub)
	}
}

// viewFrames records the size and number of a closed subscriber's frames.
func (l *layerCounters) viewFrames(sub *subscriber) {
	if l == nil {
		return
	}
	l.set("server.subscribe_frames", float64(sub.count))
	l.set("server.subscribe_frame_bytes_mean", float64(sub.bytes)/float64(sub.count))
}

func (l *layerCounters) tracedQuery(selectMS, aggMS float64) {
	l.selectTracedMS = append(l.selectTracedMS, selectMS)
	l.aggTracedMS = append(l.aggTracedMS, aggMS)
}

// queryReply folds the `segments` object of one select and one aggregate
// reply. It sits at the end of the body (keys are sorted), so only the tail
// is parsed: decoding a 5000-event page per query would compete with the
// child for the CPU.
func (l *layerCounters) queryReply(bodies ...[]byte) {
	if l == nil {
		return
	}
	for _, body := range bodies {
		i := bytes.LastIndex(body, []byte(`"segments":`))
		if i < 0 {
			continue
		}
		var seg segmentStats
		if err := json.NewDecoder(bytes.NewReader(body[i+len(`"segments":`):])).Decode(&seg); err != nil {
			continue
		}
		l.seg.Scanned += seg.Scanned
		l.seg.Pruned += seg.Pruned
		l.seg.BytesDecoded += seg.BytesDecoded
		l.seg.ColumnsSkipped += seg.ColumnsSkipped
		l.seg.ChunkStatsHits += seg.ChunkStatsHits
		l.replies++
	}
}

// opCounters records the operators' tuple counters, summed over every
// deployment of the run; sources and sinks are the executor's and left out.
func (l *layerCounters) opCounters(in, out, dropped int64) {
	if l == nil {
		return
	}
	l.set("ops.in_total", float64(in))
	l.set("ops.out_total", float64(out))
	l.set("ops.dropped_total", float64(dropped))
}

// perLayer assembles the per-layer metrics of a traced run: part (A) as
// collected, part (B) measured now in this process, and the budget that
// splits ingest_cpu_us_per_event, as measured, between the layers.
func (r *run) perLayer(ingestCPU float64, live liveResult, st whStats) (map[string]metric, error) {
	l := r.layers
	micro, err := r.microbench()
	if err != nil {
		return nil, err
	}
	for name, v := range micro {
		l.set(name, v)
	}

	n := math.Max(l.replies, 1)
	l.set("warehouse.segments_scanned_per_query", l.seg.Scanned/n)
	l.set("warehouse.segments_pruned_per_query", l.seg.Pruned/n)
	l.set("warehouse.cold_bytes_decoded_per_query", l.seg.BytesDecoded/n)
	l.set("warehouse.cold_columns_skipped_per_query", l.seg.ColumnsSkipped/n)
	l.set("warehouse.chunk_stats_hits_per_query", l.seg.ChunkStatsHits/n)

	stored := math.Max(float64(r.stored), 1)
	l.set("persist.disk_bytes_per_event", float64(st.DiskBytes)/stored)
	l.set("persist.wal_bytes_per_event", float64(st.WALBytes)/stored)

	l.set("server.select_ms_p90", percentile(r.selectMS, 0.9))
	l.set("server.select_ms_p99", percentile(r.selectMS, 0.99))
	l.set("server.agg_ms_p90", percentile(r.aggMS, 0.9))
	l.set("server.agg_ms_p99", percentile(r.aggMS, 0.99))
	l.set("server.transport_ms_mean", mean(r.selectMS)-l.out["server.select_handler_ms_mean"])
	// Traced and untraced pairs alternate, so their medians met the same box.
	l.set("trace.overhead_select_pct", (percentile(l.selectTracedMS, 0.5)/percentile(r.selectMS, 0.5)-1)*100)
	l.set("trace.overhead_agg_pct", (percentile(l.aggTracedMS, 0.5)/percentile(r.aggMS, 0.5)-1)*100)

	for _, sp := range r.tr.selfTimes() {
		switch sp.Name {
		case "executor.deploy":
			l.set("executor.deploy_ms", sp.SelfMS/float64(sp.Count))
		case "obs.expose":
			l.set("obs.expose_ms", sp.SelfMS/float64(sp.Count))
		}
	}

	// The budget: isolated per-event costs of the layers on the ingest path,
	// in CPU microseconds per generated event, and what is left over.
	sensorUS := l.out["sensor.at_ns_per_event"] / 1e3
	pubsubUS := l.out["pubsub.is_active_ns"] / 1e3
	opsUS := 0.0
	if r.w.chain {
		pass := l.out["micro.filter_pass_ratio"]
		perSource := l.out["ops.filter_ns_per_tuple"] +
			pass*(l.out["ops.transform_ns_per_tuple"]+l.out["ops.virtual_property_ns_per_tuple"])
		// Side branches, per generated event: two of the eight sources feed
		// a cull, one feeds the aggregate, and one tuple in a hundred of the
		// culled ones reaches the join.
		side := (2*l.out["ops.cull_ns_per_tuple"] + l.out["ops.aggregate_ns_per_tuple"] +
			2*(1-joinCullRate)*l.out["ops.join_ns_per_tuple"]) / fleetSize
		opsUS = (perSource + side) / 1e3
	}
	appendUS := l.out["warehouse.append_us_per_event"] * l.out["micro.stored_per_generated"]
	l.set("budget.sensor_us_per_event", sensorUS)
	l.set("budget.pubsub_us_per_event", pubsubUS)
	l.set("budget.ops_us_per_event", opsUS)
	l.set("budget.warehouse_append_us_per_event", appendUS)
	l.set("executor.unattributed_us_per_event", ingestCPU-sensorUS-pubsubUS-opsUS-appendUS)

	out := map[string]metric{}
	for _, def := range perLayerMetrics {
		out[def.name] = metric{Value: l.out[def.name], Unit: def.unit}
	}
	return out, nil
}

// metricDef names one metric of BENCHMARK.json.
type metricDef struct{ name, unit, better string }

// perLayerMetrics is every metric a traced run prints, on every workload; a
// layer the workload does not exercise reads 0.
var perLayerMetrics = []metricDef{
	{"sensor.at_ns_per_event", "ns", "lower"},
	{"pubsub.is_active_ns", "ns", "lower"},
	{"pubsub.discover_us", "us", "lower"},
	{"stream.hop_ns_per_item", "ns", "lower"},
	{"ops.filter_ns_per_tuple", "ns", "lower"},
	{"ops.transform_ns_per_tuple", "ns", "lower"},
	{"ops.virtual_property_ns_per_tuple", "ns", "lower"},
	{"ops.aggregate_ns_per_tuple", "ns", "lower"},
	{"ops.join_ns_per_tuple", "ns", "lower"},
	{"ops.cull_ns_per_tuple", "ns", "lower"},
	{"ops.in_total", "count", "higher"},
	{"ops.out_total", "count", "higher"},
	{"ops.dropped_total", "count", "lower"},
	{"expr.eval_ns", "ns", "lower"},
	{"dataflow.compile_ms", "ms", "lower"},
	{"dataflow.validate_ms", "ms", "lower"},
	{"executor.deploy_ms", "ms", "lower"},
	{"executor.run_ns_per_event_discard", "ns", "lower"},
	{"executor.sink_batch_events_p50", "count", "higher"},
	{"executor.sink_accept_batch_us_p50", "us", "lower"},
	{"executor.unattributed_us_per_event", "us", "lower"},
	{"executor.live_cpu_us_per_event", "us", "lower"},
	{"budget.sensor_us_per_event", "us", "lower"},
	{"budget.pubsub_us_per_event", "us", "lower"},
	{"budget.ops_us_per_event", "us", "lower"},
	{"budget.warehouse_append_us_per_event", "us", "lower"},
	{"warehouse.append_us_per_event", "us", "lower"},
	{"warehouse.append_batch_mem_ns_per_event", "ns", "lower"},
	{"warehouse.append_batch_durable_ns_per_event", "ns", "lower"},
	{"warehouse.view_fold_ns_per_event", "ns", "lower"},
	{"warehouse.select_ms_mean", "ms", "lower"},
	{"warehouse.aggregate_ms_mean", "ms", "lower"},
	{"warehouse.segments_scanned_per_query", "count", "lower"},
	{"warehouse.segments_pruned_per_query", "count", "higher"},
	{"warehouse.cold_bytes_decoded_per_query", "B", "lower"},
	{"warehouse.cold_columns_skipped_per_query", "count", "higher"},
	{"warehouse.chunk_stats_hits_per_query", "count", "higher"},
	{"warehouse.cold_cache_hit_ratio", "ratio", "higher"},
	{"warehouse.view_publish_ms_mean", "ms", "lower"},
	{"warehouse.view_rebuild_ms_mean", "ms", "lower"},
	{"warehouse.spill_s_total", "s", "lower"},
	{"warehouse.compaction_s_total", "s", "lower"},
	{"warehouse.segments_spilled", "count", "lower"},
	{"warehouse.compactions", "count", "lower"},
	{"warehouse.open_recover_s", "s", "lower"},
	{"warehouse.retention_evicted_per_s", "1/s", "higher"},
	{"partial.observe_ns", "ns", "lower"},
	{"partial.merge_ns_per_group", "ns", "lower"},
	{"persist.wal_write_us_per_batch", "us", "lower"},
	{"persist.wal_fsync_ms_mean", "ms", "lower"},
	{"persist.wal_fsyncs", "count", "lower"},
	{"persist.wal_append_ns_per_event", "ns", "lower"},
	{"persist.segment_write_ns_per_event", "ns", "lower"},
	{"persist.segment_read_full_ns_per_event", "ns", "lower"},
	{"persist.segment_read_projected_ns_per_event", "ns", "lower"},
	{"persist.cold_read_ms_mean", "ms", "lower"},
	{"persist.disk_bytes_per_event", "B", "lower"},
	{"persist.wal_bytes_per_event", "B", "lower"},
	{"server.select_handler_ms_mean", "ms", "lower"},
	{"server.agg_handler_ms_mean", "ms", "lower"},
	{"server.select_encode_ms_mean", "ms", "lower"},
	{"server.transport_ms_mean", "ms", "lower"},
	{"server.select_ms_p90", "ms", "lower"},
	{"server.select_ms_p99", "ms", "lower"},
	{"server.agg_ms_p90", "ms", "lower"},
	{"server.agg_ms_p99", "ms", "lower"},
	{"server.subscribe_frame_bytes_mean", "B", "lower"},
	{"server.subscribe_frames", "count", "higher"},
	{"obs.expose_ms", "ms", "lower"},
	{"obs.observe_ns", "ns", "lower"},
	{"trace.overhead_select_pct", "%", "lower"},
	{"trace.overhead_agg_pct", "%", "lower"},
	{"trace.overhead_ingest_pct", "%", "lower"},
}
