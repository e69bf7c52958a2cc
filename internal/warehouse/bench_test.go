package warehouse

import (
	"context"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"
	"unsafe"

	"streamloader/internal/geo"
	"streamloader/internal/obs"
	"streamloader/internal/ops"
	"streamloader/internal/partial"
	"streamloader/internal/persist"
	"streamloader/internal/sensor"
	"streamloader/internal/stt"
)

// benchLoaded builds a warehouse with n weather events spread over a day
// and the Osaka area.
func benchLoaded(b *testing.B, n int) *Warehouse {
	b.Helper()
	w := New()
	for i := 0; i < n; i++ {
		tup := wTuple(time.Duration(i%86400)*time.Second, float64(10+i%25),
			"s", 34.4+float64(i%50)*0.01, 135.2+float64(i%50)*0.01)
		if err := w.Append(tup); err != nil {
			b.Fatal(err)
		}
	}
	return w
}

func BenchmarkAppend(b *testing.B) {
	w := New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tup := wTuple(time.Duration(i)*time.Second, 20, "s", 34.7, 135.5)
		if err := w.Append(tup); err != nil {
			b.Fatal(err)
		}
	}
}

// producerStreams pre-builds one monotone tuple stream per producer (one
// source each), with producers offset from each other by a small clock skew
// — the realistic shape of a heterogeneous fleet. Under a single global
// time index, interleaved skewed producers force mid-index insertions (the
// O(n) `byTime` insertion this package's sharding removes); with per-source
// shards each stream appends in order.
func producerStreams(producers, perProducer int) [][]*stt.Tuple {
	streams := make([][]*stt.Tuple, producers)
	for p := range streams {
		stream := make([]*stt.Tuple, perProducer)
		skew := time.Duration(p) * time.Minute
		for i := range stream {
			stream[i] = wTuple(skew+time.Duration(i)*time.Second, float64(10+i%25),
				fmt.Sprintf("src-%d", p), 34.4+float64(i%50)*0.01, 135.2+float64(i%50)*0.01)
		}
		streams[p] = stream
	}
	return streams
}

// benchConcurrentIngest runs `producers` goroutines, each appending its own
// source stream into a fresh warehouse per iteration. shards=1 is the old
// single-lock store; the sharded configurations demonstrate the ingest
// speedup the acceptance criteria require. batch > 1 drives AppendBatch.
func benchConcurrentIngest(b *testing.B, shards, producers, batch int) {
	const perProducer = 5_000
	streams := producerStreams(producers, perProducer)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		w := NewWithConfig(Config{Shards: shards})
		var wg sync.WaitGroup
		for p := 0; p < producers; p++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				stream := streams[p]
				if batch <= 1 {
					for _, tup := range stream {
						if err := w.Append(tup); err != nil {
							b.Error(err)
							return
						}
					}
					return
				}
				for i := 0; i < len(stream); i += batch {
					end := min(i+batch, len(stream))
					if err := w.AppendBatch(stream[i:end]); err != nil {
						b.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N*producers*perProducer)/b.Elapsed().Seconds(), "events/sec")
}

func BenchmarkIngestConcurrent(b *testing.B) {
	const producers = 8
	for _, shards := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			benchConcurrentIngest(b, shards, producers, 1)
		})
	}
}

func BenchmarkIngestBatchConcurrent(b *testing.B) {
	const producers = 8
	for _, batch := range []int{16, 256} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			benchConcurrentIngest(b, DefaultShards, producers, batch)
		})
	}
}

// benchLoadedSharded fills a warehouse with n events over 16 sources.
func benchLoadedSharded(b *testing.B, shards, n int) *Warehouse {
	b.Helper()
	w := NewWithConfig(Config{Shards: shards})
	batch := make([]*stt.Tuple, 0, 1024)
	for i := 0; i < n; i++ {
		batch = append(batch, wTuple(time.Duration(i)*time.Second, float64(10+i%25),
			fmt.Sprintf("src-%d", i%16), 34.4+float64(i%50)*0.01, 135.2+float64(i%50)*0.01))
		if len(batch) == cap(batch) {
			if err := w.AppendBatch(batch); err != nil {
				b.Fatal(err)
			}
			batch = batch[:0]
		}
	}
	if err := w.AppendBatch(batch); err != nil {
		b.Fatal(err)
	}
	return w
}

// BenchmarkSelectFanout measures concurrent query throughput: readers issue
// time-range selects while the per-shard scans run in parallel.
func BenchmarkSelectFanout(b *testing.B) {
	for _, shards := range []int{1, 16} {
		for _, readers := range []int{4, 16} {
			b.Run(fmt.Sprintf("shards=%d/readers=%d", shards, readers), func(b *testing.B) {
				w := benchLoadedSharded(b, shards, 200_000)
				q := Query{From: t0.Add(6 * time.Hour), To: t0.Add(7 * time.Hour)}
				b.ReportAllocs()
				b.ResetTimer()
				var wg sync.WaitGroup
				for r := 0; r < readers; r++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for i := r; i < b.N; i += readers {
							if _, _, err := w.Select(context.Background(), q); err != nil {
								b.Error(err)
								return
							}
						}
					}()
				}
				wg.Wait()
				b.StopTimer()
				b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/sec")
			})
		}
	}
}

func BenchmarkSelectTimeRange(b *testing.B) {
	w := benchLoaded(b, 50_000)
	q := Query{From: t0.Add(6 * time.Hour), To: t0.Add(7 * time.Hour)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := w.Select(context.Background(), q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSelectRegion(b *testing.B) {
	w := benchLoaded(b, 50_000)
	region := geo.NewRect(geo.Point{Lat: 34.5, Lon: 135.3}, geo.Point{Lat: 34.55, Lon: 135.35})
	q := Query{Region: &region}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := w.Select(context.Background(), q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSelectCond(b *testing.B) {
	w := benchLoaded(b, 50_000)
	q := Query{Cond: "temperature > 30", From: t0.Add(3 * time.Hour), To: t0.Add(4 * time.Hour)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := w.Select(context.Background(), q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRetentionUnderIngest measures sustained batched ingest with a
// retention bound engaged, so every few batches trigger a compaction.
// Eviction must ride the whole-segment cold path: the evictions/sec and
// whole-drops/trims metrics make an index-rebuild regression visible.
func BenchmarkRetentionUnderIngest(b *testing.B) {
	for _, segEvents := range []int{512, 4096} {
		b.Run(fmt.Sprintf("segEvents=%d", segEvents), func(b *testing.B) {
			w := NewWithConfig(Config{Shards: 4, SegmentEvents: segEvents, SegmentSpan: time.Hour})
			w.SetRetention(20_000)
			const batchSize = 256
			batch := make([]*stt.Tuple, batchSize)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range batch {
					off := time.Duration(i*batchSize+j) * time.Second
					batch[j] = wTuple(off, 20, fmt.Sprintf("ret-%d", j%8), 34.7, 135.5)
				}
				if err := w.AppendBatch(batch); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			sec := b.Elapsed().Seconds()
			b.ReportMetric(float64(w.Evicted())/sec, "evictions/sec")
			b.ReportMetric(float64(b.N*batchSize)/sec, "events/sec")
			b.ReportMetric(float64(w.segDrops.Load()), "whole-drops")
			b.ReportMetric(float64(w.segTrims.Load()), "boundary-trims")
		})
	}
	// The cases above space events a second apart, so no two heads of the
	// retention walk tie. The bench fleet's do: each op ingests the
	// tie-heavy cut store (cutBenchShaped), whose minute granularity aligns
	// 24 000 events to each instant, through several cuts.
	b.Run("benchShaped", func(b *testing.B) {
		var events, evicted, pops, cuts uint64
		var held time.Duration
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			w := cutBenchShaped(b)
			events += uint64(w.Len()) + w.Evicted()
			evicted += w.Evicted()
			pops += w.cutPops.Load()
			sn := w.met.retentionCut.Snapshot()
			cuts += sn.Count
			held += sn.Sum
		}
		sec := b.Elapsed().Seconds()
		b.ReportMetric(float64(events)/sec, "events/sec")
		b.ReportMetric(float64(evicted)/sec, "evictions/sec")
		if cuts > 0 {
			b.ReportMetric(float64(pops)/float64(cuts), "heap-pops/cut")
			b.ReportMetric(held.Seconds()*1e3/float64(cuts), "lock-held-ms/cut")
		}
	})
}

// BenchmarkSelectSegmentPruning compares a narrow time-range select, which
// should prune nearly every segment of a wide history, against a full-range
// select that must scan them all. The %segs-pruned metric tracks the
// acceptance criterion (>= 90% pruned on the narrow window).
func BenchmarkSelectSegmentPruning(b *testing.B) {
	w := NewWithConfig(Config{Shards: 4, SegmentEvents: 1000, SegmentSpan: time.Hour})
	const n = 200_000 // ~55 hours of seconds -> hundreds of segments
	batch := make([]*stt.Tuple, 0, 1000)
	for i := 0; i < n; i++ {
		batch = append(batch, wTuple(time.Duration(i)*time.Second, float64(10+i%25),
			fmt.Sprintf("src-%d", i%8), 34.4+float64(i%50)*0.01, 135.2+float64(i%50)*0.01))
		if len(batch) == cap(batch) {
			if err := w.AppendBatch(batch); err != nil {
				b.Fatal(err)
			}
			batch = batch[:0]
		}
	}
	for name, q := range map[string]Query{
		"narrow": {From: t0.Add(50 * time.Hour), To: t0.Add(50*time.Hour + 30*time.Minute)},
		"full":   {From: t0, To: t0.Add(56 * time.Hour)},
	} {
		b.Run(name, func(b *testing.B) {
			var scanned, pruned int
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, qs, err := w.Select(context.Background(), q)
				if err != nil {
					b.Fatal(err)
				}
				scanned += qs.SegmentsScanned
				pruned += qs.SegmentsPruned
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/sec")
			if total := scanned + pruned; total > 0 {
				b.ReportMetric(100*float64(pruned)/float64(total), "%segs-pruned")
			}
		})
	}
}

// BenchmarkIngestFsyncPolicy measures durable batched ingest under each
// WAL fsync policy against the in-memory baseline. SyncAlways pays one
// fsync per shard sub-batch; SyncInterval coalesces to one per 100ms;
// SyncNever leaves flushing to the OS (crash-of-process safe, crash-of-
// host exposed).
func BenchmarkIngestFsyncPolicy(b *testing.B) {
	const batchSize = 256
	policies := []struct {
		name string
		open func(b *testing.B) *Warehouse
	}{
		{"memory", func(b *testing.B) *Warehouse { return NewWithConfig(Config{Shards: 4}) }},
		{"never", func(b *testing.B) *Warehouse { return openBenchWarehouse(b, persist.SyncNever) }},
		{"interval", func(b *testing.B) *Warehouse { return openBenchWarehouse(b, persist.SyncInterval) }},
		{"always", func(b *testing.B) *Warehouse { return openBenchWarehouse(b, persist.SyncAlways) }},
	}
	for _, p := range policies {
		b.Run(p.name, func(b *testing.B) {
			w := p.open(b)
			defer w.Close()
			batch := make([]*stt.Tuple, batchSize)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range batch {
					off := time.Duration(i*batchSize+j) * time.Second
					batch[j] = wTuple(off, 20, fmt.Sprintf("fs-%d", j%8), 34.7, 135.5)
				}
				if err := w.AppendBatch(batch); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N*batchSize)/b.Elapsed().Seconds(), "events/sec")
		})
	}
}

func openBenchWarehouse(b *testing.B, sync persist.SyncPolicy) *Warehouse {
	b.Helper()
	w, err := Open(Config{Shards: 4, DataDir: b.TempDir(), Sync: sync})
	if err != nil {
		b.Fatal(err)
	}
	return w
}

// benchLoadColdable fills a warehouse with n second-spaced events over 8
// sources, the shape the cold-read benchmarks spill and query.
func benchLoadColdable(b *testing.B, w *Warehouse, n int) {
	b.Helper()
	batch := make([]*stt.Tuple, 0, 1000)
	for i := 0; i < n; i++ {
		batch = append(batch, wTuple(time.Duration(i)*time.Second, float64(10+i%25),
			fmt.Sprintf("src-%d", i%8), 34.4+float64(i%50)*0.01, 135.2+float64(i%50)*0.01))
		if len(batch) == cap(batch) {
			if err := w.AppendBatch(batch); err != nil {
				b.Fatal(err)
			}
			batch = batch[:0]
		}
	}
	if len(batch) > 0 {
		if err := w.AppendBatch(batch); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSelectColdVsHot compares a time-range select over spilled
// segments against the same data fully in memory: the cost of reading a
// cold segment's overlapping chunks back from disk, and the envelope
// pruning that keeps most cold files unopened.
func BenchmarkSelectColdVsHot(b *testing.B) {
	const n = 100_000
	q := Query{From: t0.Add(2 * time.Hour), To: t0.Add(3 * time.Hour)}

	b.Run("hot", func(b *testing.B) {
		w := NewWithConfig(Config{Shards: 4, SegmentEvents: 1000, SegmentSpan: time.Hour})
		benchLoadColdable(b, w, n)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := w.Select(context.Background(), q); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/sec")
	})
	b.Run("spilled", func(b *testing.B) {
		w, err := Open(Config{
			Shards: 4, SegmentEvents: 1000, SegmentSpan: time.Hour,
			DataDir: b.TempDir(), HotSegments: 1, Sync: persist.SyncNever,
			ColdCacheBytes: -1, // measure the raw disk path
		})
		if err != nil {
			b.Fatal(err)
		}
		defer w.Close()
		benchLoadColdable(b, w, n)
		w.DrainSpills()
		if w.Stats().SegmentsCold == 0 {
			b.Fatal("nothing spilled")
		}
		b.ReportAllocs()
		b.ResetTimer()
		var scanned, pruned int
		for i := 0; i < b.N; i++ {
			_, qs, err := w.Select(context.Background(), q)
			if err != nil {
				b.Fatal(err)
			}
			scanned += qs.SegmentsScanned
			pruned += qs.SegmentsPruned
		}
		b.StopTimer()
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/sec")
		if total := scanned + pruned; total > 0 {
			b.ReportMetric(100*float64(pruned)/float64(total), "%segs-pruned")
		}
	})
}

// BenchmarkSelectColdCached measures the cold-read chunk cache: the same
// window select over fully-spilled history with the cache disabled (every
// query re-reads and re-decodes its chunks from disk) versus enabled and
// warm (repeat queries assemble results from decoded chunks in RAM). The
// acceptance bar is cache-warm spilled selects within 2x of hot-segment
// selects (BenchmarkSelectColdVsHot/hot).
func BenchmarkSelectColdCached(b *testing.B) {
	const n = 100_000
	q := Query{From: t0.Add(2 * time.Hour), To: t0.Add(3 * time.Hour)}
	open := func(b *testing.B, cacheBytes int64) *Warehouse {
		b.Helper()
		w, err := Open(Config{
			Shards: 4, SegmentEvents: 1000, SegmentSpan: time.Hour,
			DataDir: b.TempDir(), HotSegments: 1, Sync: persist.SyncNever,
			ColdCacheBytes: cacheBytes,
		})
		if err != nil {
			b.Fatal(err)
		}
		benchLoadColdable(b, w, n)
		w.DrainSpills()
		if w.Stats().SegmentsCold == 0 {
			b.Fatal("nothing spilled")
		}
		return w
	}

	b.Run("uncached", func(b *testing.B) {
		w := open(b, -1)
		defer w.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := w.Select(context.Background(), q); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/sec")
	})
	b.Run("warm", func(b *testing.B) {
		w := open(b, DefaultColdCacheBytes)
		defer w.Close()
		if _, _, err := w.Select(context.Background(), q); err != nil { // warm the cache
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		var hits, misses int
		for i := 0; i < b.N; i++ {
			_, qs, err := w.Select(context.Background(), q)
			if err != nil {
				b.Fatal(err)
			}
			hits += qs.ColdCacheHits
			misses += qs.ColdCacheMisses
		}
		b.StopTimer()
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/sec")
		if total := hits + misses; total > 0 {
			b.ReportMetric(100*float64(hits)/float64(total), "%cache-hit")
		}
	})
}

// BenchmarkIngestSpillStall measures Append tail latency while segments
// spill. With the background spiller, a shard over its hot budget hands the
// file write to the spill worker and the append returns; the p99 with
// spilling active must sit within 2x of the never-spilling baseline —
// before this pipeline, the whole segment encode+write+fsync ran inside
// the shard lock and the stalled appends paid it. The segment size keeps
// the seal rate within the worker's write throughput, the regime the
// criterion targets; a producer that persistently outruns the disk is
// instead throttled (off-lock) by the bounded spill queue, and its p99
// reflects that backpressure by design.
func BenchmarkIngestSpillStall(b *testing.B) {
	for _, mode := range []struct {
		name string
		hot  int
	}{{"spill", 1}, {"nospill", -1}} {
		b.Run(mode.name, func(b *testing.B) {
			w, err := Open(Config{
				Shards: 1, SegmentEvents: 2048, SegmentSpan: time.Hour,
				DataDir: b.TempDir(), HotSegments: mode.hot, Sync: persist.SyncNever,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer w.Close()
			lat := make([]time.Duration, 0, b.N)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tup := wTuple(time.Duration(i)*time.Second, 20, "s", 34.7, 135.5)
				start := time.Now()
				if err := w.Append(tup); err != nil {
					b.Fatal(err)
				}
				lat = append(lat, time.Since(start))
			}
			b.StopTimer()
			w.DrainSpills()
			sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
			if len(lat) > 0 {
				b.ReportMetric(float64(lat[len(lat)/2].Nanoseconds()), "p50-ns")
				b.ReportMetric(float64(lat[len(lat)*99/100].Nanoseconds()), "p99-ns")
				b.ReportMetric(float64(lat[len(lat)-1].Nanoseconds()), "max-ns")
			}
			b.ReportMetric(float64(w.Stats().SegmentsSpilled), "spills")
		})
	}
}

// BenchmarkAggregatePushdown compares a pushed-down aggregation against
// select-then-aggregate — materializing every matching event over HTTP's
// old path and folding client-side — on hot and on fully-spilled history.
// The pushdown never builds a merged event list; on spilled history a
// fully-covered COUNT must be answered from cold headers alone (zero
// chunks read, the files-opened metric), which is where the ≥5x allocs/op
// win comes from.
func BenchmarkAggregatePushdown(b *testing.B) {
	const n = 100_000
	buildHot := func(b *testing.B) *Warehouse {
		w := NewWithConfig(Config{Shards: 4, SegmentEvents: 1000, SegmentSpan: time.Hour})
		benchLoadColdable(b, w, n)
		return w
	}
	buildSpilled := func(b *testing.B) *Warehouse {
		w, err := Open(Config{
			Shards: 4, SegmentEvents: 1000, SegmentSpan: time.Hour,
			DataDir: b.TempDir(), HotSegments: 1, Sync: persist.SyncNever,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { w.Close() })
		benchLoadColdable(b, w, n)
		w.DrainSpills()
		if w.Stats().SegmentsCold == 0 {
			b.Fatal("nothing spilled")
		}
		return w
	}
	countQ := AggQuery{Func: ops.AggCount, GroupBy: []string{"source"}}
	avgQ := AggQuery{Func: ops.AggAvg, Field: "temperature", GroupBy: []string{"source"}}

	// selectAggregate is the client-side baseline: materialize the merged
	// event list, then fold it.
	selectAggregate := func(b *testing.B, w *Warehouse, aq AggQuery) {
		evs, _, err := w.Select(context.Background(), aq.Query)
		if err != nil {
			b.Fatal(err)
		}
		counts := map[string]int64{}
		sums := map[string]float64{}
		for _, ev := range evs {
			if aq.Field != "" {
				v, ok := ev.Tuple.Get(aq.Field)
				if !ok || !v.Kind().Numeric() {
					continue
				}
				sums[ev.Tuple.Source] += v.AsFloat()
			}
			counts[ev.Tuple.Source]++
		}
		if len(counts) == 0 {
			b.Fatal("empty aggregate")
		}
	}

	for _, tier := range []struct {
		name  string
		build func(*testing.B) *Warehouse
	}{{"hot", buildHot}, {"spilled", buildSpilled}} {
		for _, shape := range []struct {
			name string
			aq   AggQuery
		}{{"count", countQ}, {"avg", avgQ}} {
			b.Run(fmt.Sprintf("%s/%s/pushdown", tier.name, shape.name), func(b *testing.B) {
				w := tier.build(b)
				b.ReportAllocs()
				b.ResetTimer()
				var headerOnly, chunkReads int
				for i := 0; i < b.N; i++ {
					rows, qs, err := w.Aggregate(context.Background(), shape.aq)
					if err != nil {
						b.Fatal(err)
					}
					if len(rows) == 0 {
						b.Fatal("empty aggregate")
					}
					headerOnly += qs.ColdHeaderOnly
					chunkReads += qs.ColdCacheHits + qs.ColdCacheMisses
				}
				b.StopTimer()
				b.ReportMetric(float64(b.N*n)/b.Elapsed().Seconds(), "events/sec")
				b.ReportMetric(float64(chunkReads)/float64(b.N), "chunk-reads/op")
				b.ReportMetric(float64(headerOnly)/float64(b.N), "header-only-segs/op")
				// The acceptance bar: a fully-covered COUNT over spilled
				// history opens no event block at all.
				if tier.name == "spilled" && shape.name == "count" && chunkReads != 0 {
					b.Fatalf("covered COUNT read %d chunks, want 0", chunkReads)
				}
			})
			b.Run(fmt.Sprintf("%s/%s/select", tier.name, shape.name), func(b *testing.B) {
				w := tier.build(b)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					selectAggregate(b, w, shape.aq)
				}
				b.StopTimer()
				b.ReportMetric(float64(b.N*n)/b.Elapsed().Seconds(), "events/sec")
			})
		}
	}
}

// BenchmarkCountFastPath compares the per-segment counting path against
// materializing the same events through Select.
func BenchmarkCountFastPath(b *testing.B) {
	w := NewWithConfig(Config{Shards: 4, SegmentEvents: 1000, SegmentSpan: time.Hour})
	for _, streamTuples := range producerStreams(8, 25_000) {
		if err := w.AppendBatch(streamTuples); err != nil {
			b.Fatal(err)
		}
	}
	q := Query{From: t0.Add(1 * time.Hour), To: t0.Add(4 * time.Hour)}
	b.Run("count", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := w.Count(context.Background(), q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("select", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			evs, _, err := w.Select(context.Background(), q)
			if err != nil {
				b.Fatal(err)
			}
			_ = evs
		}
	})
}

// BenchmarkViewFanout measures standing-view maintenance under fan-out.
// Each push case seeds the same store, registers one shared COUNT-by-source
// view and attaches 0/1/100/5000 draining subscribers, then times ingest:
// the per-event cost is one partial fold plus one publisher wake regardless
// of subscriber count, so events/sec and the append p99 must stay flat as
// fan-out grows (the acceptance bar: p99 with subscribers within ~1.2x of
// the bare store). The pull baseline serves the same freshness by
// re-scanning the store once per ingested event — what every polling
// client would pay without the view.
func BenchmarkViewFanout(b *testing.B) {
	const seedEvents = 50_000
	aq := AggQuery{Func: ops.AggCount, GroupBy: []string{"source"}}
	seed := func(b *testing.B) *Warehouse {
		b.Helper()
		w := NewWithConfig(Config{Shards: 4, SegmentEvents: 4096, SegmentSpan: time.Hour})
		for _, streamTuples := range producerStreams(8, seedEvents/8) {
			if err := w.AppendBatch(streamTuples); err != nil {
				b.Fatal(err)
			}
		}
		return w
	}
	// ingest appends b.N fresh events one at a time — the latency-sensitive
	// shape — reporting throughput and the p99 single-append latency.
	ingest := func(b *testing.B, w *Warehouse) {
		lat := make([]time.Duration, 0, b.N)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tup := wTuple(200*time.Hour+time.Duration(i)*time.Second, float64(i%40),
				fmt.Sprintf("src-%d", i%8), 34.7, 135.5)
			start := time.Now()
			if err := w.Append(tup); err != nil {
				b.Fatal(err)
			}
			lat = append(lat, time.Since(start))
		}
		b.StopTimer()
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		p99 := lat[min(len(lat)*99/100, len(lat)-1)]
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/sec")
		b.ReportMetric(float64(p99.Nanoseconds()), "append-p99-ns")
	}
	for _, subs := range []int{0, 1, 100, 5000} {
		b.Run(fmt.Sprintf("push/subs=%d", subs), func(b *testing.B) {
			w := seed(b)
			var drainWG sync.WaitGroup
			subscriptions := make([]*Subscription, 0, subs)
			for i := 0; i < subs; i++ {
				sub, err := w.Subscribe(aq, SubscribeOptions{Buffer: 1})
				if err != nil {
					b.Fatal(err)
				}
				subscriptions = append(subscriptions, sub)
				drainWG.Add(1)
				go func() {
					defer drainWG.Done()
					for range sub.Updates() {
					}
				}()
			}
			ingest(b, w)
			for _, sub := range subscriptions {
				sub.Close()
			}
			drainWG.Wait()
		})
	}
	// Pull baseline: no standing view; every ingested event is followed by
	// one on-demand Aggregate — the cost one polling dashboard pays to stay
	// as fresh as a single push subscriber.
	b.Run("pull/poll-per-event", func(b *testing.B) {
		w := seed(b)
		lat := make([]time.Duration, 0, b.N)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tup := wTuple(200*time.Hour+time.Duration(i)*time.Second, float64(i%40),
				fmt.Sprintf("src-%d", i%8), 34.7, 135.5)
			start := time.Now()
			if err := w.Append(tup); err != nil {
				b.Fatal(err)
			}
			lat = append(lat, time.Since(start))
			if _, _, err := w.Aggregate(context.Background(), aq); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		p99 := lat[min(len(lat)*99/100, len(lat)-1)]
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/sec")
		b.ReportMetric(float64(p99.Nanoseconds()), "append-p99-ns")
	})
}

// benchColdStore spills n events cold into a fresh store with compaction
// off, so the file layout is the spiller's, and a cold cache of cacheBytes:
// negative disables it, so every decode pays its real cost. The caller
// closes the store.
func benchColdStore(b *testing.B, n int, cacheBytes int64) (*Warehouse, string) {
	b.Helper()
	dir := b.TempDir()
	w, err := Open(Config{
		Shards: 4, SegmentEvents: 4 * persist.IndexEvery, SegmentSpan: 24 * time.Hour,
		DataDir: dir, HotSegments: 1, Sync: persist.SyncNever,
		ColdCacheBytes: cacheBytes, CompactBelow: -1,
	})
	if err != nil {
		b.Fatal(err)
	}
	benchLoadColdable(b, w, n)
	w.DrainSpills()
	if w.Stats().SegmentsCold == 0 {
		b.Fatal("nothing spilled")
	}
	return w, dir
}

// benchPartialCoverQuery is a SUM over a window that partially covers the
// spilled history of benchColdStore(100_000) (~28h of second-spaced
// events): the file-header fast path never applies (numeric aggregate) and
// no file is wholly inside the window. With full it carries a Cond every
// event passes, which changes no row but makes the chunk-stats shortcut
// illegal and the projection full: every chunk the window touches decodes,
// every column of it.
func benchPartialCoverQuery(full bool) AggQuery {
	q := AggQuery{Func: ops.AggSum, Field: "temperature",
		Query: Query{From: t0.Add(2 * time.Hour), To: t0.Add(20 * time.Hour)}}
	if full {
		q.Cond = "temperature > -1"
	}
	return q
}

// benchColdAggregate runs q b.N times and returns, per query, the chunks
// decoded, the chunks answered from stats and the event-block bytes parsed.
func benchColdAggregate(b *testing.B, w *Warehouse, q AggQuery) (decodes, statsChunks, bytes float64) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, qs, err := w.Aggregate(context.Background(), q)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) == 0 {
			b.Fatal("empty aggregate")
		}
		decodes += float64(qs.ColdCacheHits + qs.ColdCacheMisses)
		statsChunks += float64(qs.ColdChunkStats)
		bytes += float64(qs.ColdBytesDecoded)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/sec")
	return decodes / float64(b.N), statsChunks / float64(b.N), bytes / float64(b.N)
}

// BenchmarkAggregatePartialCover measures the per-chunk stats pushdown on
// benchPartialCoverQuery: wholly-covered chunks are answered from the
// sparse-index stats and only boundary chunks decode. chunk-decodes/op is
// the acceptance metric, gated twice: against the layout — a file decodes
// at most one chunk per window edge that falls inside its envelope — and
// against the same query with the shortcut made illegal (>= 5x fewer).
func BenchmarkAggregatePartialCover(b *testing.B) {
	w, dir := benchColdStore(b, 100_000, -1)
	defer w.Close()
	q := benchPartialCoverQuery(false)
	infos, _, _ := coldSegInfos(b, dir)
	boundary := 0
	for _, info := range infos {
		for _, edge := range []time.Time{q.From, q.To} {
			if info.Head.Time.Before(edge) && !info.Tail.Time.Before(edge) {
				boundary++
			}
		}
	}
	var withStats float64
	b.Run("stats", func(b *testing.B) {
		decodes, statsChunks, _ := benchColdAggregate(b, w, q)
		b.ReportMetric(decodes, "chunk-decodes/op")
		b.ReportMetric(statsChunks, "stats-chunks/op")
		if statsChunks == 0 || decodes > float64(boundary) {
			b.Fatalf("decoded %.1f chunks/op with %.1f answered from stats; the layout has %d boundary chunks",
				decodes, statsChunks, boundary)
		}
		withStats = decodes
	})
	b.Run("decode", func(b *testing.B) {
		decodes, statsChunks, _ := benchColdAggregate(b, w, benchPartialCoverQuery(true))
		b.ReportMetric(decodes, "chunk-decodes/op")
		b.ReportMetric(statsChunks, "stats-chunks/op")
		// Acceptance (when both sub-benchmarks run).
		if withStats > 0 && decodes/withStats < 5 {
			b.Fatalf("stats pushdown decodes %.1f chunks/op vs %.1f without it — under the 5x bar", withStats, decodes)
		}
	})
}

// BenchmarkObsOverhead prices the instrumentation itself: identical ingest
// and select workloads against a warehouse wired to a live metrics registry
// and one wired to the no-op registry (every histogram handle nil, so the
// hot path pays exactly one nil check per timing region). CI runs it once,
// in `bench smoke`, so it cannot rot; it gates nothing. The 5 % overhead
// reading is end to end: trace.overhead_{ingest,select,agg}_pct of
// `bash bench/run.sh -trace 1`, the same workload with and without tracing
// against the real server.
//
// The ingest side measures the production shape — the sink delivers
// batches, so one Start/Since pair (two clock reads, ~100ns) amortizes
// across the batch. Per-tuple Append is also instrumented but is NOT the
// gated path: a lone Append runs ~150ns, so wall-clocking it can never sit
// under a 5% bar, and no production caller appends unbatched at rate.
func BenchmarkObsOverhead(b *testing.B) {
	registries := []struct {
		name string
		mk   func() *obs.Registry
	}{
		{"instrumented", obs.NewRegistry},
		{"noop", obs.Noop},
	}
	const batch = 64
	b.Run("append", func(b *testing.B) {
		for _, rc := range registries {
			b.Run(rc.name, func(b *testing.B) {
				// Retention bounds the heap so the comparison runs at a
				// steady state instead of under ever-growing GC pressure.
				w := NewWithConfig(Config{Obs: rc.mk()})
				w.SetRetention(200_000)
				tuples := make([]*stt.Tuple, batch)
				lat := make([]time.Duration, 0, b.N)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for j := range tuples {
						tuples[j] = wTuple(time.Duration(i*batch+j)*time.Second,
							20, "s", 34.7, 135.5)
					}
					start := time.Now()
					if err := w.AppendBatch(tuples); err != nil {
						b.Fatal(err)
					}
					lat = append(lat, time.Since(start))
				}
				b.StopTimer()
				sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
				if len(lat) > 0 {
					b.ReportMetric(float64(lat[len(lat)/2].Nanoseconds()), "p50-ns")
					b.ReportMetric(float64(lat[len(lat)*99/100].Nanoseconds()), "p99-ns")
				}
				b.ReportMetric(float64(b.N*batch)/b.Elapsed().Seconds(), "events_per_sec")
			})
		}
	})
	b.Run("select", func(b *testing.B) {
		for _, rc := range registries {
			b.Run(rc.name, func(b *testing.B) {
				w := NewWithConfig(Config{Obs: rc.mk()})
				for i := 0; i < 50_000; i++ {
					tup := wTuple(time.Duration(i%86400)*time.Second, float64(10+i%25),
						"s", 34.4+float64(i%50)*0.01, 135.2+float64(i%50)*0.01)
					if err := w.Append(tup); err != nil {
						b.Fatal(err)
					}
				}
				q := Query{From: t0.Add(6 * time.Hour), To: t0.Add(7 * time.Hour)}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, _, err := w.Select(context.Background(), q); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries_per_sec")
			})
		}
	})
}

// coldSegInfos opens every spilled segment file under dir (all shards) and
// returns the infos plus total on-disk bytes and event count.
func coldSegInfos(b *testing.B, dir string) ([]*persist.SegmentInfo, int64, int) {
	b.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		b.Fatal(err)
	}
	var infos []*persist.SegmentInfo
	var bytes int64
	events := 0
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		paths, _, err := persist.ListSegments(filepath.Join(dir, e.Name()))
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range paths {
			info, _, err := persist.OpenSegment(p)
			if err != nil {
				b.Fatal(err)
			}
			infos = append(infos, info)
			bytes += info.Bytes
			events += info.Count
		}
	}
	return infos, bytes, events
}

// BenchmarkColdDecodeV3 prices a full decode of spilled history — every
// chunk of every cold file, every column materialized, the path a
// payload-condition query pays — and the files' on-disk footprint per
// event, which it gates: a file must be at least 30% smaller than the same
// file with row-encoded chunks (the same header and seq block around the
// events in persist.RowEncodedBytes' encoding — the WAL's codec, and what a
// cold chunk held before it was columnar). Decode speed is guarded end to
// end, by select_ms_p50 and agg_ms_p50 on bench/'s passthrough-durable
// workload.
func BenchmarkColdDecodeV3(b *testing.B) {
	w, dir := benchColdStore(b, 100_000, -1)
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	infos, diskBytes, events := coldSegInfos(b, dir)
	decode := func(info *persist.SegmentInfo) []persist.Event {
		evs, _, err := info.ReadRangeProjected(nil, 0, info.Count, persist.FullProjection)
		if err != nil || len(evs) != info.Count {
			b.Fatalf("%s: decoded %d of %d events: %v", info.Path, len(evs), info.Count, err)
		}
		return evs
	}
	var rowDisk int64
	for _, info := range infos { // untimed: also warms the page cache
		// Magic, header length and CRC, header, seq block: see the layout
		// comment in persist/segment.go.
		head := make([]byte, 12)
		f, err := os.Open(info.Path)
		if err == nil {
			_, err = f.ReadAt(head, 0)
			f.Close()
		}
		if err != nil {
			b.Fatal(err)
		}
		framing := 16 + int64(binary.LittleEndian.Uint32(head[8:])) + 8*int64(info.Count)
		rowDisk += framing + persist.RowEncodedBytes(decode(info))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, info := range infos {
			decode(info)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(diskBytes)/float64(events), "disk-B/event")
	b.ReportMetric(float64(b.N*events)/b.Elapsed().Seconds(), "events-decoded/sec")
	b.ReportMetric(float64(diskBytes)/float64(rowDisk), "size-ratio")
	if float64(diskBytes) > 0.7*float64(rowDisk) {
		b.Fatalf("files hold %.1f B/event vs %.1f with row-encoded chunks — under the 30%% size bar",
			float64(diskBytes)/float64(events), float64(rowDisk)/float64(events))
	}
}

// BenchmarkSelectProjected measures projected decode on the query path:
// benchPartialCoverQuery's boundary chunks decode only the time column and
// the one projected field. Bytes parsed per decoded chunk is the acceptance
// metric: at least 3x fewer than the same query over the same files under
// the full projection (which also decodes more chunks, hence per chunk).
// The counters are deterministic; on this corpus the ratio is 3.1.
func BenchmarkSelectProjected(b *testing.B) {
	w, _ := benchColdStore(b, 100_000, -1)
	defer w.Close()
	var projected float64
	b.Run("projected", func(b *testing.B) {
		decodes, _, bytes := benchColdAggregate(b, w, benchPartialCoverQuery(false))
		b.ReportMetric(bytes, "bytes-decoded/op")
		b.ReportMetric(bytes/decodes, "bytes/chunk-decode")
		projected = bytes / decodes
	})
	b.Run("full", func(b *testing.B) {
		decodes, _, bytes := benchColdAggregate(b, w, benchPartialCoverQuery(true))
		b.ReportMetric(bytes, "bytes-decoded/op")
		b.ReportMetric(bytes/decodes, "bytes/chunk-decode")
		// Acceptance (when both sub-benchmarks run).
		if full := bytes / decodes; projected > 0 && full/projected < 3 {
			b.Fatalf("projected decode parses %.0f B/chunk vs %.0f in full — under the 3x bar", projected, full)
		}
	})
}

// The select-page store: the bench server's durable store with 8 sources ×
// 3000 events a minute over 10 minutes, every event of a minute at the same
// event time, appended in 256-event batches interleaved across the sources,
// and paged a minute at a time at 5001 events.
const (
	selectPageSources   = 8
	selectPagePerMinute = 3000
	selectPageMinutes   = 10
	selectPageLimit     = 5001
)

// openSelectPageStore builds the select-page store with the given cold-cache
// budget and waits for its spills to land.
func openSelectPageStore(tb testing.TB, cacheBytes int64) *Warehouse {
	tb.Helper()
	sync, every, err := persist.ParseSyncPolicy("interval")
	if err != nil {
		tb.Fatal(err)
	}
	w, err := Open(Config{DataDir: tb.TempDir(), Sync: sync, SyncEvery: every,
		HotSegments: 2, ColdCacheBytes: cacheBytes})
	if err != nil {
		tb.Fatal(err)
	}
	batch := make([]*stt.Tuple, 0, persist.IndexEvery)
	for m := 0; m < selectPageMinutes; m++ {
		for done := 0; done < selectPagePerMinute; done += persist.IndexEvery {
			for src := 0; src < selectPageSources; src++ {
				batch = batch[:0]
				for i := done; i < min(done+persist.IndexEvery, selectPagePerMinute); i++ {
					batch = append(batch, wTuple(time.Duration(m)*time.Minute, float64(i%40),
						fmt.Sprintf("page-src-%d", src), 34.7, 135.5))
				}
				if err := w.AppendBatch(batch); err != nil {
					tb.Fatal(err)
				}
			}
		}
	}
	w.DrainSpills()
	return w
}

// selectPageQueries returns a page query for each minute wholly spilled on
// every shard, so each page is cold.
func selectPageQueries(tb testing.TB, w *Warehouse) []Query {
	tb.Helper()
	var qs []Query
	for m := 0; m < selectPageMinutes; m++ {
		q := Query{From: t0.Add(time.Duration(m) * time.Minute), To: t0.Add(time.Duration(m+1) * time.Minute), Limit: selectPageLimit}
		cold := true
		for _, s := range w.shards {
			s.mu.RLock()
			for _, seg := range s.segs {
				cold = cold && seg.prunedBy(q.From, q.To)
			}
			s.mu.RUnlock()
		}
		if cold {
			qs = append(qs, q)
		}
	}
	if len(qs) == 0 {
		tb.Fatal("no minute is wholly cold")
	}
	return qs
}

// BenchmarkSelectPage measures the bench's select page on the select-page
// store. The select merges its cursors lazily, so it reads only the chunks
// the page reaches. chunks-decoded/op counts every chunk the query read,
// decoded or served decoded by the cache; the gate fails when it passes the
// chunks 5001 events fill plus, per cold cursor, one chunk straddling the
// window start and one read past the page. Decoding the whole window reads
// all ~94. TestSelectPageHeapFixes gates the same page's heap fixes.
func BenchmarkSelectPage(b *testing.B) {
	const limit = selectPageLimit
	run := func(b *testing.B, w *Warehouse) {
		qs := selectPageQueries(b, w)
		for _, q := range qs { // warm the cache, when there is one
			if _, _, err := w.Select(context.Background(), q); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		var chunks, worst float64
		for i := 0; i < b.N; i++ {
			evs, st, err := w.Select(context.Background(), qs[i%len(qs)])
			if err != nil {
				b.Fatal(err)
			}
			if len(evs) != limit {
				b.Fatalf("page of %d events, want %d", len(evs), limit)
			}
			read := st.ColdCacheHits + st.ColdCacheMisses
			bound := (limit+persist.IndexEvery-1)/persist.IndexEvery + 2*st.SegmentsScanned
			if read > bound {
				b.Fatalf("a %d-event page over %d cursors read %d chunks, bound %d", limit, st.SegmentsScanned, read, bound)
			}
			chunks += float64(read)
			worst = max(worst, float64(read))
		}
		b.StopTimer()
		b.ReportMetric(chunks/float64(b.N), "chunks-decoded/op")
		b.ReportMetric(worst, "chunks-decoded-max")
	}
	b.Run("cached", func(b *testing.B) {
		w := openSelectPageStore(b, 0)
		defer w.Close()
		run(b, w)
	})
	b.Run("uncached", func(b *testing.B) {
		w := openSelectPageStore(b, -1)
		defer w.Close()
		run(b, w)
	})
}

// BenchmarkColdCacheFootprint gates what the cold cache holds per event. It
// spills a corpus under a budget that fits all of it and sweeps it three
// times, in windows: a projected aggregate (the boundary chunks land as
// columns), selects (every chunk read in full) and the aggregate again. The
// cache must then hold one form per chunk — ColdCacheHeldBytes per cached
// event at most 1.25x what the same events cost as rows, counted from the
// files; a second representation beside the rows, as the cache kept until
// rows became its only full-read form, reads ~2x — and the timed repeat of
// all three sweeps must be served from it without decoding a byte.
func BenchmarkColdCacheFootprint(b *testing.B) {
	w, dir := benchColdStore(b, 100_000, 256<<20)
	defer w.Close()
	infos, _, events := coldSegInfos(b, dir)
	rowsOnly := int64(events) * int64(unsafe.Sizeof(persist.Event{})+unsafe.Sizeof(stt.Tuple{}))
	for _, info := range infos {
		evs, _, err := info.ReadRangeProjected(nil, 0, info.Count, persist.FullProjection)
		if err != nil {
			b.Fatal(err)
		}
		for _, ev := range evs {
			rowsOnly += int64(len(ev.Tuple.Values)) * int64(unsafe.Sizeof(stt.Value{}))
		}
	}

	// ~28h of second-spaced events in windows that cut through chunks.
	const window = 100 * time.Minute
	sweep := func(selects bool) (decoded int64, misses int) {
		for from := t0; from.Before(t0.Add(28 * time.Hour)); from = from.Add(window) {
			q := Query{From: from, To: from.Add(window)}
			var qs QueryStats
			var err error
			if selects {
				_, qs, err = w.Select(context.Background(), q)
			} else {
				_, qs, err = w.Aggregate(context.Background(), AggQuery{Func: ops.AggSum, Field: "temperature", Query: q})
			}
			if err != nil {
				b.Fatal(err)
			}
			decoded += qs.ColdBytesDecoded
			misses += qs.ColdCacheMisses
		}
		return decoded, misses
	}
	order := []bool{false, true, false} // aggregate, select, aggregate
	for _, selects := range order {
		sweep(selects)
	}
	held := w.Stats().ColdCacheHeldBytes
	if float64(held) > 1.25*float64(rowsOnly) || held < rowsOnly {
		b.Fatalf("the cache holds %d B for %d events (%.0f B/event); the same events as rows are %d B (%.0f B/event), and every chunk was read in full",
			held, events, float64(held)/float64(events), rowsOnly, float64(rowsOnly)/float64(events))
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, selects := range order {
			if decoded, misses := sweep(selects); decoded != 0 || misses != 0 {
				b.Fatalf("repeat sweep (selects=%v) decoded %d bytes over %d cache misses; want none", selects, decoded, misses)
			}
		}
	}
	b.StopTimer()
	if again := w.Stats().ColdCacheHeldBytes; again != held {
		b.Fatalf("cache hits changed what the cache holds: %d B, was %d", again, held)
	}
	b.ReportMetric(float64(held)/float64(events), "held-B/event")
	b.ReportMetric(float64(held)/float64(w.Stats().ColdCacheBytes), "held/encoded")
}

// BenchmarkViewRetentionCut prices what per-bucket partial frames buy a
// standing view when retention cuts history out from under it.
//
// The cut/* cases time one retention cut plus the next full read of a
// live bucketed view over a single hot stream. For COUNT/SUM/AVG the
// frames make the cut incremental: whole buckets older than the boundary
// fall off as frame drops and the boundary bucket's evicted contribution
// is subtracted exactly — zero boundary rescans, never a dirty rebuild
// (both asserted). cut/rebuild is the pre-frames design as a baseline:
// the same cut, but the view is invalidated (as every eviction used to
// do) and the next read re-derives every frame from a full history scan.
// cut/speedup interleaves the two on one store and fails the run when the
// incremental path is not ≥10x cheaper; the comparison is conservative —
// the trim side is charged for the whole cut (eviction walk included),
// the rebuild side only for its re-scan read.
//
// The reconnect/* cases price checkpoint resume on a durable store: a
// released view re-registered from its checkpoint (plus an empty WAL-tail
// fold) versus the same registration with the checkpoint files removed,
// which pays a cold backfill over spilled history. Each connect starts with
// the chunk cache emptied, so "cold" means read from the files. Two gates
// are counts and repeat exactly on any machine: a resume decodes no cold
// chunk, a backfill decodes at least one. reconnect/speedup pairs the two
// per round and fails when the median of the per-round ratios, over at
// least 15 rounds, is under the 5x bar; a median over many short rounds is
// what a loaded 2-core machine cannot tip, where a ratio of sums over three
// rounds was.
//
// Timing is manual (ns/op overridden via ReportMetric): the un-timed
// appends that force each cut would otherwise sit inside StopTimer /
// StartTimer pairs, whose per-call memstats reads cost more than the cut
// being measured.
func BenchmarkViewRetentionCut(b *testing.B) {
	const (
		bound   = 65536           // retention bound; cuts drop to 3/4 of it
		batch   = bound/4 + 1     // un-timed appends that force each cut
		spacing = 5 * time.Second // 720 events per 1h bucket and segment
	)
	bucketed := func(fn ops.AggFunc, field string) AggQuery {
		return AggQuery{Func: fn, Field: field, Bucket: time.Hour}
	}
	// seedCut builds an in-memory store at the retention steady state with
	// one live bucketed view, plus a tail counter for further appends.
	seedCut := func(b *testing.B, aq AggQuery) (*Warehouse, *View, *int) {
		b.Helper()
		w := NewWithConfig(Config{Shards: 4, SegmentEvents: 1024, SegmentSpan: time.Hour})
		tail := 0
		grow := func(n int) {
			tups := make([]*stt.Tuple, 0, n)
			for i := 0; i < n; i++ {
				tups = append(tups, wTuple(time.Duration(tail)*spacing, float64(tail%40),
					"s", 34.7, 135.5))
				tail++
			}
			if err := w.AppendBatch(tups); err != nil {
				b.Fatal(err)
			}
		}
		grow(bound)
		v, err := w.RegisterView(aq, ops.UpdatePolicy{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := v.Rows(); err != nil {
			b.Fatal(err)
		}
		return w, v, &tail
	}
	grow := func(b *testing.B, w *Warehouse, tail *int) {
		b.Helper()
		tups := make([]*stt.Tuple, 0, batch)
		for i := 0; i < batch; i++ {
			tups = append(tups, wTuple(time.Duration(*tail)*spacing, float64(*tail%40),
				"s", 34.7, 135.5))
			*tail++
		}
		if err := w.AppendBatch(tups); err != nil {
			b.Fatal(err)
		}
	}

	for _, tc := range []struct {
		name string
		aq   AggQuery
	}{
		{"cut/count", bucketed(ops.AggCount, "")},
		{"cut/sum", bucketed(ops.AggSum, "temperature")},
		{"cut/avg", bucketed(ops.AggAvg, "temperature")},
	} {
		b.Run(tc.name, func(b *testing.B) {
			w, v, tail := seedCut(b, tc.aq)
			defer v.Release()
			rescans0 := w.viewBoundaryRescans.Load()
			drops0 := w.viewFrameDrops.Load()
			subs0 := w.viewSubtractions.Load()
			var timed time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				grow(b, w, tail)
				start := time.Now()
				w.SetRetention(bound) // cut runs inline, frames patched in place
				if _, err := v.Rows(); err != nil {
					b.Fatal(err)
				}
				timed += time.Since(start)
				w.SetRetention(0)
			}
			b.StopTimer()
			if n := w.viewBoundaryRescans.Load() - rescans0; n != 0 {
				b.Fatalf("%s paid %d boundary rescans; subtractable cuts must pay none", tc.name, n)
			}
			if v.dirty.Load() {
				b.Fatalf("%s left the view dirty; cuts must never force a rebuild", tc.name)
			}
			if n := w.viewFrameDrops.Load() - drops0; n == 0 {
				b.Fatal("cuts dropped no frames; benchmark is not exercising the trim path")
			}
			b.ReportMetric(float64(timed.Nanoseconds())/float64(b.N), "ns/op")
			b.ReportMetric(float64(w.viewFrameDrops.Load()-drops0)/float64(b.N), "frame-drops/op")
			b.ReportMetric(float64(w.viewSubtractions.Load()-subs0)/float64(b.N), "subtractions/op")
		})
	}

	// The pre-frames baseline: identical cut, but the next read re-derives
	// every frame from a full scan of the surviving history.
	b.Run("cut/rebuild", func(b *testing.B) {
		w, v, tail := seedCut(b, bucketed(ops.AggSum, "temperature"))
		defer v.Release()
		var timed time.Duration
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			grow(b, w, tail)
			start := time.Now()
			w.SetRetention(bound)
			v.dirty.Store(true)
			if _, err := v.Rows(); err != nil {
				b.Fatal(err)
			}
			timed += time.Since(start)
			w.SetRetention(0)
		}
		b.StopTimer()
		b.ReportMetric(float64(timed.Nanoseconds())/float64(b.N), "ns/op")
	})

	// Interleave the two paths on one store and hold the bar. A minimum of
	// six rounds keeps the ratio honest at -benchtime=1x.
	b.Run("cut/speedup", func(b *testing.B) {
		w, v, tail := seedCut(b, bucketed(ops.AggSum, "temperature"))
		defer v.Release()
		rounds := b.N
		if rounds < 6 {
			rounds = 6
		}
		var trim, rebuild time.Duration
		b.ResetTimer()
		for i := 0; i < rounds; i++ {
			grow(b, w, tail)
			start := time.Now()
			w.SetRetention(bound)
			if _, err := v.Rows(); err != nil {
				b.Fatal(err)
			}
			trim += time.Since(start)
			start = time.Now()
			v.dirty.Store(true)
			if _, err := v.Rows(); err != nil {
				b.Fatal(err)
			}
			rebuild += time.Since(start)
			w.SetRetention(0)
		}
		b.StopTimer()
		speedup := float64(rebuild) / float64(trim)
		b.ReportMetric(float64(trim.Nanoseconds())/float64(rounds), "ns/op")
		b.ReportMetric(speedup, "speedup-x")
		if speedup < 10 {
			b.Fatalf("incremental cut only %.1fx cheaper than rebuild (trim %v, rebuild %v) — under the 10x bar",
				speedup, trim/time.Duration(rounds), rebuild/time.Duration(rounds))
		}
	})

	// seedDurable builds a spilled durable store with a per-mutation view
	// checkpoint cadence and primes one checkpoint via register+release.
	const durableEvents = 65536
	aq := bucketed(ops.AggSum, "temperature")
	seedDurable := func(b *testing.B, dir string) *Warehouse {
		b.Helper()
		w, err := Open(Config{
			Shards: 4, SegmentEvents: 1024, SegmentSpan: time.Hour,
			DataDir: dir, HotSegments: 1, Sync: persist.SyncNever,
			ViewCheckpointEvery: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		tups := make([]*stt.Tuple, 0, durableEvents)
		for i := 0; i < durableEvents; i++ {
			tups = append(tups, wTuple(time.Duration(i)*spacing, float64(i%40),
				"s", 34.7, 135.5))
		}
		if err := w.AppendBatch(tups); err != nil {
			b.Fatal(err)
		}
		w.DrainSpills()
		v, err := w.RegisterView(aq, ops.UpdatePolicy{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := v.Rows(); err != nil {
			b.Fatal(err)
		}
		v.Release() // last release persists the checkpoint
		return w
	}
	// connect times what a reconnecting subscriber waits for — register
	// (checkpoint load or backfill) plus the first full read — and counts
	// the cold chunks it decoded: it empties the chunk cache first, so every
	// chunk its scans read is a miss. The release that follows re-persists
	// the checkpoint for the next round but is teardown, not
	// time-to-first-snapshot, so it stays un-timed.
	connect := func(b *testing.B, w *Warehouse) (time.Duration, uint64) {
		b.Helper()
		for _, s := range w.shards {
			s.mu.RLock()
			for _, cs := range s.cold {
				w.coldCache.Invalidate(cs.info.Path)
			}
			s.mu.RUnlock()
		}
		misses := w.coldCache.Stats().Misses
		start := time.Now()
		v, err := w.RegisterView(aq, ops.UpdatePolicy{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := v.Rows(); err != nil {
			b.Fatal(err)
		}
		d := time.Since(start)
		decoded := w.coldCache.Stats().Misses - misses
		v.Release()
		return d, decoded
	}
	resumed := func(b *testing.B, w *Warehouse) time.Duration {
		b.Helper()
		d, decoded := connect(b, w)
		if decoded != 0 {
			b.Fatalf("a resume decoded %d cold chunks; the checkpoint covers every file", decoded)
		}
		return d
	}
	backfilled := func(b *testing.B, w *Warehouse, dir string) time.Duration {
		b.Helper()
		if err := os.RemoveAll(filepath.Join(dir, viewCkptDir)); err != nil {
			b.Fatal(err)
		}
		d, decoded := connect(b, w)
		if decoded == 0 {
			b.Fatal("a backfill decoded no cold chunk; the baseline is not reading history")
		}
		return d
	}

	b.Run("reconnect/resume", func(b *testing.B) {
		dir := b.TempDir()
		w := seedDurable(b, dir)
		defer w.Close()
		resumes0 := w.viewResumes.Load()
		var timed time.Duration
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			timed += resumed(b, w)
		}
		b.StopTimer()
		if got := w.viewResumes.Load() - resumes0; got != uint64(b.N) {
			b.Fatalf("resumed %d of %d reconnects; every one must come from the checkpoint", got, b.N)
		}
		b.ReportMetric(float64(timed.Nanoseconds())/float64(b.N), "ns/op")
	})

	b.Run("reconnect/backfill", func(b *testing.B) {
		dir := b.TempDir()
		w := seedDurable(b, dir)
		defer w.Close()
		resumes0 := w.viewResumes.Load()
		var timed time.Duration
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			timed += backfilled(b, w, dir)
		}
		b.StopTimer()
		if got := w.viewResumes.Load() - resumes0; got != 0 {
			b.Fatalf("backfill baseline resumed %d times; checkpoints were supposed to be gone", got)
		}
		b.ReportMetric(float64(timed.Nanoseconds())/float64(b.N), "ns/op")
	})

	b.Run("reconnect/speedup", func(b *testing.B) {
		dir := b.TempDir()
		w := seedDurable(b, dir)
		defer w.Close()
		rounds := max(b.N, 15)
		var resume time.Duration
		ratios := make([]float64, rounds)
		b.ResetTimer()
		for i := range ratios {
			backfill := backfilled(b, w, dir) // release re-writes the checkpoint
			r := resumed(b, w)
			resume += r
			ratios[i] = float64(backfill) / float64(r)
		}
		b.StopTimer()
		sort.Float64s(ratios)
		speedup := ratios[rounds/2]
		b.ReportMetric(float64(resume.Nanoseconds())/float64(rounds), "ns/op")
		b.ReportMetric(speedup, "speedup-x")
		if speedup < 5 {
			b.Fatalf("checkpoint resume only %.1fx faster than cold backfill, median of %d rounds (per-round ratios %.1f) — under the 5x bar",
				speedup, rounds, ratios)
		}
	})
}

// foldCounter counts the events an aggregate folds one by one, beside the
// fold itself.
type foldCounter struct {
	*aggVisitor
	folded int
}

func (c *foldCounter) event(ev Event) error {
	c.folded++
	return c.aggVisitor.event(ev)
}

// appendBenchShaped appends the bench's fleet to w: three temperature
// stations, two humidity, one rain, one river and one traffic sensor at hz,
// made with sensor.New, emitting minutes of history from t0 in per-source
// persist.IndexEvery-event windows, each appended as one AppendBatch.
func appendBenchShaped(tb testing.TB, w *Warehouse, hz, minutes int) {
	tb.Helper()
	type member struct {
		typ      sensor.Type
		n        int
		variants []int
	}
	fleet := []member{
		{sensor.TypeTemperature, 3, []int{0, 1, 2}},
		{sensor.TypeHumidity, 2, []int{0, 0}},
		{sensor.TypeRain, 1, []int{0}},
		{sensor.TypeRiverLevel, 1, []int{1}},
		{sensor.TypeTraffic, 1, []int{0}},
	}
	var sensors []*sensor.Sensor
	for _, m := range fleet {
		for i := 0; i < m.n; i++ {
			s, err := sensor.New(sensor.Spec{
				ID: fmt.Sprintf("%s-%d", m.typ, i+1), Type: m.typ,
				Location:    geo.Point{Lat: 34.6 + 0.01*float64(len(sensors)), Lon: 135.45},
				Seed:        1 + int64(len(sensors))*7919,
				UnitVariant: m.variants[i], FrequencyHz: float64(hz),
			})
			if err != nil {
				tb.Fatal(err)
			}
			sensors = append(sensors, s)
		}
	}
	period := time.Second / time.Duration(hz)
	end := t0.Add(time.Duration(minutes) * time.Minute)
	batch := make([]*stt.Tuple, 0, persist.IndexEvery)
	for from := t0; from.Before(end); from = from.Add(persist.IndexEvery * period) {
		to := from.Add(persist.IndexEvery * period)
		for _, s := range sensors {
			batch = batch[:0]
			s.Emit(from, to, func(t *stt.Tuple) bool {
				batch = append(batch, t)
				return true
			})
			if err := w.AppendBatch(batch); err != nil {
				tb.Fatal(err)
			}
		}
	}
}

// BenchmarkAggregateBenchShaped runs the bench's aggregate shape — a
// two-minute AVG(temperature) by source in one-minute buckets — over the
// bench's in-memory store: its fleet at 50 Hz (appendBenchShaped), 16
// shards and default segments, 17 minutes of history. It reports the events folded
// one by one and the sealed-segment chunks answered from their chunk index
// per query, both averaged over every window position, and gates the first
// at its value with the chunk index: counts, which repeat on any machine.
// Without the index, each query folds every event of its window.
func BenchmarkAggregateBenchShaped(b *testing.B) {
	const (
		hz       = 50
		minutes  = 17
		window   = 2
		maxFolds = 4640 // the count with sealed-segment chunk stats; a change that folds fewer lowers it
	)
	w := NewWithConfig(Config{Shards: 16})
	appendBenchShaped(b, w, hz, minutes)
	queries := make([]AggQuery, 0, minutes-window+1)
	for m := 0; m+window <= minutes; m++ {
		from := t0.Add(time.Duration(m) * time.Minute)
		queries = append(queries, AggQuery{
			Query: Query{From: from, To: from.Add(window * time.Minute)},
			Func:  ops.AggAvg, Field: "temperature", GroupBy: []string{"source"}, Bucket: time.Minute,
		})
	}

	// The counts, once per window position: the fold through a counting
	// visitor, the answered chunks off the query itself.
	var folded, answered int
	for _, q := range queries {
		p, err := q.plan()
		if err != nil {
			b.Fatal(err)
		}
		pl := p.scanPlan()
		vs, _, _, err := scanShards(context.Background(), w, &pl, func() *foldCounter {
			return &foldCounter{aggVisitor: &aggVisitor{p: &p, flat: map[partial.Key]*partial.State{}}}
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, v := range vs {
			folded += v.folded
		}
		_, qs, err := w.Aggregate(context.Background(), q)
		if err != nil {
			b.Fatal(err)
		}
		answered += qs.HotChunkStats
	}
	perQuery := float64(folded) / float64(len(queries))

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, _, err := w.Aggregate(context.Background(), queries[i%len(queries)])
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) == 0 {
			b.Fatal("empty aggregate")
		}
	}
	b.StopTimer()
	b.ReportMetric(perQuery, "events-folded/op")
	b.ReportMetric(float64(answered)/float64(len(queries)), "hot-chunks-answered/op")
	if perQuery > maxFolds {
		b.Fatalf("a query folds %.1f events one by one, gate %d", perQuery, maxFolds)
	}
}
