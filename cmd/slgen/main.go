// Command slgen generates reproducible synthetic sensor traces as JSON
// Lines, for offline inspection, warehouse loading and external tooling:
//
//	slgen -type temperature -count 3 -duration 1h -seed 7 > trace.jsonl
//	slgen -all -duration 10m              # one sensor of every class
//
// Each line is one STT event with payload fields plus _time, _lat, _lon,
// _theme and _source metadata.
//
// With -data-dir the trace is loaded straight into a durable warehouse
// instead of printed: batches are appended through the write-ahead log
// (fsync per -fsync) and an "acked N" line follows every durable batch,
// looping the trace until killed. With -verify the directory is recovered
// and its event count checked against -min-events — together they form a
// crash-recovery smoke test:
//
//	slgen -data-dir /tmp/wh -fsync always &   # ingest; note the acked lines
//	kill -9 $!                                # crash it mid-ingest
//	slgen -data-dir /tmp/wh -verify -min-events N
//
// With -agg the directory is recovered and one aggregation is pushed down
// into the warehouse instead, printing NDJSON rows — the offline twin of
// GET /api/warehouse/aggregate:
//
//	slgen -data-dir /tmp/wh -agg count -agg-group source
//	slgen -data-dir /tmp/wh -agg avg -agg-field temperature_c -agg-bucket 1h
//
// With -view the ingester also maintains a standing view of the same
// aggregate vocabulary (spec from the -agg-* flags), checkpointing its
// state on every mutation; -verify -view re-registers it after the crash
// and checks the resumed rows against a fresh pushdown, and
// -require-view-resume additionally fails unless the registration resumed
// from the checkpoint instead of re-scanning history:
//
//	slgen -data-dir /tmp/wh -view count -agg-bucket 1m &
//	kill -9 $!
//	slgen -data-dir /tmp/wh -verify -view count -agg-bucket 1m -require-view-resume
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/url"
	"os"
	"time"

	"streamloader/internal/geo"
	"streamloader/internal/ops"
	"streamloader/internal/persist"
	"streamloader/internal/sensor"
	"streamloader/internal/stt"
	"streamloader/internal/warehouse"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("slgen: ")
	var (
		typ       = flag.String("type", "temperature", "sensor type to generate")
		all       = flag.Bool("all", false, "generate one sensor of every type instead")
		count     = flag.Int("count", 1, "number of sensors of the type")
		duration  = flag.Duration("duration", time.Hour, "trace duration")
		seed      = flag.Int64("seed", 42, "generator seed")
		start     = flag.String("start", "2016-03-15T00:00:00Z", "trace start (RFC3339)")
		dataDir   = flag.String("data-dir", "", "load into a durable warehouse at this directory instead of printing")
		fsync     = flag.String("fsync", "always", "WAL fsync policy for -data-dir: never, always, interval, or a duration")
		hotSegs   = flag.Int("hot-segments", 2, "sealed in-memory segments per shard before spilling (-data-dir)")
		verify    = flag.Bool("verify", false, "recover the -data-dir warehouse and report instead of ingesting")
		minEvents = flag.Int("min-events", 0, "with -verify: fail unless at least this many events recovered")
		aggFunc   = flag.String("agg", "", "with -data-dir: run this aggregation (count, sum, avg, min, max) over the recovered warehouse instead of ingesting")
		aggField  = flag.String("agg-field", "", "payload field the aggregation reads (required for sum/avg/min/max)")
		aggGroup  = flag.String("agg-group", "", "comma-separated aggregation group-by dimensions: source, theme")
		aggBucket = flag.Duration("agg-bucket", 0, "fixed-width event-time bucketing for the aggregation (0: none)")
		viewFunc  = flag.String("view", "", "with -data-dir: maintain a standing view of this aggregation (count, sum, avg, min, max; spec from the -agg-* flags) while ingesting, checkpointing every mutation; with -verify: re-register it and check it against a fresh aggregation")
		viewMust  = flag.Bool("require-view-resume", false, "with -verify -view: fail unless the view resumed from its checkpoint instead of backfilling")
	)
	flag.Parse()

	from, err := time.Parse(time.RFC3339, *start)
	if err != nil {
		log.Fatalf("bad -start: %v", err)
	}
	to := from.Add(*duration)

	var viewAq *warehouse.AggQuery
	if *viewFunc != "" {
		aq, err := parseAggFlags(*viewFunc, *aggField, *aggGroup, *aggBucket, time.Time{}, time.Time{})
		if err != nil {
			log.Fatalf("bad -view flags: %v", err)
		}
		viewAq = &aq
	}

	if *dataDir != "" && *verify {
		verifyWarehouse(*dataDir, *minEvents, viewAq, *viewMust)
		return
	}
	if *dataDir != "" && *aggFunc != "" {
		aggregateWarehouse(*dataDir, *aggFunc, *aggField, *aggGroup, *aggBucket, from, to)
		return
	}

	var specs []sensor.Spec
	if *all {
		for i, t := range sensor.AllTypes {
			specs = append(specs, sensor.Spec{
				ID: fmt.Sprintf("%s-1", t), Type: t,
				Location: geo.OsakaCenter, NodeID: "node-00",
				Seed: *seed + int64(i),
			})
		}
	} else {
		parsed, err := sensor.ParseType(*typ)
		if err != nil {
			log.Fatal(err)
		}
		for i := 0; i < *count; i++ {
			specs = append(specs, sensor.Spec{
				ID: fmt.Sprintf("%s-%d", parsed, i+1), Type: parsed,
				Location:    geo.OsakaCenter,
				NodeID:      "node-00",
				Seed:        *seed + int64(i),
				UnitVariant: i,
			})
		}
	}

	if *dataDir != "" {
		ingestWarehouse(*dataDir, *fsync, *hotSegs, specs, from, *duration, viewAq)
		return
	}

	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	enc := json.NewEncoder(out)
	total := 0
	for _, spec := range specs {
		s, err := sensor.New(spec)
		if err != nil {
			log.Fatal(err)
		}
		s.Emit(from, to, func(t *stt.Tuple) bool {
			if err := enc.Encode(t); err != nil {
				log.Fatal(err)
			}
			total++
			return true
		})
	}
	log.Printf("wrote %d events from %d sensors (%s .. %s)", total, len(specs), from.Format(time.RFC3339), to.Format(time.RFC3339))
}

// ingestWarehouse loads the generated trace into a durable warehouse,
// looping the trace (with an advancing clock) until the process is killed.
// Every "acked N" line is printed only after the batch behind it returned
// from AppendBatch, i.e. after it hit the WAL under the chosen policy — a
// SIGKILL immediately after a line must not lose the N events it reports.
func ingestWarehouse(dir, fsync string, hotSegs int, specs []sensor.Spec, from time.Time, duration time.Duration, viewAq *warehouse.AggQuery) {
	syncPolicy, syncEvery, err := persist.ParseSyncPolicy(fsync)
	if err != nil {
		log.Fatalf("bad -fsync: %v", err)
	}
	w, err := warehouse.Open(warehouse.Config{
		Shards:  4,
		DataDir: dir,
		Sync:    syncPolicy, SyncEvery: syncEvery,
		HotSegments:   hotSegs,
		SegmentEvents: 256, // small segments so spill exercises quickly
		// Checkpoint on every view mutation, so a SIGKILL at any point
		// leaves a recent checkpoint for -verify -view to resume from.
		ViewCheckpointEvery: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	st := w.Stats()
	log.Printf("opened %s: %d events recovered (%d cold segments)", dir, st.RecoveredEvents, st.SegmentsCold)
	if viewAq != nil {
		// The handle is deliberately never released: the smoke kills the
		// process mid-ingest, and the periodic checkpoints are the artifact
		// under test.
		if _, err := w.RegisterView(*viewAq, ops.UpdatePolicy{}); err != nil {
			log.Fatalf("register view: %v", err)
		}
		log.Printf("standing view registered: %s", viewAq.Func)
	}

	out := bufio.NewWriter(os.Stdout)
	acked := 0
	batch := make([]*stt.Tuple, 0, 64)
	flush := func() {
		if len(batch) == 0 {
			return
		}
		if err := w.AppendBatch(batch); err != nil {
			log.Fatalf("append: %v", err)
		}
		acked += len(batch)
		batch = batch[:0]
		fmt.Fprintf(out, "acked %d\n", acked)
		out.Flush()
	}
	for pass := 0; ; pass++ {
		passFrom := from.Add(time.Duration(pass) * duration)
		for _, spec := range specs {
			s, err := sensor.New(spec)
			if err != nil {
				log.Fatal(err)
			}
			s.Emit(passFrom, passFrom.Add(duration), func(t *stt.Tuple) bool {
				batch = append(batch, t)
				if len(batch) == cap(batch) {
					flush()
				}
				return true
			})
		}
		flush()
	}
}

// aggregateWarehouse recovers the warehouse at dir and pushes one
// aggregation down into it, printing the result rows as NDJSON — the
// offline twin of GET /api/warehouse/aggregate. The [from, to) window
// reuses -start/-duration; group by -agg-group, bucket by -agg-bucket.
func aggregateWarehouse(dir, fn, field, group string, bucket time.Duration, from, to time.Time) {
	w, err := warehouse.Open(warehouse.Config{Shards: 4, DataDir: dir})
	if err != nil {
		log.Fatalf("recover: %v", err)
	}
	defer w.Close()
	aq, err := parseAggFlags(fn, field, group, bucket, from, to)
	if err != nil {
		log.Fatalf("bad -agg flags: %v", err)
	}
	parsed := aq.Func
	rows, qs, err := w.Aggregate(context.Background(), aq)
	if err != nil {
		log.Fatalf("aggregate: %v", err)
	}
	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	enc := json.NewEncoder(out)
	for _, row := range rows {
		line := map[string]any{"count": row.Count, "value": row.Value}
		if bucket > 0 {
			line["bucket"] = row.Bucket.UTC().Format(time.RFC3339)
		}
		if row.Source != "" {
			line["source"] = row.Source
		}
		if row.Theme != "" {
			line["theme"] = row.Theme
		}
		if err := enc.Encode(line); err != nil {
			log.Fatal(err)
		}
	}
	log.Printf("%s(%s): %d rows over [%s, %s) — %d segments scanned, %d pruned, %d answered from cold headers",
		parsed, field, len(rows), from.Format(time.RFC3339), to.Format(time.RFC3339),
		qs.SegmentsScanned, qs.SegmentsPruned, qs.ColdHeaderOnly)
}

// verifyWarehouse recovers the warehouse and checks the event count. With
// a view spec it also re-registers the standing view — resuming from the
// checkpoint the crashed ingester left behind — and proves the resumed
// state equals a fresh pushdown aggregation of the recovered store.
func verifyWarehouse(dir string, minEvents int, viewAq *warehouse.AggQuery, requireResume bool) {
	w, err := warehouse.Open(warehouse.Config{Shards: 4, DataDir: dir, ViewCheckpointEvery: 1})
	if err != nil {
		log.Fatalf("recover: %v", err)
	}
	defer w.Close()
	st := w.Stats()
	log.Printf("recovered %d events (%d cold segments, %d segments, wal %d bytes, disk %d bytes)",
		st.Events, st.SegmentsCold, st.Segments, st.WALBytes, st.DiskBytes)
	if st.Events < minEvents {
		log.Fatalf("recovered %d events, want at least %d", st.Events, minEvents)
	}
	if viewAq == nil {
		return
	}
	v, err := w.RegisterView(*viewAq, ops.UpdatePolicy{})
	if err != nil {
		log.Fatalf("register view: %v", err)
	}
	defer v.Release()
	rows, err := v.Rows()
	if err != nil {
		log.Fatalf("view rows: %v", err)
	}
	want, _, err := w.Aggregate(context.Background(), *viewAq)
	if err != nil {
		log.Fatalf("aggregate: %v", err)
	}
	if len(rows) != len(want) {
		log.Fatalf("view has %d rows, aggregate %d", len(rows), len(want))
	}
	for i := range rows {
		g, w := rows[i], want[i]
		if !g.Bucket.Equal(w.Bucket) || g.Source != w.Source || g.Theme != w.Theme ||
			g.Count != w.Count || g.Value != w.Value {
			log.Fatalf("view row %d = %+v, aggregate says %+v", i, g, w)
		}
	}
	resumes := w.Stats().ViewResumes
	log.Printf("view %s: %d rows, matches aggregate exactly (checkpoint resumes: %d)",
		viewAq.Func, len(rows), resumes)
	if requireResume && resumes == 0 {
		log.Fatalf("view backfilled from history; want a checkpoint resume")
	}
}

// parseAggFlags builds an AggQuery from the -agg-*/-view flag vocabulary
// through the same wire parser the HTTP endpoints use, so the CLI and the
// server cannot drift.
func parseAggFlags(fn, field, group string, bucket time.Duration, from, to time.Time) (warehouse.AggQuery, error) {
	params := url.Values{"func": {fn}}
	if field != "" {
		params.Set("field", field)
	}
	if !from.IsZero() {
		params.Set("from", from.UTC().Format(time.RFC3339))
	}
	if !to.IsZero() {
		params.Set("to", to.UTC().Format(time.RFC3339))
	}
	if group != "" {
		params.Set("group", group)
	}
	if bucket > 0 {
		params.Set("bucket", bucket.String())
	}
	return warehouse.ParseAggQueryValues(params)
}
