// Command streamloader runs the StreamLoader Web application: it builds a
// simulated programmable network over the Osaka area, plugs in a mixed
// sensor fleet through the publish/subscribe layer, and serves the dataflow
// design/validation/translation/deployment/monitoring API plus the embedded
// dashboard on the configured address.
//
// Usage:
//
//	streamloader [-addr :8080] [-topology star] [-nodes 8] [-capacity 100]
//	             [-seed 42] [-live=true] [-shards 16] [-sink-batch 0]
//	             [-retain 0] [-segment-events 4096] [-segment-span 1h]
//	             [-data-dir ""] [-fsync interval] [-hot-segments 16]
//	             [-cold-cache-bytes 67108864] [-compact-below 0]
//	             [-view-checkpoint-every 0] [-agg-max-groups 100000]
//	             [-max-subscribers 10000] [-slow-query 0] [-pprof-addr ""]
//
// With -live (default) sources pace in real time; with -live=false the
// server replays event-time ranges at full speed, which is what the
// benchmarks and demos use.
//
// With -data-dir the warehouse is durable: appends go through a per-shard
// write-ahead log (fsync per -fsync: never; always, before each ack; or
// interval, by a background syncer 100ms, or a duration like 250ms, after
// a shard's first unsynced append), cold segments beyond -hot-segments per
// shard are flushed to disk by a background spiller (so ingest never stalls
// on a segment write), and a restart recovers everything that was acked.
// Queries over spilled history go through an LRU of decoded chunks sized
// by -cold-cache-bytes, so repeated window queries over the same history
// hit RAM instead of disk. A background compactor merges cold files
// smaller than -compact-below events (or left overlapping by out-of-order
// spills) into their time-adjacent neighbors. Standing views checkpoint their
// state every -view-checkpoint-every mutations (and on clean shutdown), so
// a restart or a reconnecting subscriber resumes from the checkpoint plus a
// WAL-tail fold instead of re-scanning history.
//
// Observability: every stage reports latency histograms and counters to
// GET /metrics (Prometheus text format); ?trace=1 on the query/aggregate
// endpoints returns a per-shard span breakdown; -slow-query logs any query
// over the threshold with its spans; -pprof-addr serves net/http/pprof on
// a separate listener (keep it private — it exposes heap and goroutine
// internals).
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof" // registers its handlers on DefaultServeMux, served only via -pprof-addr
	"time"

	"streamloader/internal/executor"
	"streamloader/internal/geo"
	"streamloader/internal/monitor"
	"streamloader/internal/network"
	"streamloader/internal/obs"
	"streamloader/internal/persist"
	"streamloader/internal/pubsub"
	"streamloader/internal/sensor"
	"streamloader/internal/server"
	"streamloader/internal/stream"
	"streamloader/internal/stt"
	"streamloader/internal/viz"
	"streamloader/internal/warehouse"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "HTTP listen address")
		topology  = flag.String("topology", "star", "network topology: star, line, tree, random")
		nodes     = flag.Int("nodes", 8, "number of network nodes")
		capacity  = flag.Float64("capacity", 100, "per-node processing capacity")
		seed      = flag.Int64("seed", 42, "random seed for the sensor fleet")
		live      = flag.Bool("live", true, "pace sources in real time (false: replay at full speed)")
		strategy  = flag.String("placement", "locality", "placement strategy: round-robin, random, least-loaded, locality")
		shards    = flag.Int("shards", warehouse.DefaultShards, "warehouse shard count (rounded up to a power of two)")
		sinkBuf   = flag.Int("sink-batch", 0, "warehouse sink batch size (0: adaptive from arrival rate; negative: per-tuple appends)")
		retain    = flag.Int("retain", 0, "warehouse retention bound in events (0: unlimited)")
		segEvents = flag.Int("segment-events", warehouse.DefaultSegmentEvents, "events per warehouse segment before rotation")
		segSpan   = flag.Duration("segment-span", warehouse.DefaultSegmentSpan, "event-time span one warehouse segment covers before rotation")
		dataDir   = flag.String("data-dir", "", "warehouse data directory (empty: in-memory only)")
		fsync     = flag.String("fsync", "interval", "WAL fsync policy: never, always (each append, before its ack), interval (a background fsync of each shard log 100ms after its first unsynced append), or a duration (interval at that period)")
		hotSegs   = flag.Int("hot-segments", warehouse.DefaultHotSegments, "sealed in-memory segments per shard before spilling to disk (negative: never spill)")
		coldCache = flag.Int64("cold-cache-bytes", warehouse.DefaultColdCacheBytes, "budget for the LRU of decoded cold-segment chunks (negative: disable)")
		compBelow = flag.Int("compact-below", 0, "merge cold segment files smaller than this many events into neighbors (0: half of -segment-events; negative: disable compaction)")
		viewCkpt  = flag.Int("view-checkpoint-every", 0, "view mutations between standing-view checkpoints on a durable store (0: default; negative: disable)")
		aggGroups = flag.Int("agg-max-groups", warehouse.DefaultAggMaxGroups, "group cardinality bound for /api/warehouse/aggregate")
		maxSubs   = flag.Int("max-subscribers", server.DefaultMaxSubscribers, "live /api/warehouse/subscribe client cap across all views")
		slowQuery = flag.Duration("slow-query", 0, "log warehouse queries slower than this, with their span breakdown (0: off)")
		pprofAddr = flag.String("pprof-addr", "", "serve net/http/pprof on this address (empty: off)")
	)
	flag.Parse()

	net, err := network.Build(*topology, network.TopologyConfig{
		Nodes: *nodes, Area: geo.Osaka, Capacity: *capacity, Seed: *seed,
	})
	if err != nil {
		log.Fatalf("building network: %v", err)
	}
	broker := pubsub.NewBroker("main")
	fleet, err := sensor.BuildFleet(sensor.FleetConfig{
		Region: geo.Osaka,
		Counts: sensor.DefaultCounts(),
		Nodes:  net.Nodes(),
		Seed:   *seed,
	})
	if err != nil {
		log.Fatalf("building fleet: %v", err)
	}
	if err := sensor.PublishFleet(broker, fleet); err != nil {
		log.Fatalf("publishing fleet: %v", err)
	}
	sensors := map[string]*sensor.Sensor{}
	for _, s := range fleet {
		sensors[s.ID()] = s
	}

	mon := monitor.New()
	syncPolicy, syncEvery, err := persist.ParseSyncPolicy(*fsync)
	if err != nil {
		log.Fatalf("bad -fsync: %v", err)
	}
	reg := obs.NewRegistry()
	wh, err := warehouse.Open(warehouse.Config{
		Shards:         *shards,
		SegmentEvents:  *segEvents,
		SegmentSpan:    *segSpan,
		DataDir:        *dataDir,
		Sync:           syncPolicy,
		SyncEvery:      syncEvery,
		HotSegments:    *hotSegs,
		ColdCacheBytes: *coldCache,
		CompactBelow:   *compBelow,

		ViewCheckpointEvery: *viewCkpt,

		Obs: reg,
	})
	if err != nil {
		log.Fatalf("opening warehouse: %v", err)
	}
	if *dataDir != "" {
		st := wh.Stats()
		log.Printf("warehouse: %d events recovered from %s (%d cold segments, %d WAL bytes)",
			st.RecoveredEvents, *dataDir, st.SegmentsCold, st.WALBytes)
	}
	if *retain > 0 {
		wh.SetRetention(*retain)
	}
	board, err := viz.NewBoard(geo.Osaka, 40, 20, "")
	if err != nil {
		log.Fatalf("building viz board: %v", err)
	}

	var clock stream.Clock = stream.WallClock{}
	if !*live {
		clock = stream.NewVirtualClock(time.Now().UTC())
	}
	strat, err := network.NewStrategy(*strategy, *seed)
	if err != nil {
		log.Fatalf("placement: %v", err)
	}
	exec, err := executor.New(executor.Config{
		Network:   net,
		Broker:    broker,
		Strategy:  strat,
		Monitor:   mon,
		Clock:     clock,
		SinkBatch: *sinkBuf,
		Sensors: func(id string) (executor.SensorSource, bool) {
			s, ok := sensors[id]
			return s, ok
		},
		Sinks: func(kind, nodeID string, schema *stt.Schema) (executor.Sink, error) {
			switch kind {
			case "warehouse":
				return warehouse.Sink{W: wh}, nil
			case "viz":
				return board, nil
			default:
				return nil, fmt.Errorf("unknown sink %q", kind)
			}
		},
	})
	if err != nil {
		log.Fatalf("executor: %v", err)
	}

	srv := server.New(net, broker, exec, mon, wh, board, sensors)
	srv.AggMaxGroups = *aggGroups
	srv.MaxSubscribers = *maxSubs
	srv.SlowQuery = *slowQuery
	if *pprofAddr != "" {
		go func() {
			// net/http/pprof registered on DefaultServeMux; nothing else does.
			log.Printf("pprof: listening on %s", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				log.Printf("pprof: %v", err)
			}
		}()
	}
	log.Printf("streamloader: %d sensors on %d %s nodes, dashboard at http://localhost%s/",
		len(fleet), *nodes, *topology, *addr)
	if err := http.ListenAndServe(*addr, srv.Handler()); err != nil {
		log.Fatal(err)
	}
}
