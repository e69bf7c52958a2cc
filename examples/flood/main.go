// Flood: the emergency-management use case from the paper's motivation —
// reconciling heterogeneous physical sensors during a flood watch.
//
// Ingredients exercised here:
//
//   - Transform / unit reconciliation: the river gauge reports its level in
//     yards (the paper's own example), converted to meters on the fly;
//
//   - Virtual property: apparent temperature computed from temperature and
//     humidity (the paper's §2 example) after joining the two streams;
//
//   - Join: river level with rain rate every 10 minutes to correlate
//     rainfall with the river's response;
//
//   - Filter: flood alerts when the river exceeds 1.8 m while it rains;
//
//   - Sinks: alerts go to the Event Data Warehouse, the tweet stream feeds
//     the Sticker-style viz board for a trend heatmap.
//
//     go run ./examples/flood
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"streamloader/internal/dataflow"
	"streamloader/internal/executor"
	"streamloader/internal/geo"
	"streamloader/internal/network"
	"streamloader/internal/ops"
	"streamloader/internal/pubsub"
	"streamloader/internal/sensor"
	"streamloader/internal/stream"
	"streamloader/internal/stt"
	"streamloader/internal/viz"
	"streamloader/internal/warehouse"
)

func main() {
	log.SetFlags(0)

	net, err := network.Tree(network.TopologyConfig{Nodes: 4, Area: geo.Osaka, Capacity: 100})
	if err != nil {
		log.Fatal(err)
	}
	broker := pubsub.NewBroker("flood")
	sensors := map[string]*sensor.Sensor{}
	for _, spec := range []sensor.Spec{
		{ID: "river-yodo", Type: sensor.TypeRiverLevel, Location: geo.Point{Lat: 34.72, Lon: 135.49},
			NodeID: "node-01", Seed: 11, UnitVariant: 1}, // variant 1: reports yards
		{ID: "rain-yodo", Type: sensor.TypeRain, Location: geo.Point{Lat: 34.72, Lon: 135.48},
			NodeID: "node-01", Seed: 11}, // same seed: correlated burst pattern
		{ID: "temp-center", Type: sensor.TypeTemperature, Location: geo.OsakaCenter,
			NodeID: "node-02", Seed: 13},
		{ID: "hum-center", Type: sensor.TypeHumidity, Location: geo.OsakaCenter,
			NodeID: "node-02", Seed: 14},
		{ID: "tweets-center", Type: sensor.TypeTweet, Location: geo.OsakaCenter,
			NodeID: "node-03", Seed: 15},
	} {
		s, err := sensor.New(spec)
		if err != nil {
			log.Fatal(err)
		}
		sensors[s.ID()] = s
		if err := broker.Publish(s.Meta()); err != nil {
			log.Fatal(err)
		}
	}

	spec := &dataflow.Spec{
		Name: "flood-watch",
		Nodes: []dataflow.NodeSpec{
			// River branch: yards -> meters, rename gauge field, and coarsen
			// the point-granularity gauge to the rain stream's district
			// granularity — without the coarsen step validation rejects the
			// join (STT consistency constraint).
			{ID: "river", Kind: "source", Sensor: "river-yodo"},
			{ID: "river_m", Kind: "transform", Steps: []ops.TransformStep{
				{Op: "convert_unit", Field: "level", ToUnit: "m"},
				{Op: "rename", Field: "gauge", NewName: "river_gauge"},
				{Op: "coarsen", SGran: "district"},
			}},

			// Rain branch.
			{ID: "rain", Kind: "source", Sensor: "rain-yodo"},

			// Correlate river level with rainfall every 10 minutes.
			{ID: "corr", Kind: "join", IntervalMS: 600_000,
				Predicate: "left.level > 1.8 && right.rain_rate > 0"},
			{ID: "alerts", Kind: "sink", Sink: "warehouse"},

			// Comfort branch: join temperature and humidity, derive the
			// paper's apparent-temperature virtual property.
			{ID: "temp", Kind: "source", Sensor: "temp-center"},
			{ID: "hum", Kind: "source", Sensor: "hum-center"},
			{ID: "weather", Kind: "join", IntervalMS: 60_000, Predicate: "true"},
			{ID: "apparent", Kind: "virtual_property", Property: "apparent_temp",
				Spec: "temperature + 0.33*(humidity/100*6.105*exp(17.27*temperature/(237.7+temperature))) - 4",
				Unit: "celsius"},
			{ID: "weather_wh", Kind: "sink", Sink: "warehouse"},

			// Social branch feeds the viz board.
			{ID: "tweets", Kind: "source", Sensor: "tweets-center"},
			{ID: "board", Kind: "sink", Sink: "viz"},
		},
		Edges: []dataflow.EdgeSpec{
			{From: "river", To: "river_m"},
			{From: "river_m", To: "corr", Port: 0},
			{From: "rain", To: "corr", Port: 1},
			{From: "corr", To: "alerts"},
			{From: "temp", To: "weather", Port: 0},
			{From: "hum", To: "weather", Port: 1},
			{From: "weather", To: "apparent"},
			{From: "apparent", To: "weather_wh"},
			{From: "tweets", To: "board"},
		},
	}

	wh := warehouse.New()
	board, err := viz.NewBoard(geo.Osaka, 30, 12, "")
	if err != nil {
		log.Fatal(err)
	}
	exec, err := executor.New(executor.Config{
		Network: net, Broker: broker, Strategy: network.Locality{},
		Clock: stream.NewVirtualClock(time.Unix(0, 0)),
		Sensors: func(id string) (executor.SensorSource, bool) {
			s, ok := sensors[id]
			return s, ok
		},
		Sinks: func(kind, nodeID string, schema *stt.Schema) (executor.Sink, error) {
			if kind == "viz" {
				return board, nil
			}
			return warehouse.Sink{W: wh}, nil
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	d, err := exec.Deploy(spec)
	if err != nil {
		log.Fatal(err)
	}
	defer d.Undeploy()

	from := time.Date(2016, 6, 20, 0, 0, 0, 0, time.UTC) // rainy season
	if err := d.Run(from, from.AddDate(0, 0, 1)); err != nil {
		log.Fatal(err)
	}

	// Flood alerts: river above 1.8 m while raining.
	alerts, _, err := wh.Select(context.Background(), warehouse.Query{Cond: "level > 1.8"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("flood alerts (river > 1.8 m while raining): %d\n", len(alerts))
	for i, ev := range alerts {
		if i >= 3 {
			fmt.Printf("  ... %d more\n", len(alerts)-3)
			break
		}
		fmt.Printf("  %s level=%.2fm rain=%.1fmm/h\n",
			ev.Tuple.Time.Format("15:04"),
			ev.Tuple.MustGet("level").AsFloat(),
			ev.Tuple.MustGet("rain_rate").AsFloat())
	}

	// Apparent temperature: hottest felt hour of the day.
	weather, _, err := wh.Select(context.Background(), warehouse.Query{Cond: "apparent_temp > 0"})
	if err != nil {
		log.Fatal(err)
	}
	var maxAT float64
	var maxWhen time.Time
	for _, ev := range weather {
		if at := ev.Tuple.MustGet("apparent_temp").AsFloat(); at > maxAT {
			maxAT = at
			maxWhen = ev.Tuple.Time
		}
	}
	fmt.Printf("\napparent temperature peaked at %.1f C around %s (%d joined readings)\n",
		maxAT, maxWhen.Format("15:04"), len(weather))

	// Social activity heatmap (Sticker substitute).
	fmt.Println("\ntweet activity heatmap:")
	fmt.Print(board.RenderASCII())
	fmt.Println("trending words:")
	for _, tp := range board.GlobalTopTopics(5) {
		fmt.Printf("  %-12s %d\n", tp.Word, tp.Count)
	}
}
