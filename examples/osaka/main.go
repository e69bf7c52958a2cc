// Osaka: the paper's demo scenario (Figure 2), end to end.
//
// "There are different sensors in the area of Osaka that produce data about
// the temperatures and levels of rains ... tweets and traffic information
// from the same area ... there is interest in acquiring the data about
// torrential rain, tweets and traffic only when the temperature identified
// in the last hour is above 25 °C."
//
// The dataflow:
//
//	temp source ──▶ trigger_on(1h, temperature>25, {rain,tweets,traffic}) ──▶ discard
//	rain source ──▶ filter(rain_rate>30 "torrential") ──▶ warehouse
//	tweet source ─▶ cull_space(Osaka, r=0.5) ──▶ warehouse
//	traffic source ▶ aggregate(10min avg congestion) ──▶ warehouse
//
// The rain/tweet/traffic sensors start deactivated; the trigger starts them
// when the hot hour is detected, and the Event Data Warehouse accumulates
// only data acquired after that.
//
//	go run ./examples/osaka
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"streamloader/internal/dataflow"
	"streamloader/internal/executor"
	"streamloader/internal/geo"
	"streamloader/internal/monitor"
	"streamloader/internal/network"
	"streamloader/internal/pubsub"
	"streamloader/internal/sensor"
	"streamloader/internal/stream"
	"streamloader/internal/stt"
	"streamloader/internal/warehouse"
)

func main() {
	log.SetFlags(0)

	net, err := network.Star(network.TopologyConfig{Nodes: 4, Area: geo.Osaka, Capacity: 100})
	if err != nil {
		log.Fatal(err)
	}
	broker := pubsub.NewBroker("osaka")
	sensors := map[string]*sensor.Sensor{}
	for _, spec := range []sensor.Spec{
		{ID: "temp-osaka", Type: sensor.TypeTemperature, Location: geo.OsakaCenter, NodeID: "node-00", Seed: 1},
		{ID: "rain-osaka", Type: sensor.TypeRain, Location: geo.Point{Lat: 34.65, Lon: 135.43}, NodeID: "node-01", Seed: 2},
		{ID: "tweets-osaka", Type: sensor.TypeTweet, Location: geo.Point{Lat: 34.70, Lon: 135.50}, NodeID: "node-02", Seed: 3},
		{ID: "traffic-osaka", Type: sensor.TypeTraffic, Location: geo.Point{Lat: 34.68, Lon: 135.52}, NodeID: "node-03", Seed: 4},
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
		Name: "osaka-hot-hour",
		Nodes: []dataflow.NodeSpec{
			{ID: "temp", Kind: "source", Sensor: "temp-osaka"},
			{ID: "hot_hour", Kind: "trigger_on", IntervalMS: 3600_000,
				Cond:    "temperature > 25",
				Targets: []string{"rain-osaka", "tweets-osaka", "traffic-osaka"}},
			{ID: "temp_done", Kind: "sink", Sink: "discard"},

			{ID: "rain", Kind: "source", Sensor: "rain-osaka"},
			{ID: "torrential", Kind: "filter", Cond: "rain_rate > 30"},
			{ID: "rain_wh", Kind: "sink", Sink: "warehouse"},

			{ID: "tweets", Kind: "source", Sensor: "tweets-osaka"},
			{ID: "sample_area", Kind: "cull_space", Rate: 0.5, Area: &geo.Osaka},
			{ID: "tweet_wh", Kind: "sink", Sink: "warehouse"},

			{ID: "traffic", Kind: "source", Sensor: "traffic-osaka"},
			{ID: "congestion", Kind: "aggregate", IntervalMS: 600_000,
				Func: "AVG", Attr: "congestion"},
			{ID: "traffic_wh", Kind: "sink", Sink: "warehouse"},
		},
		Edges: []dataflow.EdgeSpec{
			{From: "temp", To: "hot_hour"},
			{From: "hot_hour", To: "temp_done"},
			{From: "rain", To: "torrential"},
			{From: "torrential", To: "rain_wh"},
			{From: "tweets", To: "sample_area"},
			{From: "sample_area", To: "tweet_wh"},
			{From: "traffic", To: "congestion"},
			{From: "congestion", To: "traffic_wh"},
		},
	}

	mon := monitor.New()
	wh := warehouse.New()
	exec, err := executor.New(executor.Config{
		Network:  net,
		Broker:   broker,
		Strategy: network.Locality{},
		Monitor:  mon,
		Clock:    stream.NewVirtualClock(time.Unix(0, 0)),
		Sensors: func(id string) (executor.SensorSource, bool) {
			s, ok := sensors[id]
			return s, ok
		},
		Sinks: func(kind, nodeID string, schema *stt.Schema) (executor.Sink, error) {
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

	fmt.Println("Deployed. Gated sensors start deactivated:")
	for _, id := range []string{"rain-osaka", "tweets-osaka", "traffic-osaka"} {
		fmt.Printf("  %-14s active=%v\n", id, broker.IsActive(id))
	}

	// Replay a full day: the diurnal temperature model crosses 25 C in the
	// early afternoon, which fires the trigger and opens the gated streams.
	from := time.Date(2016, 3, 15, 0, 0, 0, 0, time.UTC)
	if err := d.Run(from, from.AddDate(0, 0, 1)); err != nil {
		log.Fatal(err)
	}

	fmt.Println("\nAfter one replayed day:")
	for _, id := range []string{"rain-osaka", "tweets-osaka", "traffic-osaka"} {
		fmt.Printf("  %-14s active=%v\n", id, broker.IsActive(id))
	}
	var firstFire time.Time
	for _, f := range d.Fires() {
		if f.Fired {
			firstFire = f.WindowStart
			break
		}
	}
	fmt.Printf("\nTrigger first fired for the hour starting %s\n", firstFire.Format(time.RFC3339))

	stats := wh.Stats()
	fmt.Printf("Event Data Warehouse: %d events (%s .. %s)\n",
		stats.Events, stats.Earliest.Format("15:04"), stats.Latest.Format("15:04"))
	for theme, n := range stats.Themes {
		fmt.Printf("  theme %-10s %d events\n", theme, n)
	}

	// Nothing was acquired before the trigger fired.
	early, _, err := wh.Count(context.Background(), warehouse.Query{To: firstFire})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Events stored from before the trigger fired: %d\n", early)

	fmt.Println("\nPer-operation statistics (Figure 3):")
	rep := mon.Snapshot(time.Now(), false)
	for _, op := range rep.Ops {
		fmt.Printf("  %-12s node=%-8s in=%-7d out=%-7d dropped=%d\n",
			op.Name, op.Node, op.In, op.Out, op.Dropped)
	}
}
