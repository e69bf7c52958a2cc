// Integration tests: whole-system behaviour across the module boundaries,
// exercising exactly the paths the demo walkthrough P1–P3 shows — design on
// samples, deployment with DSN/SCN, warehouse/viz destinations, trigger
// hysteresis, and failure injection.
package streamloader

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"streamloader/internal/dataflow"
	"streamloader/internal/dsn"
	"streamloader/internal/executor"
	"streamloader/internal/geo"
	"streamloader/internal/monitor"
	"streamloader/internal/network"
	"streamloader/internal/ops"
	"streamloader/internal/pubsub"
	"streamloader/internal/sensor"
	"streamloader/internal/stream"
	"streamloader/internal/stt"
	"streamloader/internal/viz"
	"streamloader/internal/warehouse"
)

// itRig is the full-system fixture: network, broker, fleet, warehouse, viz,
// monitor, executor.
type itRig struct {
	net     *network.Network
	broker  *pubsub.Broker
	sensors map[string]*sensor.Sensor
	extra   map[string]executor.SensorSource // non-simulated sources (replay)
	mon     *monitor.Monitor
	wh      *warehouse.Warehouse
	board   *viz.Board
	exec    *executor.Executor
}

func newITRig(t *testing.T, specs []sensor.Spec) *itRig {
	t.Helper()
	net, err := network.Tree(network.TopologyConfig{Nodes: 4, Area: geo.Osaka, Capacity: 100})
	if err != nil {
		t.Fatal(err)
	}
	broker := pubsub.NewBroker("it")
	sensors := map[string]*sensor.Sensor{}
	for _, spec := range specs {
		if spec.NodeID == "" {
			id, err := net.NodeForLocation(spec.Location)
			if err != nil {
				t.Fatal(err)
			}
			spec.NodeID = id
		}
		s, err := sensor.New(spec)
		if err != nil {
			t.Fatal(err)
		}
		sensors[s.ID()] = s
		if err := broker.Publish(s.Meta()); err != nil {
			t.Fatal(err)
		}
	}
	mon := monitor.New()
	wh := warehouse.New()
	board, err := viz.NewBoard(geo.Osaka, 10, 10, "")
	if err != nil {
		t.Fatal(err)
	}
	extra := map[string]executor.SensorSource{}
	exec, err := executor.New(executor.Config{
		Network: net, Broker: broker, Strategy: network.Locality{}, Monitor: mon,
		Clock: stream.NewVirtualClock(time.Unix(0, 0)),
		Sensors: func(id string) (executor.SensorSource, bool) {
			if src, ok := extra[id]; ok {
				return src, true
			}
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
		t.Fatal(err)
	}
	return &itRig{net: net, broker: broker, sensors: sensors, extra: extra,
		mon: mon, wh: wh, board: board, exec: exec}
}

var itStart = time.Date(2016, 3, 15, 0, 0, 0, 0, time.UTC)

// TestIntegrationOsakaScenario replays the paper's scenario and checks the
// load-bearing behaviours: gated acquisition, culling factor, granularity of
// what lands in the warehouse.
func TestIntegrationOsakaScenario(t *testing.T) {
	rig := newITRig(t, []sensor.Spec{
		{ID: "temp-1", Type: sensor.TypeTemperature, Location: geo.OsakaCenter, Seed: 1, FrequencyHz: 1},
		{ID: "rain-1", Type: sensor.TypeRain, Location: geo.Point{Lat: 34.65, Lon: 135.43}, Seed: 2, FrequencyHz: 1},
		{ID: "tweet-1", Type: sensor.TypeTweet, Location: geo.Point{Lat: 34.70, Lon: 135.50}, Seed: 3, FrequencyHz: 1},
	})
	spec := &dataflow.Spec{
		Name: "osaka-it",
		Nodes: []dataflow.NodeSpec{
			{ID: "temp", Kind: "source", Sensor: "temp-1"},
			{ID: "hot", Kind: "trigger_on", IntervalMS: 3600_000,
				Cond: "temperature > 25", Targets: []string{"rain-1", "tweet-1"}},
			{ID: "tdone", Kind: "sink", Sink: "discard"},
			{ID: "rain", Kind: "source", Sensor: "rain-1"},
			{ID: "rwh", Kind: "sink", Sink: "warehouse"},
			{ID: "tweets", Kind: "source", Sensor: "tweet-1"},
			{ID: "cull", Kind: "cull_space", Rate: 0.75, Area: &geo.Osaka},
			{ID: "wwh", Kind: "sink", Sink: "warehouse"},
		},
		Edges: []dataflow.EdgeSpec{
			{From: "temp", To: "hot"}, {From: "hot", To: "tdone"},
			{From: "rain", To: "rwh"},
			{From: "tweets", To: "cull"}, {From: "cull", To: "wwh"},
		},
	}
	d, err := rig.exec.Deploy(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Undeploy()

	if rig.broker.IsActive("rain-1") || rig.broker.IsActive("tweet-1") {
		t.Fatal("gated sensors must start deactivated")
	}
	if err := d.Run(itStart, itStart.AddDate(0, 0, 1)); err != nil {
		t.Fatal(err)
	}

	// The diurnal model crosses 25C in the late morning: the trigger fired.
	var fired []ops.FireEvent
	for _, f := range d.Fires() {
		if f.Fired {
			fired = append(fired, f)
		}
	}
	if len(fired) == 0 {
		t.Fatal("trigger never fired over a full day")
	}
	activationEdge := fired[0].WindowStart.Add(time.Hour) // window end

	// Nothing in the warehouse predates the activation edge.
	early, _, err := rig.wh.Count(context.Background(), warehouse.Query{To: activationEdge})
	if err != nil {
		t.Fatal(err)
	}
	if early != 0 {
		t.Errorf("%d events acquired before the trigger activated the streams", early)
	}
	// Both gated streams contributed afterwards.
	rainN, _, _ := rig.wh.Count(context.Background(), warehouse.Query{Themes: []string{"rain"}})
	socialN, _, _ := rig.wh.Count(context.Background(), warehouse.Query{Themes: []string{"social"}})
	if rainN == 0 || socialN == 0 {
		t.Errorf("gated streams missing from warehouse: rain=%d social=%d", rainN, socialN)
	}

	// Culling factor: the cull op kept ~25% of what it consumed.
	rep := rig.mon.Snapshot(time.Now(), false)
	for _, op := range rep.Ops {
		if op.Name != "cull" || op.In == 0 {
			continue
		}
		ratio := float64(op.Out) / float64(op.In)
		if ratio < 0.24 || ratio > 0.26 {
			t.Errorf("cull ratio = %.3f, want ~0.25", ratio)
		}
	}
}

// TestIntegrationTriggerHysteresis pairs a Trigger On with a Trigger Off:
// "events can be used both for triggering or stopping the acquisition and
// elaboration of streams" (§2). Over a day, rain acquisition switches on in
// the warm hours and off again at night.
func TestIntegrationTriggerHysteresis(t *testing.T) {
	rig := newITRig(t, []sensor.Spec{
		{ID: "temp-1", Type: sensor.TypeTemperature, Location: geo.OsakaCenter, Seed: 1, FrequencyHz: 1},
		{ID: "rain-1", Type: sensor.TypeRain, Location: geo.OsakaCenter, Seed: 2, FrequencyHz: 1},
	})
	spec := &dataflow.Spec{
		Name: "hysteresis",
		Nodes: []dataflow.NodeSpec{
			{ID: "temp", Kind: "source", Sensor: "temp-1"},
			{ID: "on", Kind: "trigger_on", IntervalMS: 3600_000,
				Cond: "temperature > 25", Targets: []string{"rain-1"}},
			{ID: "off", Kind: "trigger_off", IntervalMS: 3600_000,
				Cond: "temperature < 20", Mode: "all", Targets: []string{"rain-1"}},
			{ID: "done", Kind: "sink", Sink: "discard"},
			{ID: "rain", Kind: "source", Sensor: "rain-1"},
			{ID: "rsink", Kind: "sink", Sink: "collect"},
		},
		Edges: []dataflow.EdgeSpec{
			{From: "temp", To: "on"},
			{From: "on", To: "off"},
			{From: "off", To: "done"},
			{From: "rain", To: "rsink"},
		},
	}
	d, err := rig.exec.Deploy(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Undeploy()
	// Run from midnight to midnight: cold -> warm -> cold.
	if err := d.Run(itStart, itStart.AddDate(0, 0, 1)); err != nil {
		t.Fatal(err)
	}
	// The ON trigger fired during the day and the OFF trigger at night.
	var onFired, offFired bool
	for _, f := range d.Fires() {
		if !f.Fired {
			continue
		}
		switch f.Op {
		case "on":
			onFired = true
		case "off":
			offFired = true
		}
	}
	if !onFired || !offFired {
		t.Fatalf("hysteresis incomplete: on=%v off=%v", onFired, offFired)
	}
	// After the final cold evening hours the stream is off again.
	if rig.broker.IsActive("rain-1") {
		t.Error("rain stream still active after the cold night hours")
	}
	// Rain tuples exist only for a bounded band of the day.
	rain := d.Collected("rsink")
	if len(rain) == 0 {
		t.Fatal("no rain acquired during the warm hours")
	}
	first, last := rain[0].Time, rain[len(rain)-1].Time
	if first.Hour() < 9 {
		t.Errorf("acquisition started suspiciously early: %v", first)
	}
	if last.Hour() < 12 {
		t.Errorf("acquisition ended before the afternoon: %v", last)
	}
}

// TestIntegrationNodeFailureRecovery injects a node failure between runs;
// reconfiguration re-places the affected services and the dataflow resumes.
// A full mesh keeps the surviving nodes connected whichever node dies (tree
// and star topologies legitimately partition when a cut vertex fails).
func TestIntegrationNodeFailureRecovery(t *testing.T) {
	rig := newITRig(t, []sensor.Spec{
		{ID: "temp-1", Type: sensor.TypeTemperature, Location: geo.OsakaCenter,
			NodeID: "node-01", Seed: 1, FrequencyHz: 1},
	})
	mesh := network.New()
	for i := 0; i < 4; i++ {
		if err := mesh.AddNode(network.Node{
			ID:       []string{"node-00", "node-01", "node-02", "node-03"}[i],
			Capacity: 100, Region: geo.Osaka,
		}); err != nil {
			t.Fatal(err)
		}
	}
	ids := mesh.Nodes()
	for i := 0; i < len(ids); i++ {
		for j := i + 1; j < len(ids); j++ {
			if err := mesh.AddLink(ids[i], ids[j], 2, 1e9); err != nil {
				t.Fatal(err)
			}
		}
	}
	exec, err := executor.New(executor.Config{
		Network: mesh, Broker: rig.broker, Strategy: network.Locality{}, Monitor: rig.mon,
		Clock: stream.NewVirtualClock(time.Unix(0, 0)),
		Sensors: func(id string) (executor.SensorSource, bool) {
			s, ok := rig.sensors[id]
			return s, ok
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rig.net = mesh
	rig.exec = exec
	spec := &dataflow.Spec{
		Name: "failover",
		Nodes: []dataflow.NodeSpec{
			{ID: "src", Kind: "source", Sensor: "temp-1"},
			{ID: "avg", Kind: "aggregate", IntervalMS: 10_000, Func: "AVG", Attr: "temperature"},
			{ID: "out", Kind: "sink", Sink: "collect"},
		},
		Edges: []dataflow.EdgeSpec{
			{From: "src", To: "avg"}, {From: "avg", To: "out"},
		},
	}
	d, err := rig.exec.Deploy(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Undeploy()
	if err := d.Run(itStart, itStart.Add(time.Minute)); err != nil {
		t.Fatal(err)
	}
	before := len(d.Collected("out"))
	if before == 0 {
		t.Fatal("no output before failure")
	}

	// Kill the node hosting the aggregation.
	victim := d.Placement()["avg"]
	if err := rig.net.SetDown(victim, true); err != nil {
		t.Fatal(err)
	}
	rig.mon.RecordEvent(monitor.Event{Time: itStart, Kind: monitor.EventNodeDown, Node: victim})

	// Reconfigure with the same spec: surviving placements on healthy nodes
	// stay; services on the dead node are re-placed.
	if err := d.Reconfigure(spec); err != nil {
		t.Fatal(err)
	}
	if got := d.Placement()["avg"]; got == victim {
		t.Fatalf("aggregation still placed on the dead node %s", got)
	}
	if err := d.Run(itStart, itStart.Add(2*time.Minute)); err != nil {
		t.Fatal(err)
	}
	if after := len(d.Collected("out")); after <= before {
		t.Errorf("no progress after failover: %d -> %d", before, after)
	}
}

// TestIntegrationSensorLeaveMidDeployment unpublishes a sensor between runs;
// the next run emits nothing for it but the dataflow stays healthy.
func TestIntegrationSensorLeave(t *testing.T) {
	rig := newITRig(t, []sensor.Spec{
		{ID: "temp-1", Type: sensor.TypeTemperature, Location: geo.OsakaCenter, Seed: 1, FrequencyHz: 1},
	})
	spec := &dataflow.Spec{
		Name: "leave",
		Nodes: []dataflow.NodeSpec{
			{ID: "src", Kind: "source", Sensor: "temp-1"},
			{ID: "out", Kind: "sink", Sink: "collect"},
		},
		Edges: []dataflow.EdgeSpec{{From: "src", To: "out"}},
	}
	d, err := rig.exec.Deploy(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Undeploy()
	if err := d.Run(itStart, itStart.Add(30*time.Second)); err != nil {
		t.Fatal(err)
	}
	before := len(d.Collected("out"))

	// The sensor leaves the network: generator gone, publication revoked.
	delete(rig.sensors, "temp-1")
	if err := rig.broker.Unpublish("temp-1"); err != nil {
		t.Fatal(err)
	}
	if err := d.Run(itStart, itStart.Add(time.Minute)); err != nil {
		t.Fatal(err)
	}
	if after := len(d.Collected("out")); after != before {
		t.Errorf("tuples appeared from a departed sensor: %d -> %d", before, after)
	}
}

// TestIntegrationVizSinkThroughExecutor drives the viz board from a deployed
// dataflow and checks the rendered output reflects the stream.
func TestIntegrationVizSink(t *testing.T) {
	rig := newITRig(t, []sensor.Spec{
		{ID: "tweet-1", Type: sensor.TypeTweet, Location: geo.OsakaCenter, Seed: 5, FrequencyHz: 1},
	})
	spec := &dataflow.Spec{
		Name: "social-board",
		Nodes: []dataflow.NodeSpec{
			{ID: "src", Kind: "source", Sensor: "tweet-1"},
			{ID: "board", Kind: "sink", Sink: "viz"},
		},
		Edges: []dataflow.EdgeSpec{{From: "src", To: "board"}},
	}
	d, err := rig.exec.Deploy(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Undeploy()
	if err := d.Run(itStart, itStart.Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	snap := rig.board.Snapshot()
	if snap.Total != 3600 {
		t.Errorf("board total = %d, want 3600", snap.Total)
	}
	if len(rig.board.GlobalTopTopics(3)) == 0 {
		t.Error("no topics extracted")
	}
	if !strings.Contains(rig.board.RenderASCII(), "total=3600") {
		t.Error("render header")
	}
}

// TestIntegrationDSNInterpretation closes the DSN loop at system level: the
// deployed document parses back and recompiles into an equivalent plan —
// "the network control protocol stack interprets the DSN description".
func TestIntegrationDSNRoundTrip(t *testing.T) {
	rig := newITRig(t, []sensor.Spec{
		{ID: "temp-1", Type: sensor.TypeTemperature, Location: geo.OsakaCenter, Seed: 1, FrequencyHz: 1},
	})
	spec := &dataflow.Spec{
		Name: "loop",
		Nodes: []dataflow.NodeSpec{
			{ID: "src", Kind: "source", Sensor: "temp-1"},
			{ID: "f", Kind: "filter", Cond: "temperature > 10"},
			{ID: "out", Kind: "sink", Sink: "collect"},
		},
		Edges: []dataflow.EdgeSpec{{From: "src", To: "f"}, {From: "f", To: "out"}},
	}
	d, err := rig.exec.Deploy(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Undeploy()

	doc, err := dsn.Parse(d.DSNText())
	if err != nil {
		t.Fatalf("deployed DSN does not parse: %v", err)
	}
	recovered, err := dsn.ToSpec(doc)
	if err != nil {
		t.Fatal(err)
	}
	// The recovered spec deploys on a second executor rig identically.
	rig2 := newITRig(t, []sensor.Spec{
		{ID: "temp-1", Type: sensor.TypeTemperature, Location: geo.OsakaCenter, Seed: 1, FrequencyHz: 1},
	})
	d2, err := rig2.exec.Deploy(recovered)
	if err != nil {
		t.Fatalf("recovered spec does not deploy: %v", err)
	}
	defer d2.Undeploy()
	if err := d2.Run(itStart, itStart.Add(time.Minute)); err != nil {
		t.Fatal(err)
	}
	if len(d2.Collected("out")) == 0 {
		t.Error("recovered dataflow produced nothing")
	}
}

// TestIntegrationReplaySensor records a trace from a simulated sensor (the
// slgen path), then drives a deployed dataflow from the recorded trace via
// sensor.Replay — real captured data standing in for the simulator.
func TestIntegrationReplaySensor(t *testing.T) {
	// Record 30 minutes of temperature readings as JSONL.
	gen, err := sensor.New(sensor.Spec{
		ID: "rec", Type: sensor.TypeTemperature,
		Location: geo.OsakaCenter, NodeID: "node-00", Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	var trace strings.Builder
	enc := json.NewEncoder(&trace)
	gen.Emit(itStart, itStart.Add(30*time.Minute), func(tup *stt.Tuple) bool {
		if err := enc.Encode(tup); err != nil {
			t.Fatal(err)
		}
		return true
	})

	// Replay it as a published sensor behind a deployed dataflow.
	rig := newITRig(t, nil)
	rep, err := sensor.NewReplay("replayed-1", gen.Schema(), "node-00",
		strings.NewReader(trace.String()))
	if err != nil {
		t.Fatal(err)
	}
	if err := rig.broker.Publish(rep.Meta()); err != nil {
		t.Fatal(err)
	}
	rig.extra["replayed-1"] = rep

	spec := &dataflow.Spec{
		Name: "replay-flow",
		Nodes: []dataflow.NodeSpec{
			{ID: "src", Kind: "source", Sensor: "replayed-1"},
			{ID: "warm", Kind: "filter", Cond: "temperature > -100"},
			{ID: "out", Kind: "sink", Sink: "collect"},
		},
		Edges: []dataflow.EdgeSpec{
			{From: "src", To: "warm"}, {From: "warm", To: "out"},
		},
	}
	d, err := rig.exec.Deploy(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Undeploy()
	if err := d.Run(itStart, itStart.Add(30*time.Minute)); err != nil {
		t.Fatal(err)
	}
	got := d.Collected("out")
	if len(got) != 30 { // one reading per minute
		t.Fatalf("replayed %d tuples, want 30", len(got))
	}
	if got[0].Source != "replayed-1" {
		t.Error("source tag lost in replay")
	}
}

// TestIntegrationNullReadingDoesNotStopTheRun replays a river gauge whose
// trace misses a reading, behind the condition "-level < 0": the level is
// above zero. A missing field replays as null, and an operation on null gives
// null, which a condition reads as false: the filter drops that one reading
// and the run goes on. Negating null used to fail the filter's Map, which
// ends the deployment.
func TestIntegrationNullReadingDoesNotStopTheRun(t *testing.T) {
	schema := stt.MustSchema([]stt.Field{
		stt.NewField("level", stt.KindFloat, "m"),
		stt.NewField("gauge", stt.KindString, ""),
	}, stt.GranMinute, stt.SpatCellDistrict, "hydrology")
	var trace strings.Builder
	for i := 0; i < 10; i++ {
		level := fmt.Sprintf(`,"level":%d.5`, i)
		if i == 3 {
			level = "" // the gauge missed this reading
		}
		fmt.Fprintf(&trace, `{"_time":"%s","gauge":"g-1"%s}`+"\n",
			itStart.Add(time.Duration(i)*time.Minute).Format(time.RFC3339), level)
	}
	rep, err := sensor.NewReplay("gauge-1", schema, "node-00", strings.NewReader(trace.String()))
	if err != nil {
		t.Fatal(err)
	}
	rig := newITRig(t, nil)
	if err := rig.broker.Publish(rep.Meta()); err != nil {
		t.Fatal(err)
	}
	rig.extra["gauge-1"] = rep
	d, err := rig.exec.Deploy(&dataflow.Spec{
		Name: "null-reading",
		Nodes: []dataflow.NodeSpec{
			{ID: "src", Kind: "source", Sensor: "gauge-1"},
			{ID: "rising", Kind: "filter", Cond: "-level < 0"},
			{ID: "out", Kind: "sink", Sink: "collect"},
		},
		Edges: []dataflow.EdgeSpec{{From: "src", To: "rising"}, {From: "rising", To: "out"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Undeploy()
	if err := d.Run(itStart, itStart.Add(10*time.Minute)); err != nil {
		t.Fatalf("a null reading stopped the run: %v", err)
	}
	got := d.Collected("out")
	if len(got) != 9 {
		t.Fatalf("delivered %d readings, want the 9 that were measured", len(got))
	}
	for _, tup := range got {
		if tup.MustGet("level").IsNull() {
			t.Errorf("the missing reading passed the filter: %v", tup)
		}
	}
}
