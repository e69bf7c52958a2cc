package executor

import (
	"strings"
	"sync"
	"testing"
	"time"

	"streamloader/internal/dataflow"
	"streamloader/internal/geo"
	"streamloader/internal/monitor"
	"streamloader/internal/network"
	"streamloader/internal/pubsub"
	"streamloader/internal/sensor"
	"streamloader/internal/stream"
	"streamloader/internal/stt"
)

var t0 = time.Date(2016, 3, 15, 9, 0, 0, 0, time.UTC)

// rig bundles a complete test environment: network, broker, sensors,
// executor.
type rig struct {
	net     *network.Network
	broker  *pubsub.Broker
	sensors map[string]*sensor.Sensor
	mon     *monitor.Monitor
	exec    *Executor
	clock   *stream.VirtualClock
}

func newRig(t *testing.T, nodes int, sensorSpecs []sensor.Spec) *rig {
	return newRigCapacity(t, nodes, 100, sensorSpecs)
}

func newRigCapacity(t *testing.T, nodes int, capacity float64, sensorSpecs []sensor.Spec) *rig {
	t.Helper()
	net, err := network.Star(network.TopologyConfig{
		Nodes: nodes, Capacity: capacity, LatencyMS: 2, BandwidthKbps: 100000,
	})
	if err != nil {
		t.Fatal(err)
	}
	broker := pubsub.NewBroker("test")
	sensors := map[string]*sensor.Sensor{}
	for _, spec := range sensorSpecs {
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
	clock := stream.NewVirtualClock(t0)
	mon := monitor.New()
	exec, err := New(Config{
		Network: net,
		Broker:  broker,
		Monitor: mon,
		Clock:   clock,
		Sensors: func(id string) (SensorSource, bool) {
			s, ok := sensors[id]
			return s, ok
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return &rig{net: net, broker: broker, sensors: sensors, mon: mon, exec: exec, clock: clock}
}

func tempSpec(id string) sensor.Spec {
	return sensor.Spec{
		ID: id, Type: sensor.TypeTemperature,
		Location: geo.OsakaCenter, Seed: 42,
		FrequencyHz: 1, // 1 Hz for fast tests
	}
}

func simpleFlow() *dataflow.Spec {
	return &dataflow.Spec{
		Name: "simple",
		Nodes: []dataflow.NodeSpec{
			{ID: "src", Kind: "source", Sensor: "temp-1"},
			{ID: "all", Kind: "filter", Cond: "temperature > -100"},
			{ID: "out", Kind: "sink", Sink: "collect"},
		},
		Edges: []dataflow.EdgeSpec{
			{From: "src", To: "all"},
			{From: "all", To: "out"},
		},
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty config must fail")
	}
	net, _ := network.Star(network.TopologyConfig{Nodes: 1})
	if _, err := New(Config{Network: net}); err == nil {
		t.Error("missing broker must fail")
	}
	if _, err := New(Config{Network: net, Broker: pubsub.NewBroker("x")}); err == nil {
		t.Error("missing sensors must fail")
	}
}

func TestDeployRejectsInvalidSpec(t *testing.T) {
	r := newRig(t, 2, []sensor.Spec{tempSpec("temp-1")})
	bad := simpleFlow()
	bad.Nodes[1].Cond = "ghost > 1"
	if _, err := r.exec.Deploy(bad); err == nil {
		t.Error("invalid dataflow must not deploy")
	}
}

func TestRunSimpleFlow(t *testing.T) {
	r := newRig(t, 2, []sensor.Spec{tempSpec("temp-1")})
	d, err := r.exec.Deploy(simpleFlow())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Undeploy()
	// 60 seconds at 1 Hz -> 60 tuples.
	if err := d.Run(t0, t0.Add(time.Minute)); err != nil {
		t.Fatal(err)
	}
	got := d.Collected("out")
	if len(got) != 60 {
		t.Fatalf("collected %d tuples, want 60", len(got))
	}
	// Tuples arrive in order and are sourced correctly.
	for i := 1; i < len(got); i++ {
		if got[i].Time.Before(got[i-1].Time) {
			t.Fatal("out-of-order delivery")
		}
	}
	if got[0].Source != "temp-1" {
		t.Error("source tag missing")
	}
}

func TestDSNAndSCNExposed(t *testing.T) {
	r := newRig(t, 2, []sensor.Spec{tempSpec("temp-1")})
	d, err := r.exec.Deploy(simpleFlow())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Undeploy()
	if !strings.Contains(d.DSNText(), `service "src"`) {
		t.Errorf("DSN text:\n%s", d.DSNText())
	}
	script := d.SCNScript()
	if !strings.Contains(script, "create_process service=src") ||
		!strings.Contains(script, "set_qos") {
		t.Errorf("SCN script:\n%s", script)
	}
	if len(d.Placement()) != 3 {
		t.Errorf("placement: %v", d.Placement())
	}
}

func TestSourceLocalityPlacement(t *testing.T) {
	// With the locality strategy the source lands on its sensor's node.
	r := newRig(t, 4, []sensor.Spec{tempSpec("temp-1")})
	r.exec.cfg.Strategy = network.Locality{}
	d, err := r.exec.Deploy(simpleFlow())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Undeploy()
	meta, _ := r.broker.Get("temp-1")
	if d.Placement()["src"] != meta.NodeID {
		t.Errorf("source placed on %s, sensor lives on %s", d.Placement()["src"], meta.NodeID)
	}
}

func TestStopAndResumeNoLoss(t *testing.T) {
	r := newRig(t, 2, []sensor.Spec{tempSpec("temp-1")})
	d, err := r.exec.Deploy(simpleFlow())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Undeploy()
	// Run the first half, then the second half: resume must not lose or
	// duplicate tuples.
	if err := d.Run(t0, t0.Add(30*time.Second)); err != nil {
		t.Fatal(err)
	}
	firstHalf := len(d.Collected("out"))
	if err := d.Run(t0, t0.Add(time.Minute)); err != nil {
		t.Fatal(err)
	}
	total := len(d.Collected("out"))
	if firstHalf != 30 || total != 60 {
		t.Errorf("halves: %d then %d, want 30 then 60", firstHalf, total)
	}
	// Dedupe by per-source sequence number (event times are truncated to
	// the schema granularity, so they legitimately repeat).
	seqs := map[uint64]bool{}
	for _, tup := range d.Collected("out") {
		if seqs[tup.Seq] {
			t.Fatalf("duplicate tuple seq %d", tup.Seq)
		}
		seqs[tup.Seq] = true
	}
}

func TestGracefulStopDrains(t *testing.T) {
	r := newRig(t, 2, []sensor.Spec{tempSpec("temp-1")})
	spec := simpleFlow()
	// Add an aggregation so blocking state must flush on stop.
	spec.Nodes[1] = dataflow.NodeSpec{
		ID: "all", Kind: "aggregate", IntervalMS: 10000, Func: "COUNT",
	}
	d, err := r.exec.Deploy(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Undeploy()
	done := make(chan error, 1)
	go func() { done <- d.Run(t0, t0.Add(time.Hour)) }()
	// Let some virtual time elapse, then stop.
	for len(d.Collected("out")) == 0 {
		time.Sleep(time.Millisecond)
	}
	d.Stop()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// The aggregate flushed its partial window on EOS.
	got := d.Collected("out")
	if len(got) == 0 {
		t.Fatal("nothing drained")
	}
	var sum int64
	for _, tup := range got {
		sum += tup.MustGet("count").AsInt()
	}
	// Counted tuples must equal tuples the source emitted.
	in, _, _ := d.srcCtrs["src"].Snapshot()
	if sum != int64(in) {
		t.Errorf("counted %d, source emitted %d", sum, in)
	}
}

func TestTriggerActivatesSensorMidRun(t *testing.T) {
	// The Osaka pattern: rain-1 starts deactivated; the trigger activates it
	// when temperature > 25.
	specs := []sensor.Spec{
		tempSpec("temp-1"),
		{ID: "rain-1", Type: sensor.TypeRain, Location: geo.OsakaCenter, Seed: 7, FrequencyHz: 1},
	}
	r := newRig(t, 2, specs)
	spec := &dataflow.Spec{
		Name: "osaka-mini",
		Nodes: []dataflow.NodeSpec{
			{ID: "t", Kind: "source", Sensor: "temp-1"},
			{ID: "hot", Kind: "trigger_on", IntervalMS: 10000,
				Cond: "temperature > 25", Targets: []string{"rain-1"}},
			{ID: "tsink", Kind: "sink", Sink: "discard"},
			{ID: "r", Kind: "source", Sensor: "rain-1"},
			{ID: "rsink", Kind: "sink", Sink: "collect"},
		},
		Edges: []dataflow.EdgeSpec{
			{From: "t", To: "hot"},
			{From: "hot", To: "tsink"},
			{From: "r", To: "rsink"},
		},
	}
	d, err := r.exec.Deploy(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Undeploy()
	if r.broker.IsActive("rain-1") {
		t.Fatal("trigger target must start deactivated")
	}
	if !r.broker.IsActive("temp-1") {
		t.Fatal("plain source must start activated")
	}
	// At 14:00 Osaka temperature exceeds 25C (diurnal model); run noon to 15:00.
	noon := time.Date(2016, 3, 15, 12, 0, 0, 0, time.UTC)
	if err := d.Run(noon, noon.Add(3*time.Hour)); err != nil {
		t.Fatal(err)
	}
	if !r.broker.IsActive("rain-1") {
		t.Fatal("trigger never activated the rain sensor")
	}
	rain := d.Collected("rsink")
	if len(rain) == 0 {
		t.Fatal("no rain tuples after activation")
	}
	// Rain tuples must only exist after the first fire.
	fires := d.Fires()
	var firstFire time.Time
	for _, f := range fires {
		if f.Fired {
			firstFire = f.WindowStart
			break
		}
	}
	if firstFire.IsZero() {
		t.Fatal("no fire event recorded")
	}
	for _, tup := range rain {
		if tup.Time.Before(firstFire) {
			t.Fatalf("rain tuple at %v precedes first fire %v", tup.Time, firstFire)
		}
	}
}

func TestReconfigureSwapsOperator(t *testing.T) {
	r := newRig(t, 2, []sensor.Spec{tempSpec("temp-1")})
	d, err := r.exec.Deploy(simpleFlow())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Undeploy()
	if err := d.Run(t0, t0.Add(30*time.Second)); err != nil {
		t.Fatal(err)
	}
	before := len(d.Collected("out"))
	// Swap the filter to pass nothing.
	if err := d.SwapOperator(dataflow.NodeSpec{
		ID: "all", Kind: "filter", Cond: "temperature > 1000",
	}); err != nil {
		t.Fatal(err)
	}
	if err := d.Run(t0, t0.Add(time.Minute)); err != nil {
		t.Fatal(err)
	}
	after := len(d.Collected("out"))
	if after != before {
		t.Errorf("swapped filter leaked tuples: %d -> %d", before, after)
	}
	// Swap events logged.
	if len(r.mon.EventsOfKind(monitor.EventSwapped)) != 1 {
		t.Error("swap not logged")
	}
	// Swapping an unknown node fails.
	if err := d.SwapOperator(dataflow.NodeSpec{ID: "ghost", Kind: "filter", Cond: "true"}); err == nil {
		t.Error("unknown node swap must fail")
	}
	// Swapping in an invalid config fails and keeps the old dataflow.
	if err := d.SwapOperator(dataflow.NodeSpec{ID: "all", Kind: "filter", Cond: "ghost > 1"}); err == nil {
		t.Error("invalid swap must fail")
	}
	if err := d.Run(t0, t0.Add(90*time.Second)); err != nil {
		t.Fatalf("deployment broken after failed swap: %v", err)
	}
}

// gateSink holds a run open: its first Accept announces itself on entered,
// and every Accept waits for release to be closed.
type gateSink struct {
	entered chan struct{}
	release chan struct{}
	once    sync.Once
}

func (g *gateSink) Accept(*stt.Tuple) error {
	g.once.Do(func() { close(g.entered) })
	<-g.release
	return nil
}

func (g *gateSink) Close() error { return nil }

// TestReconfigureWhileRunningFails reconfigures a deployment whose run
// cannot have ended: a tuple is parked in the sink, which the test holds
// until after the call. (A bare one-hour replay finishes in milliseconds and
// used to win the race against the test about one run in a hundred.)
func TestReconfigureWhileRunningFails(t *testing.T) {
	r := newRig(t, 2, []sensor.Spec{tempSpec("temp-1")})
	gate := &gateSink{entered: make(chan struct{}), release: make(chan struct{})}
	cfg := r.exec.cfg
	cfg.Sinks = func(string, string, *stt.Schema) (Sink, error) { return gate, nil }
	exec, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	spec := simpleFlow()
	spec.Nodes[2].Sink = "viz"
	d, err := exec.Deploy(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Undeploy()
	done := make(chan error, 1)
	go func() { done <- d.Run(t0, t0.Add(time.Hour)) }()
	<-gate.entered
	if err := d.Reconfigure(simpleFlow()); err == nil {
		t.Error("reconfigure while running must fail")
	}
	close(gate.release)
	d.Stop()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestPlugAndPlaySensor(t *testing.T) {
	// P3: publish a new sensor mid-deployment and extend the dataflow to it.
	r := newRig(t, 2, []sensor.Spec{tempSpec("temp-1")})
	d, err := r.exec.Deploy(simpleFlow())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Undeploy()
	if err := d.Run(t0, t0.Add(10*time.Second)); err != nil {
		t.Fatal(err)
	}

	// New sensor joins the network.
	s2, err := sensor.New(sensor.Spec{
		ID: "temp-2", Type: sensor.TypeTemperature,
		Location: geo.OsakaCenter, NodeID: "node-01", Seed: 9, FrequencyHz: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	r.sensors["temp-2"] = s2
	if err := r.broker.Publish(s2.Meta()); err != nil {
		t.Fatal(err)
	}

	// Extend the dataflow with the new source.
	spec := simpleFlow()
	spec.Nodes = append(spec.Nodes,
		dataflow.NodeSpec{ID: "src2", Kind: "source", Sensor: "temp-2"},
		dataflow.NodeSpec{ID: "out2", Kind: "sink", Sink: "collect"},
	)
	spec.Edges = append(spec.Edges, dataflow.EdgeSpec{From: "src2", To: "out2"})
	if err := d.Reconfigure(spec); err != nil {
		t.Fatal(err)
	}
	if err := d.Run(t0, t0.Add(20*time.Second)); err != nil {
		t.Fatal(err)
	}
	if len(d.Collected("out2")) != 20 {
		t.Errorf("new source produced %d tuples, want 20 (its own full range)", len(d.Collected("out2")))
	}
	// Old sink kept its history and continued.
	if len(d.Collected("out")) != 20 {
		t.Errorf("old sink: %d, want 20", len(d.Collected("out")))
	}
}

func TestRebalanceMovesHotOperator(t *testing.T) {
	// Small node capacity so the pinned dataflow visibly overloads node-00.
	r := newRigCapacity(t, 3, 6, []sensor.Spec{tempSpec("temp-1")})
	// Force everything onto node-00 to create imbalance.
	r.exec.cfg.Strategy = &pinned{node: "node-00"}
	spec := simpleFlow()
	spec.Nodes[1] = dataflow.NodeSpec{ // blocking op: weight 3
		ID: "all", Kind: "aggregate", IntervalMS: 1000, Func: "COUNT",
	}
	d, err := r.exec.Deploy(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Undeploy()
	if d.Placement()["all"] != "node-00" {
		t.Fatal("setup: op not pinned")
	}
	migs, err := d.Rebalance(t0)
	if err != nil {
		t.Fatal(err)
	}
	if len(migs) != 1 || migs[0].Op != "all" || migs[0].To == "node-00" {
		t.Fatalf("migrations: %+v", migs)
	}
	if d.Placement()["all"] == "node-00" {
		t.Error("placement not updated")
	}
	// Assignment change logged (Figure 3).
	evs := r.mon.EventsOfKind(monitor.EventReassigned)
	if len(evs) != 1 || evs[0].Op != "all" {
		t.Errorf("reassignment events: %v", evs)
	}
	// The dataflow still runs after migration.
	if err := d.Run(t0, t0.Add(10*time.Second)); err != nil {
		t.Fatal(err)
	}
	if len(d.Collected("out")) == 0 {
		t.Error("no output after migration")
	}
	// Balanced network: no further migration.
	migs, err = d.Rebalance(t0)
	if err != nil {
		t.Fatal(err)
	}
	if len(migs) != 0 {
		t.Errorf("unexpected migration: %+v", migs)
	}
}

// pinned places everything on one node.
type pinned struct{ node string }

func (p *pinned) Name() string { return "pinned" }
func (p *pinned) Place(svc network.ServiceInfo, net *network.Network) (string, error) {
	if err := net.AddLoad(p.node, svc.Weight); err != nil {
		return "", err
	}
	return p.node, nil
}

func TestMonitorStatistics(t *testing.T) {
	r := newRig(t, 2, []sensor.Spec{tempSpec("temp-1")})
	d, err := r.exec.Deploy(simpleFlow())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Undeploy()
	if err := d.Run(t0, t0.Add(time.Minute)); err != nil {
		t.Fatal(err)
	}
	rep := r.mon.Snapshot(r.clock.Now(), true)
	if len(rep.Ops) != 3 {
		t.Fatalf("monitored ops = %d, want 3", len(rep.Ops))
	}
	for _, op := range rep.Ops {
		if op.Node == "" {
			t.Errorf("op %s has no node", op.Name)
		}
		if op.Name == "all" && op.In != 60 {
			t.Errorf("filter in = %d, want 60", op.In)
		}
		if len(op.Series) == 0 {
			t.Errorf("op %s has no rate series", op.Name)
		}
	}
	if rep.HotNode == "" {
		t.Error("no hot node reported")
	}
}

func TestTransferAccountingAcrossNodes(t *testing.T) {
	r := newRig(t, 2, []sensor.Spec{tempSpec("temp-1")})
	// Round-robin guarantees the three services spread over both nodes.
	r.exec.cfg.Strategy = &network.RoundRobin{}
	d, err := r.exec.Deploy(simpleFlow())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Undeploy()
	if err := d.Run(t0, t0.Add(time.Minute)); err != nil {
		t.Fatal(err)
	}
	var transferred uint64
	for _, id := range r.net.Flows() {
		tuples, bytes := r.net.TransferStats(id)
		transferred += tuples
		if tuples > 0 && bytes == 0 {
			t.Error("bytes not accounted")
		}
	}
	if transferred == 0 {
		t.Error("no cross-node transfers recorded despite round-robin placement")
	}
}

func TestUndeployReleasesResources(t *testing.T) {
	r := newRig(t, 2, []sensor.Spec{tempSpec("temp-1")})
	d, err := r.exec.Deploy(simpleFlow())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.net.Flows()) == 0 {
		t.Fatal("no flows allocated")
	}
	d.Undeploy()
	if len(r.net.Flows()) != 0 {
		t.Errorf("flows leaked: %v", r.net.Flows())
	}
	for _, id := range r.net.Nodes() {
		if r.net.Load(id) != 0 {
			t.Errorf("load leaked on %s: %v", id, r.net.Load(id))
		}
	}
}
