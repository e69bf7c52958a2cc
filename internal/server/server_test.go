package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"streamloader/internal/dataflow"
	"streamloader/internal/executor"
	"streamloader/internal/geo"
	"streamloader/internal/monitor"
	"streamloader/internal/network"
	"streamloader/internal/obs"
	"streamloader/internal/pubsub"
	"streamloader/internal/sensor"
	"streamloader/internal/stream"
	"streamloader/internal/viz"
	"streamloader/internal/warehouse"
)

func newTestServer(t testing.TB) (*Server, *httptest.Server) {
	t.Helper()
	net, err := network.Star(network.TopologyConfig{Nodes: 2, Capacity: 100})
	if err != nil {
		t.Fatal(err)
	}
	broker := pubsub.NewBroker("test")
	sensors := map[string]*sensor.Sensor{}
	for i, typ := range []sensor.Type{sensor.TypeTemperature, sensor.TypeRain} {
		s, err := sensor.New(sensor.Spec{
			ID: fmt.Sprintf("%s-1", typ), Type: typ,
			Location: geo.OsakaCenter, NodeID: "node-00",
			Seed: int64(i), FrequencyHz: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		sensors[s.ID()] = s
		if err := broker.Publish(s.Meta()); err != nil {
			t.Fatal(err)
		}
	}
	mon := monitor.New()
	// An instrumented warehouse, as cmd/streamloader wires it, so every
	// handler test also exercises the metrics middleware and collectors.
	wh := warehouse.NewWithConfig(warehouse.Config{Obs: obs.NewRegistry()})
	board, err := viz.NewBoard(geo.Osaka, 8, 8, "")
	if err != nil {
		t.Fatal(err)
	}
	exec, err := executor.New(executor.Config{
		Network: net, Broker: broker, Monitor: mon,
		Clock: stream.NewVirtualClock(time.Date(2016, 3, 15, 9, 0, 0, 0, time.UTC)),
		Sensors: func(id string) (executor.SensorSource, bool) {
			s, ok := sensors[id]
			return s, ok
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(net, broker, exec, mon, wh, board, sensors)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

func postJSON(t *testing.T, url string, body, out any) int {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Post(url, "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

func specJSON() *dataflow.Spec {
	return &dataflow.Spec{
		Name: "web-flow",
		Nodes: []dataflow.NodeSpec{
			{ID: "src", Kind: "source", Sensor: "temperature-1"},
			{ID: "hot", Kind: "filter", Cond: "temperature > -100"},
			{ID: "out", Kind: "sink", Sink: "collect"},
		},
		Edges: []dataflow.EdgeSpec{
			{From: "src", To: "hot"},
			{From: "hot", To: "out"},
		},
	}
}

func TestSensorsEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	var sensors []map[string]any
	if code := getJSON(t, ts.URL+"/api/sensors", &sensors); code != 200 {
		t.Fatalf("status %d", code)
	}
	if len(sensors) != 2 {
		t.Fatalf("sensors = %d", len(sensors))
	}
	if sensors[0]["schema"] == "" {
		t.Error("schema missing")
	}
	// Filter by type.
	var rain []map[string]any
	getJSON(t, ts.URL+"/api/sensors?type=rain", &rain)
	if len(rain) != 1 {
		t.Errorf("rain = %d", len(rain))
	}
}

func TestSensorGroupsEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	var groups map[string][]string
	if code := getJSON(t, ts.URL+"/api/sensors/groups?by=type", &groups); code != 200 {
		t.Fatal("status")
	}
	if len(groups["temperature"]) != 1 || len(groups["rain"]) != 1 {
		t.Errorf("groups = %v", groups)
	}
	if code := getJSON(t, ts.URL+"/api/sensors/groups?by=color", nil); code != 400 {
		t.Error("bad criterion must 400")
	}
}

func TestBuiltinsEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	var out map[string][]string
	getJSON(t, ts.URL+"/api/builtins", &out)
	if len(out["functions"]) < 20 {
		t.Errorf("functions = %d", len(out["functions"]))
	}
}

func TestDataflowLifecycle(t *testing.T) {
	_, ts := newTestServer(t)
	// Create.
	if code := postJSON(t, ts.URL+"/api/dataflows", specJSON(), nil); code != 201 {
		t.Fatalf("create status %d", code)
	}
	// List.
	var names []string
	getJSON(t, ts.URL+"/api/dataflows", &names)
	if len(names) != 1 || names[0] != "web-flow" {
		t.Fatalf("list = %v", names)
	}
	// Get.
	var spec dataflow.Spec
	if code := getJSON(t, ts.URL+"/api/dataflows/web-flow", &spec); code != 200 {
		t.Fatal("get failed")
	}
	if len(spec.Nodes) != 3 {
		t.Error("spec lost nodes")
	}
	// Validate.
	var vres struct {
		Valid       bool                 `json:"valid"`
		Diagnostics dataflow.Diagnostics `json:"diagnostics"`
	}
	postJSON(t, ts.URL+"/api/dataflows/web-flow/validate", nil, &vres)
	if !vres.Valid {
		t.Fatalf("validate: %+v", vres)
	}
	// Sample debug.
	var sres map[string][]map[string]any
	if code := postJSON(t, ts.URL+"/api/dataflows/web-flow/sample?n=5", nil, &sres); code != 200 {
		t.Fatalf("sample status %d", code)
	}
	if len(sres["src"]) != 5 || len(sres["out"]) != 5 {
		t.Errorf("samples: src=%d out=%d", len(sres["src"]), len(sres["out"]))
	}
	// DSN text.
	resp, err := http.Get(ts.URL + "/api/dataflows/web-flow/dsn")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if !strings.Contains(buf.String(), `dsn "web-flow"`) {
		t.Errorf("dsn:\n%s", buf.String())
	}
	// Deploy.
	var dres map[string]any
	if code := postJSON(t, ts.URL+"/api/dataflows/web-flow/deploy", nil, &dres); code != 200 {
		t.Fatalf("deploy status %d: %v", code, dres)
	}
	if dres["placement"] == nil || dres["scn"] == "" {
		t.Errorf("deploy response: %v", dres)
	}
	// Double deploy conflicts.
	if code := postJSON(t, ts.URL+"/api/dataflows/web-flow/deploy", nil, nil); code != 409 {
		t.Error("double deploy must 409")
	}
	// Start a replay over one virtual minute.
	body := map[string]string{
		"from": "2016-03-15T09:00:00Z",
		"to":   "2016-03-15T09:01:00Z",
	}
	if code := postJSON(t, ts.URL+"/api/dataflows/web-flow/start", body, nil); code != 202 {
		t.Fatalf("start status %d", code)
	}
	// Stats, polled until the minute's 60 readings have reached the filter:
	// stop interrupts a run that is still replaying, so stopping first made
	// the count a race.
	var stats monitor.Report
	var filterIn uint64
	for deadline := time.Now().Add(10 * time.Second); filterIn < 60 && time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if code := getJSON(t, ts.URL+"/api/dataflows/web-flow/stats", &stats); code != 200 {
			t.Fatal("stats failed")
		}
		for _, op := range stats.Ops {
			if op.Name == "hot" {
				filterIn = op.In
			}
		}
	}
	// Stop (waits for the run to drain).
	if code := postJSON(t, ts.URL+"/api/dataflows/web-flow/stop", nil, nil); code != 200 {
		t.Fatal("stop failed")
	}
	if len(stats.Ops) != 3 {
		t.Errorf("stats ops = %d", len(stats.Ops))
	}
	if filterIn != 60 {
		t.Errorf("filter in = %d, want 60", filterIn)
	}
}

func TestValidationErrorsSurface(t *testing.T) {
	_, ts := newTestServer(t)
	bad := specJSON()
	bad.Nodes[1].Cond = "ghost > 1"
	postJSON(t, ts.URL+"/api/dataflows", bad, nil)
	var vres struct {
		Valid       bool                 `json:"valid"`
		Diagnostics dataflow.Diagnostics `json:"diagnostics"`
	}
	postJSON(t, ts.URL+"/api/dataflows/web-flow/validate", nil, &vres)
	if vres.Valid || len(vres.Diagnostics) == 0 {
		t.Errorf("invalid dataflow passed validation: %+v", vres)
	}
	// Deploy of invalid spec fails with 422.
	if code := postJSON(t, ts.URL+"/api/dataflows/web-flow/deploy", nil, nil); code != 422 {
		t.Error("deploying an invalid flow must 422")
	}
}

func TestUnknownDataflow404s(t *testing.T) {
	_, ts := newTestServer(t)
	paths := []string{
		"/api/dataflows/ghost",
		"/api/dataflows/ghost/stats",
	}
	for _, p := range paths {
		if code := getJSON(t, ts.URL+p, nil); code != 404 {
			t.Errorf("GET %s = %d, want 404", p, code)
		}
	}
	for _, p := range []string{
		"/api/dataflows/ghost/validate",
		"/api/dataflows/ghost/deploy",
		"/api/dataflows/ghost/start",
		"/api/dataflows/ghost/stop",
	} {
		if code := postJSON(t, ts.URL+p, nil, nil); code != 404 {
			t.Errorf("POST %s = %d, want 404", p, code)
		}
	}
}

func TestCreateRejectsBadSpecs(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Post(ts.URL+"/api/dataflows", "application/json",
		strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Error("bad JSON must 400")
	}
	if code := postJSON(t, ts.URL+"/api/dataflows", map[string]any{}, nil); code != 400 {
		t.Error("nameless spec must 400")
	}
}

func TestNetworkAndEventsEndpoints(t *testing.T) {
	_, ts := newTestServer(t)
	var net map[string]any
	if code := getJSON(t, ts.URL+"/api/network", &net); code != 200 {
		t.Fatal("network failed")
	}
	nodes := net["nodes"].([]any)
	if len(nodes) != 2 {
		t.Errorf("nodes = %d", len(nodes))
	}
	var evs []monitor.Event
	if code := getJSON(t, ts.URL+"/api/events", &evs); code != 200 {
		t.Fatal("events failed")
	}
}

func TestWarehouseAndVizEndpoints(t *testing.T) {
	_, ts := newTestServer(t)
	var stats warehouse.Stats
	if code := getJSON(t, ts.URL+"/api/warehouse/stats", &stats); code != 200 {
		t.Fatal("warehouse stats failed")
	}
	var snap viz.Snapshot
	if code := getJSON(t, ts.URL+"/api/viz", &snap); code != 200 {
		t.Fatal("viz failed")
	}
	if snap.Cols != 8 {
		t.Errorf("viz cols = %d", snap.Cols)
	}
	resp, err := http.Get(ts.URL + "/api/viz?format=ascii")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if !strings.Contains(buf.String(), "viz 8x8") {
		t.Errorf("ascii viz:\n%s", buf.String())
	}
}

func TestDashboardServed(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if !strings.Contains(buf.String(), "StreamLoader") {
		t.Error("dashboard missing")
	}
	// Unknown paths 404.
	resp, err = http.Get(ts.URL + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Error("unknown path must 404")
	}
}
