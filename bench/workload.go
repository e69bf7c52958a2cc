package main

import (
	"fmt"
	"math/rand"
	"time"

	"streamloader/internal/dataflow"
	"streamloader/internal/geo"
	"streamloader/internal/ops"
	"streamloader/internal/sensor"
)

// The fleet is the same in every workload: 8 heterogeneous sources, all at
// one frequency. Every schema of the fleet has minute temporal granularity,
// so AlignSTT truncates each event time to its minute: at 50 Hz a source
// stores 3000 events per distinct event time. Query windows are therefore
// whole minutes.
const (
	defaultHz   = 50.0
	fleetSize   = 8
	dataflowKey = "bench"
)

// baseTime is where replayed history starts. It is fixed, not seeded: the
// sensors' diurnal models would otherwise move the operator selectivities
// with the seed and the seeds would stop being comparable.
var baseTime = time.Date(2016, 3, 15, 0, 0, 0, 0, time.UTC)

// fleetSpecs returns the sensor specs for a seed. The child builds its
// sources from them and the oracle regenerates the corpus from them.
func fleetSpecs(seed int64, hz float64, nodes []string) []sensor.Spec {
	type member struct {
		typ     sensor.Type
		n       int
		variant func(i int) int
	}
	fleet := []member{
		{sensor.TypeTemperature, 3, func(i int) int { return i }}, // celsius, fahrenheit, celsius
		{sensor.TypeHumidity, 2, func(int) int { return 0 }},
		{sensor.TypeRain, 1, func(int) int { return 0 }},
		{sensor.TypeRiverLevel, 1, func(int) int { return 1 }}, // yards
		{sensor.TypeTraffic, 1, func(int) int { return 0 }},
	}
	rng := rand.New(rand.NewSource(seed))
	var out []sensor.Spec
	for _, m := range fleet {
		for i := 0; i < m.n; i++ {
			node := ""
			if len(nodes) > 0 {
				node = nodes[len(out)%len(nodes)]
			}
			out = append(out, sensor.Spec{
				ID:   fmt.Sprintf("%s-%d", m.typ, i+1),
				Type: m.typ,
				Location: geo.Point{
					Lat: geo.Osaka.Min.Lat + rng.Float64()*(geo.Osaka.Max.Lat-geo.Osaka.Min.Lat),
					Lon: geo.Osaka.Min.Lon + rng.Float64()*(geo.Osaka.Max.Lon-geo.Osaka.Min.Lon),
				},
				NodeID:      node,
				Seed:        seed + int64(len(out))*7919,
				UnitVariant: m.variant(i),
				FrequencyHz: hz,
			})
		}
	}
	return out
}

// workload is one configuration of the system under test.
type workload struct {
	name string
	// chain selects the operator-heavy dataflow; otherwise sources are
	// wired straight to warehouse sinks.
	chain bool
	// durable gives the child a data directory, fsync=interval and
	// HotSegments 2; otherwise the warehouse is in-memory with retention.
	durable bool
	retain  int
	// concurrent runs the query loop beside ingest rounds 1.. instead of in
	// a quiet phase of its own, over a working set that fits the cold cache.
	concurrent bool
	// view holds one standing aggregate view open through ingest.
	view bool
	// roundMinutes is the history one ingest round replays at the committed
	// run length: 2.3 to 3 s of work at the workload's rate.
	roundMinutes int
	// aggMinutes is the width of the aggregate shape's window, sized so one
	// aggregate costs 5 ms or more.
	aggMinutes int
}

var workloads = []workload{
	{name: "chain-mem", chain: true, retain: 400000, roundMinutes: 17, aggMinutes: 2},
	{name: "passthrough-durable", durable: true, roundMinutes: 26, aggMinutes: 10},
	{name: "query-under-ingest", durable: true, concurrent: true, roundMinutes: 32, aggMinutes: 10},
	{name: "views-durable", durable: true, view: true, roundMinutes: 26, aggMinutes: 10},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Sizes in minutes of event time. One minute is fleetSize*60*hz events
// (24000 at 50 Hz), so a durable round is 624k events and a chain-mem round
// 408k, more than its retention bound.
const (
	preloadMinutes = 17 // 408k events: setup takes seconds
	revisitMinutes = 16 // the windows query-under-ingest revisits, inside the preload
)

// The standing view of views-durable and the live view of every workload.
const (
	standingViewQuery = "func=avg&field=temperature&group=source&bucket=10s&policy=interval:200ms&format=ndjson"
	liveViewQuery     = "func=count&group=source&format=ndjson&policy=event"
)

// chainDef describes the operator chain of one source in chain-mem, in a
// form both the dataflow spec and the oracle's naive evaluation are built
// from: filter on the fractional digit of a field, convert its unit, rename
// the label field, coarsen to city cells, add one virtual property.
type chainDef struct {
	field    string  // numeric field the filter and the conversion read
	scale    float64 // filter keeps x when frac(x*scale) < 0.75
	convert  string  // field converted by convert_unit
	fromUnit string
	toUnit   string
	label    string // string field renamed to "site"
	vpName   string
	vpSpec   string
	vpUnit   string
	vp       func(vals map[string]float64) float64 // the same formula, natively
}

func chainFor(spec sensor.Spec) chainDef {
	switch spec.Type {
	case sensor.TypeTemperature:
		from := "celsius"
		if spec.UnitVariant%2 == 1 {
			from = "fahrenheit"
		}
		return chainDef{field: "temperature", scale: 1, convert: "temperature", fromUnit: from, toUnit: "celsius",
			label: "station", vpName: "temp_f", vpSpec: "temperature*1.8+32", vpUnit: "fahrenheit",
			vp: func(v map[string]float64) float64 { return v["temperature"]*1.8 + 32 }}
	case sensor.TypeHumidity:
		return chainDef{field: "humidity", scale: 1, convert: "humidity", fromUnit: "percent", toUnit: "fraction",
			label: "station", vpName: "dryness", vpSpec: "1-humidity", vpUnit: "fraction",
			vp: func(v map[string]float64) float64 { return 1 - v["humidity"] }}
	case sensor.TypeRain:
		return chainDef{field: "rain_rate", scale: 1, convert: "rain_rate", fromUnit: "mm/h", toUnit: "inch/h",
			label: "gauge", vpName: "rain_day", vpSpec: "rain_rate*24", vpUnit: "",
			vp: func(v map[string]float64) float64 { return v["rain_rate"] * 24 }}
	case sensor.TypeRiverLevel:
		return chainDef{field: "level", scale: 10, convert: "level", fromUnit: "yard", toUnit: "m",
			label: "gauge", vpName: "over_bank", vpSpec: "level-1.5", vpUnit: "m",
			vp: func(v map[string]float64) float64 { return v["level"] - 1.5 }}
	case sensor.TypeTraffic:
		return chainDef{field: "congestion", scale: 10, convert: "speed", fromUnit: "km/h", toUnit: "m/s",
			label: "segment", vpName: "delay_index", vpSpec: "congestion*speed", vpUnit: "",
			vp: func(v map[string]float64) float64 { return v["congestion"] * v["speed"] }}
	}
	panic("bench: no chain for sensor type " + string(spec.Type))
}

// filterCond is the chain's filter as an expression over the source schema.
func (c chainDef) filterCond() string {
	if c.scale == 1 {
		return fmt.Sprintf("%s-floor(%s) < 0.75", c.field, c.field)
	}
	return fmt.Sprintf("%s*%g-floor(%s*%g) < 0.75", c.field, c.scale, c.field, c.scale)
}

// Side branches of chain-mem, as in examples/flood and examples/osaka: a
// join of one temperature and one humidity source and a windowed average of
// the rain gauge. The join is a nested loop over each one-minute window, so
// both inputs are culled to one tuple in a hundred first.
const (
	joinLeft, joinRight = "temperature-1", "humidity-1"
	joinNode            = "tj"
	joinPredicate       = "left.temperature-floor(left.temperature) < right.humidity-floor(right.humidity)"
	joinCullRate        = 0.99
	aggSource, aggNode  = "rain-1", "ragg"
	branchIntervalMS    = 60_000
)

// buildSpec returns the dataflow the workload deploys.
func buildSpec(w workload, specs []sensor.Spec) *dataflow.Spec {
	df := &dataflow.Spec{Name: dataflowKey}
	node := func(n dataflow.NodeSpec) { df.Nodes = append(df.Nodes, n) }
	edge := func(from, to string, port int) {
		df.Edges = append(df.Edges, dataflow.EdgeSpec{From: from, To: to, Port: port})
	}
	for i, s := range specs {
		src := fmt.Sprintf("s%d", i)
		sink := fmt.Sprintf("w%d", i)
		node(dataflow.NodeSpec{ID: src, Kind: "source", Sensor: s.ID})
		node(dataflow.NodeSpec{ID: sink, Kind: "sink", Sink: "warehouse"})
		if !w.chain {
			edge(src, sink, 0)
			continue
		}
		c := chainFor(s)
		f, t, v := fmt.Sprintf("f%d", i), fmt.Sprintf("t%d", i), fmt.Sprintf("v%d", i)
		node(dataflow.NodeSpec{ID: f, Kind: "filter", Cond: c.filterCond()})
		node(dataflow.NodeSpec{ID: t, Kind: "transform", Steps: []ops.TransformStep{
			{Op: "convert_unit", Field: c.convert, ToUnit: c.toUnit},
			{Op: "rename", Field: c.label, NewName: "site"},
			{Op: "coarsen", SGran: "city"},
		}})
		node(dataflow.NodeSpec{ID: v, Kind: "virtual_property", Property: c.vpName, Spec: c.vpSpec, Unit: c.vpUnit})
		edge(src, f, 0)
		edge(f, t, 0)
		edge(t, v, 0)
		edge(v, sink, 0)
	}
	if !w.chain {
		return df
	}
	// Far wider than Osaka: granularity snapping must not move a sensor out.
	area := geo.Rect{Min: geo.Point{Lat: 30, Lon: 130}, Max: geo.Point{Lat: 40, Lon: 140}}
	srcOf := func(id string) string {
		for i, s := range specs {
			if s.ID == id {
				return fmt.Sprintf("s%d", i)
			}
		}
		panic("bench: no source " + id)
	}
	node(dataflow.NodeSpec{ID: "cl", Kind: "cull_space", Rate: joinCullRate, Area: &area})
	node(dataflow.NodeSpec{ID: "cr", Kind: "cull_space", Rate: joinCullRate, Area: &area})
	node(dataflow.NodeSpec{ID: joinNode, Kind: "join", IntervalMS: branchIntervalMS, Predicate: joinPredicate})
	node(dataflow.NodeSpec{ID: "wj", Kind: "sink", Sink: "warehouse"})
	edge(srcOf(joinLeft), "cl", 0)
	edge(srcOf(joinRight), "cr", 0)
	edge("cl", joinNode, 0)
	edge("cr", joinNode, 1)
	edge(joinNode, "wj", 0)
	node(dataflow.NodeSpec{ID: aggNode, Kind: "aggregate", IntervalMS: branchIntervalMS,
		GroupBy: []string{"gauge"}, Func: "AVG", Attr: "rain_rate"})
	node(dataflow.NodeSpec{ID: "wa", Kind: "sink", Sink: "warehouse"})
	edge(srcOf(aggSource), aggNode, 0)
	edge(aggNode, "wa", 0)
	return df
}
