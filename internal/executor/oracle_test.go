package executor

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"streamloader/internal/dataflow"
	"streamloader/internal/dsn"
	"streamloader/internal/geo"
	"streamloader/internal/network"
	"streamloader/internal/ops"
	"streamloader/internal/sensor"
	"streamloader/internal/stream"
	"streamloader/internal/stt"
)

// runOracle is the runner this package had before non-blocking operations
// were fused into their producer: one goroutine per operation running
// Operator.Run, one router goroutine per operation, a channel per plan edge
// and an "<id>.out" channel between each operation and its router, transfers
// recorded by flow name. It is kept only as the reference the fused wiring
// is checked against; it shares Run's sources, sinks and coordinator.
func (d *Deployment) runOracle(from, to time.Time) error {
	d.mu.Lock()
	d.running = true
	d.stopCh = make(chan struct{})
	d.coord = newTimeCoordinator()
	d.stopOnce = sync.Once{}
	plan, docName, coord := d.plan, d.doc.Name, d.coord
	placement := maps.Clone(d.placement)
	d.mu.Unlock()
	defer func() {
		d.mu.Lock()
		d.running = false
		d.stopCh, d.coord = nil, nil
		d.mu.Unlock()
	}()

	e := d.exec
	edges := map[[2]string]*stream.Stream{}
	for _, pn := range plan.Nodes {
		for _, toID := range pn.Out {
			edges[[2]string{pn.ID, toID}] = stream.New(pn.ID+"->"+toID, pn.OutSchema, e.cfg.Buffer)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, len(plan.Nodes)*2)
	fail := func(err error) {
		errs <- err
		d.Stop()
	}
	for _, pn := range plan.Nodes {
		if pn.Kind == ops.KindSource {
			start, resumed := d.sourcePos[pn.ID]
			if !resumed || start.Before(from) {
				start = from
			}
			coord.register(pn.ID, start)
		}
	}
	for _, pn := range plan.Nodes {
		router := &oracleRouter{net: e.cfg.Network}
		if pn.OutSchema != nil {
			router.bytes = tupleBytes(pn.OutSchema)
		}
		for _, toID := range pn.Out {
			port := 0
			for i, from := range plan.Node(toID).In {
				if from == pn.ID {
					port = i
				}
			}
			router.outs = append(router.outs, edges[[2]string{pn.ID, toID}])
			router.flows = append(router.flows, dsn.FlowID(docName, pn.ID, toID, port))
			router.remote = append(router.remote, placement[pn.ID] != placement[toID])
		}
		var ins []*stream.Stream
		for _, fromID := range pn.In {
			ins = append(ins, edges[[2]string{fromID, pn.ID}])
		}

		switch pn.Kind {
		case ops.KindSource:
			wg.Add(1)
			go func() {
				defer wg.Done()
				d.runSource(pn, coord, router, from, to)
			}()
		case ops.KindSink:
			sink, err := d.buildSink(pn, placement[pn.ID])
			if err != nil {
				return err // the oracle is only run on plans whose sinks build
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := d.runSink(pn, sink, ins); err != nil {
					fail(err)
				}
			}()
		default:
			mid := stream.New(pn.ID+".out", pn.OutSchema, e.cfg.Buffer)
			wg.Add(2)
			go func() {
				defer wg.Done()
				err := pn.Op.Run(ins, mid)
				for _, in := range ins {
					in.Drain()
				}
				if err != nil {
					fail(fmt.Errorf("executor: operation %s: %w", pn.ID, err))
				}
			}()
			go func() {
				defer wg.Done()
				for item := range mid.C {
					switch item.Kind {
					case stream.ItemTuple:
						router.Send(item.Tuple)
					case stream.ItemWatermark:
						router.SendWatermark(item.Watermark)
					}
				}
				router.Close()
			}()
		}
	}
	wg.Wait()
	close(errs)
	return <-errs
}

// oracleRouter fans one node's output out to its edges the way
// Deployment.route did.
type oracleRouter struct {
	net    *network.Network
	outs   []*stream.Stream
	flows  []string
	remote []bool
	bytes  uint64
}

func (r *oracleRouter) Send(t *stt.Tuple) {
	for i, o := range r.outs {
		o.Send(t)
		if r.remote[i] {
			r.net.RecordTransfer(r.flows[i], 1, r.bytes)
		}
	}
}

func (r *oracleRouter) SendWatermark(ts time.Time) {
	for _, o := range r.outs {
		o.SendWatermark(ts)
	}
}

func (r *oracleRouter) Close() {
	for _, o := range r.outs {
		o.Close()
	}
}

// planGen draws random dataflows over the Table-1 operations. Every source
// is a temperature sensor and every operation it draws keeps the
// "temperature" attribute, so any sequence of them compiles.
type planGen struct {
	rng  *rand.Rand
	spec *dataflow.Spec
}

var genSensors = []string{"temp-1", "temp-2", "temp-3"}

func (g *planGen) node(kind string, ns dataflow.NodeSpec) string {
	ns.ID = fmt.Sprintf("%s%d", kind[:1], len(g.spec.Nodes))
	ns.Kind = kind
	g.spec.Nodes = append(g.spec.Nodes, ns)
	return ns.ID
}

func (g *planGen) edge(from, to string, port int) {
	g.spec.Edges = append(g.spec.Edges, dataflow.EdgeSpec{From: from, To: to, Port: port})
}

// tap sometimes hangs a collect sink off a node, so interior outputs are
// observed and interior nodes fan out in some plans but not in others.
func (g *planGen) tap(id string, always bool) {
	if always || g.rng.Intn(2) == 0 {
		g.edge(id, g.node("sink", dataflow.NodeSpec{Sink: "collect"}), 0)
	}
}

// chain appends 0..3 random non-blocking operations after from.
func (g *planGen) chain(from string) string {
	for n := g.rng.Intn(4); n > 0; n-- {
		var id string
		switch g.rng.Intn(5) {
		case 0:
			id = g.node("filter", dataflow.NodeSpec{Cond: fmt.Sprintf("temperature > %d", 5+g.rng.Intn(15))})
		case 1:
			unit := []string{"celsius", "fahrenheit", "kelvin"}[g.rng.Intn(3)]
			id = g.node("transform", dataflow.NodeSpec{Steps: []ops.TransformStep{
				{Op: "convert_unit", Field: "temperature", ToUnit: unit},
				{Op: "validate", Rule: "temperature > -500"},
			}})
		case 2:
			prop := fmt.Sprintf("vp%d", len(g.spec.Nodes))
			id = g.node("virtual_property", dataflow.NodeSpec{Property: prop, Spec: "temperature * 2 + _seq"})
		case 3:
			id = g.node("cull_time", dataflow.NodeSpec{Rate: 0.25 * float64(1+g.rng.Intn(3)),
				From: t0.Format(time.RFC3339), To: t0.Add(30 * time.Minute).Format(time.RFC3339)})
		case 4:
			area := geo.Rect{Min: geo.Point{Lat: 30, Lon: 130}, Max: geo.Point{Lat: 40, Lon: 140}}
			id = g.node("cull_space", dataflow.NodeSpec{Rate: 0.25 * float64(1+g.rng.Intn(3)), Area: &area})
		}
		g.edge(from, id, 0)
		g.tap(id, false)
		from = id
	}
	return from
}

// genPlan draws 1..3 branches, each starting at a random source (so sources
// fan out whenever two branches pick the same one): a linear chain, a join
// fan-in, a trigger mid-chain, or a chain ending in an aggregate.
func genPlan(rng *rand.Rand, name string) *dataflow.Spec {
	g := &planGen{rng: rng, spec: &dataflow.Spec{Name: name}}
	sources := map[string]string{}
	source := func(sensorID string) string {
		if sources[sensorID] == "" {
			sources[sensorID] = g.node("source", dataflow.NodeSpec{Sensor: sensorID})
		}
		return sources[sensorID]
	}
	for n := 1 + rng.Intn(3); n > 0; n-- {
		pick := rng.Perm(len(genSensors))
		tail := g.chain(source(genSensors[pick[0]]))
		switch rng.Intn(4) {
		case 0: // linear
		case 1:
			right := g.chain(source(genSensors[pick[1]]))
			j := g.node("join", dataflow.NodeSpec{IntervalMS: 300000,
				Predicate: "left.temperature <= right.temperature"})
			g.edge(tail, j, 0)
			g.edge(right, j, 1)
			tail = g.chain(j)
		case 2:
			// The target is published but feeds no source of the plan, so
			// the control path's latency cannot change the data.
			tr := g.node("trigger_off", dataflow.NodeSpec{IntervalMS: 240000,
				Cond: "temperature > 10", Targets: []string{"temp-idle"}})
			g.edge(tail, tr, 0)
			g.tap(tr, false)
			tail = g.chain(tr)
		case 3:
			agg := g.node("aggregate", dataflow.NodeSpec{IntervalMS: 180000,
				GroupBy: []string{"station"}, Func: "AVG", Attr: "temperature"})
			g.edge(tail, agg, 0)
			tail = agg
		}
		g.tap(tail, true)
	}
	return g.spec
}

// observed is everything a run leaves behind that the wiring must not
// change.
type observed struct {
	Collected map[string][]string  // per collect sink: its tuples in order
	Counters  map[string][3]uint64 // per node: In, Out, Dropped
	Transfers map[string][2]uint64 // per flow: tuples, bytes
	Fires     map[string][]string  // per trigger: its decisions in order
}

// diff names what two observations disagree on, as "<what> <key>: a | b".
func (a observed) diff(b observed) []string {
	var out []string
	cmp := func(what string, x, y reflect.Value) {
		keys := map[string]bool{}
		for _, m := range []reflect.Value{x, y} {
			for _, k := range m.MapKeys() {
				keys[k.String()] = true
			}
		}
		for k := range keys {
			xv, yv := x.MapIndex(reflect.ValueOf(k)), y.MapIndex(reflect.ValueOf(k))
			if !xv.IsValid() || !yv.IsValid() || !reflect.DeepEqual(xv.Interface(), yv.Interface()) {
				out = append(out, fmt.Sprintf("%s %s: %v | %v", what, k, xv, yv))
			}
		}
	}
	av, bv := reflect.ValueOf(a), reflect.ValueOf(b)
	for i := 0; i < av.NumField(); i++ {
		cmp(av.Type().Field(i).Name, av.Field(i), bv.Field(i))
	}
	return out
}

// observe deploys the spec on a fresh rig and runs it over [t0, t0+1h). The
// sensors tick once a minute, their schemas' granularity, so event times are
// the ticks and no tuple is late at a join whichever side runs ahead.
func observe(t *testing.T, spec *dataflow.Spec, run func(*Deployment, time.Time, time.Time) error) observed {
	t.Helper()
	specs := []sensor.Spec{tempSpec("temp-idle")}
	for i, id := range genSensors {
		s := tempSpec(id)
		s.Seed = int64(100 + i)
		s.FrequencyHz = 1.0 / 60
		s.UnitVariant = i // variant 1 reports Fahrenheit
		specs = append(specs, s)
	}
	r := newRig(t, 4, specs)
	// Round-robin spreads the services over the nodes, so most edges —
	// fused or not — are remote and must be accounted.
	r.exec.cfg.Strategy = &network.RoundRobin{}
	d, err := r.exec.Deploy(spec)
	if err != nil {
		t.Fatalf("%v\n%+v", err, spec)
	}
	defer d.Undeploy()
	if err := run(d, t0, t0.Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	got := observed{
		Collected: map[string][]string{},
		Counters:  map[string][3]uint64{},
		Transfers: map[string][2]uint64{},
		Fires:     map[string][]string{},
	}
	for _, pn := range d.plan.Nodes {
		var c *ops.Counters
		switch pn.Kind {
		case ops.KindSource:
			c = d.srcCtrs[pn.ID]
		case ops.KindSink:
			c = d.sinkCtrs[pn.ID]
			for _, tup := range d.Collected(pn.ID) {
				got.Collected[pn.ID] = append(got.Collected[pn.ID], fmt.Sprintf("%s seq=%d theme=%s", tup, tup.Seq, tup.Theme))
			}
		default:
			c = pn.Op.Counters()
		}
		in, out, dropped := c.Snapshot()
		got.Counters[pn.ID] = [3]uint64{in, out, dropped}
	}
	for _, id := range r.net.Flows() {
		tuples, bytes := r.net.TransferStats(id)
		got.Transfers[id] = [2]uint64{tuples, bytes}
	}
	for _, f := range d.Fires() {
		got.Fires[f.Op] = append(got.Fires[f.Op], fmt.Sprint(f.WindowStart.Unix(), f.Fired))
	}
	return got
}

func TestFusedWiringMatchesGoroutinePerOperatorOracle(t *testing.T) {
	plans := 40
	if testing.Short() {
		plans = 8
	}
	kinds := map[string]int{}
	var remote uint64
	for seed := 0; seed < plans; seed++ {
		spec := genPlan(rand.New(rand.NewSource(int64(seed))), fmt.Sprintf("plan%d", seed))
		for _, n := range spec.Nodes {
			kinds[n.Kind]++
		}
		fused := observe(t, spec, (*Deployment).Run)
		oracle := observe(t, spec, (*Deployment).runOracle)
		if diffs := fused.diff(oracle); len(diffs) > 0 {
			t.Fatalf("seed %d: fused wiring and oracle disagree on %v\nspec %+v", seed, diffs, spec)
		}
		for _, x := range fused.Transfers {
			remote += x[0]
		}
		var delivered int
		for _, tuples := range fused.Collected {
			delivered += len(tuples)
		}
		if delivered == 0 {
			t.Errorf("seed %d: plan delivered nothing, the comparison is vacuous: %+v", seed, spec)
		}
	}
	// The generator must have exercised every operation and remote edges.
	for _, k := range []string{"filter", "transform", "virtual_property", "cull_time", "cull_space", "join", "trigger_off", "aggregate"} {
		if kinds[k] == 0 {
			t.Errorf("no plan used %s", k)
		}
	}
	if remote == 0 {
		t.Error("no plan moved a tuple over a remote edge")
	}
}
