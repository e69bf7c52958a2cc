package dataflow

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"streamloader/internal/ops"
	"streamloader/internal/stt"
)

func mustPlan(t *testing.T, spec *Spec) *Plan {
	t.Helper()
	plan, diags := Compile(spec, testResolver(), noopActivator{}, nil)
	if diags.HasErrors() {
		t.Fatal(diags)
	}
	return plan
}

// shape renders what a wiring costs to run: its goroutines and channels.
func shape(w *Wiring) (procs, edges []string) {
	for _, pn := range w.Procs {
		procs = append(procs, pn.ID)
	}
	for _, e := range w.Edges {
		edges = append(edges, e.Name)
	}
	return procs, edges
}

func TestWireFusesStatelessChainIntoItsSource(t *testing.T) {
	plan := mustPlan(t, &Spec{
		Name: "chain",
		Nodes: []NodeSpec{
			{ID: "s", Kind: "source", Sensor: "temp-1"},
			{ID: "f", Kind: "filter", Cond: "temperature > 25"},
			{ID: "t", Kind: "transform", Steps: []ops.TransformStep{{Op: "convert_unit", Field: "temperature", ToUnit: "kelvin"}}},
			{ID: "v", Kind: "virtual_property", Property: "half", Spec: "temperature / 2"},
			{ID: "w", Kind: "sink"},
		},
		Edges: []EdgeSpec{{From: "s", To: "f"}, {From: "f", To: "t"}, {From: "t", To: "v"}, {From: "v", To: "w"}},
	})
	procs, edges := shape(Wire(plan, 8, Hooks{}))
	if want := []string{"s", "w"}; !reflect.DeepEqual(procs, want) {
		t.Errorf("processes = %v, want %v: a stateless chain runs in its source's goroutine", procs, want)
	}
	if want := []string{"v->w"}; !reflect.DeepEqual(edges, want) {
		t.Errorf("channel edges = %v, want %v", edges, want)
	}
}

func TestWireOperatorFreePlanKeepsItsGoroutinesAndEdges(t *testing.T) {
	plan := mustPlan(t, &Spec{
		Name: "passthrough",
		Nodes: []NodeSpec{
			{ID: "a", Kind: "source", Sensor: "temp-1"},
			{ID: "b", Kind: "source", Sensor: "rain-1"},
			{ID: "wa", Kind: "sink"},
			{ID: "wb", Kind: "sink"},
			{ID: "wb2", Kind: "sink"},
		},
		Edges: []EdgeSpec{{From: "a", To: "wa"}, {From: "b", To: "wb"}, {From: "b", To: "wb2"}},
	})
	w := Wire(plan, 8, Hooks{})
	procs, edges := shape(w)
	// One goroutine per node and one channel per plan edge, as before
	// operators were fused; a source writes straight into the channel.
	if want := []string{"a", "b", "wa", "wb", "wb2"}; !reflect.DeepEqual(procs, want) {
		t.Errorf("processes = %v, want %v", procs, want)
	}
	if want := []string{"b->wb", "b->wb2", "a->wa"}; !reflect.DeepEqual(edges, want) {
		t.Errorf("channel edges = %v, want %v", edges, want)
	}
	if w.out["a"] != ops.Emitter(w.in["wa"][0]) {
		t.Errorf("source a emits into %T, want the channel edge itself", w.out["a"])
	}
	for _, e := range w.Edges {
		if cap(e.C) != 8 {
			t.Errorf("edge %s has capacity %d, want 8", e.Name, cap(e.C))
		}
	}
}

func TestWireChannelsOnlyIntoBlockingOperationsAndSinks(t *testing.T) {
	// Fan-out at the source, a join fan-in, a trigger mid-chain.
	plan := mustPlan(t, &Spec{
		Name: "mixed",
		Nodes: []NodeSpec{
			{ID: "s1", Kind: "source", Sensor: "temp-1"},
			{ID: "s2", Kind: "source", Sensor: "temp-1"},
			{ID: "f1", Kind: "filter", Cond: "temperature > 0"},
			{ID: "f2", Kind: "filter", Cond: "temperature > 1"},
			{ID: "j", Kind: "join", IntervalMS: 60000, Predicate: "left.station == right.station"},
			{ID: "g", Kind: "trigger_off", IntervalMS: 60000, Cond: "temperature > 30", Targets: []string{"rain-1"}},
			{ID: "v", Kind: "virtual_property", Property: "d", Spec: "temperature * 2"},
			{ID: "w1", Kind: "sink"},
			{ID: "w2", Kind: "sink"},
		},
		Edges: []EdgeSpec{
			{From: "s1", To: "f1"}, {From: "s1", To: "w2"},
			{From: "f1", To: "j", Port: 0}, {From: "s2", To: "f2"}, {From: "f2", To: "j", Port: 1},
			{From: "j", To: "g"}, {From: "g", To: "v"}, {From: "v", To: "w1"},
		},
	})
	w := Wire(plan, 8, Hooks{})
	procs, edges := shape(w)
	if want := []string{"s1", "s2", "j", "g", "w1", "w2"}; !reflect.DeepEqual(procs, want) {
		t.Errorf("processes = %v, want %v", procs, want)
	}
	for _, e := range edges {
		to := plan.Node(e[strings.Index(e, "->")+2:])
		if _, fused := to.Op.(ops.Mapper); fused {
			t.Errorf("channel %s leads into a non-blocking operation", e)
		}
	}
	if len(edges) != 5 { // f1->j, f2->j, j->g, v->w1, s1->w2
		t.Errorf("channel edges = %v, want 5", edges)
	}
	if got := []string{w.in["j"][0].Name, w.in["j"][1].Name}; !reflect.DeepEqual(got, []string{"f1->j", "f2->j"}) {
		t.Errorf("join inputs in port order = %v", got)
	}
}

func TestWireNodeFeedingBothPortsOfAJoin(t *testing.T) {
	plan := mustPlan(t, &Spec{
		Name: "selfjoin",
		Nodes: []NodeSpec{
			{ID: "s", Kind: "source", Sensor: "temp-1"},
			{ID: "j", Kind: "join", IntervalMS: 60000, Predicate: "left.temperature < right.temperature"},
			{ID: "w", Kind: "sink"},
		},
		Edges: []EdgeSpec{{From: "s", To: "j", Port: 0}, {From: "s", To: "j", Port: 1}, {From: "j", To: "w"}},
	})
	var ports []int
	w := Wire(plan, 8, Hooks{Edge: func(from, to *PlanNode, port int) func(*stt.Tuple) {
		if to.ID == "j" {
			ports = append(ports, port)
		}
		return nil
	}})
	if in := w.in["j"]; in[0] == nil || in[1] == nil || in[0] == in[1] {
		t.Fatalf("join inputs = %v, want two distinct channels", in)
	}
	if !reflect.DeepEqual(ports, []int{0, 1}) {
		t.Errorf("edges into the join claimed ports %v, want 0 then 1", ports)
	}
	res, err := Debug(plan, map[string][]*stt.Tuple{"s": {mkTemp(0, 20, "a"), mkTemp(time.Second, 30, "b")}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outputs["j"]) != 1 { // 20 < 30, once
		t.Errorf("self-join emitted %d tuples, want 1", len(res.Outputs["j"]))
	}
}

func TestDebugMapErrorSurfaces(t *testing.T) {
	spec := simpleSpec()
	spec.Nodes[1].Cond = "1 / (_seq - 2) < 5" // integer division by zero on the tuple with seq 2
	plan := mustPlan(t, spec)
	var sample []*stt.Tuple
	for i := 0; i < 5; i++ {
		tup := mkTemp(time.Duration(i)*time.Minute, 30, "a")
		tup.Seq = uint64(i)
		sample = append(sample, tup)
	}
	_, err := Debug(plan, map[string][]*stt.Tuple{"src": sample})
	if err == nil || !strings.Contains(err.Error(), "node hot") || !strings.Contains(err.Error(), "division by zero") {
		t.Fatalf("Debug error = %v, want node hot's division by zero", err)
	}
}
