package executor

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"streamloader/internal/dataflow"
	"streamloader/internal/geo"
	"streamloader/internal/ops"
	"streamloader/internal/sensor"
)

// minuteSpec is a temperature sensor ticking at its schema's granularity,
// so event times are the ticks.
func minuteSpec(id string, seed int64) sensor.Spec {
	s := tempSpec(id)
	s.Seed = seed
	s.FrequencyHz = 1.0 / 60
	return s
}

func rendered(d *Deployment, sinkID string) []string {
	var out []string
	for _, tup := range d.Collected(sinkID) {
		out = append(out, fmt.Sprintf("%s seq=%d", tup, tup.Seq))
	}
	return out
}

// A deployment that runs a second range must give what a fresh deployment
// gives on that range: the end-of-stream flush of the first run used to
// leave the join's late-tuple bound and its watermark merger at end-of-time,
// and every tuple of the second run was dropped as late.
func TestSecondRunEqualsFreshDeployment(t *testing.T) {
	spec := &dataflow.Spec{
		Name: "rerun",
		Nodes: []dataflow.NodeSpec{
			{ID: "a", Kind: "source", Sensor: "temp-1"},
			{ID: "b", Kind: "source", Sensor: "temp-2"},
			{ID: "j", Kind: "join", IntervalMS: 300000, Predicate: "left.temperature <= right.temperature"},
			{ID: "g", Kind: "aggregate", IntervalMS: 180000, GroupBy: []string{"station"}, Func: "AVG", Attr: "temperature"},
			{ID: "hot", Kind: "trigger_off", IntervalMS: 240000, Cond: "temperature > 10", Targets: []string{"temp-idle"}},
			{ID: "wj", Kind: "sink", Sink: "collect"},
			{ID: "wg", Kind: "sink", Sink: "collect"},
			{ID: "wt", Kind: "sink", Sink: "collect"},
		},
		Edges: []dataflow.EdgeSpec{
			{From: "a", To: "j", Port: 0}, {From: "b", To: "j", Port: 1}, {From: "j", To: "wj"},
			{From: "a", To: "g"}, {From: "g", To: "wg"},
			{From: "b", To: "hot"}, {From: "hot", To: "wt"},
		},
	}
	sensors := []sensor.Spec{minuteSpec("temp-1", 1), minuteSpec("temp-2", 2), minuteSpec("temp-idle", 3)}
	half, end := t0.Add(30*time.Minute), t0.Add(time.Hour)

	r := newRig(t, 2, sensors)
	d, err := r.exec.Deploy(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Undeploy()
	if err := d.Run(t0, half); err != nil {
		t.Fatal(err)
	}
	first := map[string]int{}
	for _, sink := range []string{"wj", "wg", "wt"} {
		first[sink] = len(d.Collected(sink))
		if first[sink] == 0 {
			t.Fatalf("first run delivered nothing to %s", sink)
		}
	}
	firstFires := len(d.Fires())
	if err := d.Run(half, end); err != nil {
		t.Fatal(err)
	}

	// The fresh deployment's sensors are first advanced over the first
	// range: generators carry state from reading to reading.
	fr := newRig(t, 2, sensors)
	for _, s := range fr.sensors {
		for ts := t0; ts.Before(half); ts = ts.Add(s.Period()) {
			s.At(ts)
		}
	}
	fd, err := fr.exec.Deploy(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer fd.Undeploy()
	if err := fd.Run(half, end); err != nil {
		t.Fatal(err)
	}

	for _, sink := range []string{"wj", "wg", "wt"} {
		second, fresh := rendered(d, sink)[first[sink]:], rendered(fd, sink)
		if len(fresh) == 0 {
			t.Fatalf("fresh deployment delivered nothing to %s", sink)
		}
		if strings.Join(second, "\n") != strings.Join(fresh, "\n") {
			t.Errorf("sink %s: second run delivered %d tuples, a fresh deployment %d:\nsecond %v\nfresh  %v",
				sink, len(second), len(fresh), second, fresh)
		}
	}
	if second, fresh := d.Fires()[firstFires:], fd.Fires(); fmt.Sprint(second) != fmt.Sprint(fresh) {
		t.Errorf("trigger decisions: second run %v, fresh deployment %v", second, fresh)
	}
	if _, _, dropped := d.plan.Node("j").Op.Counters().Snapshot(); dropped != 0 {
		t.Errorf("join dropped %d tuples as late", dropped)
	}
}

// A non-blocking operation that fails on a tuple fails the run as a blocking
// operation's error does: Run returns it, the sources stop, everything
// emitted before the failure is delivered, and no goroutine is left behind —
// whether the operation is fused into a source or into a blocking
// operation's process.
func TestMapErrorFailsRun(t *testing.T) {
	// Integer division by zero on the tuple with sequence number 20.
	failing := dataflow.NodeSpec{ID: "bad", Kind: "filter", Cond: "1 / (_seq - 20) < 5"}
	for _, tc := range []struct {
		name  string
		nodes []dataflow.NodeSpec
		chain []string
	}{
		{"in a source's process", []dataflow.NodeSpec{failing}, []string{"src", "bad", "out"}},
		{"behind a blocking operation", []dataflow.NodeSpec{
			{ID: "gate", Kind: "trigger_off", IntervalMS: 5000, Cond: "temperature > 1000", Targets: []string{"temp-1"}},
			failing,
			{ID: "after", Kind: "virtual_property", Property: "twice", Spec: "temperature * 2"},
		}, []string{"src", "gate", "bad", "after", "out"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t, 2, []sensor.Spec{tempSpec("temp-1")})
			spec := &dataflow.Spec{Name: "failing", Nodes: append([]dataflow.NodeSpec{
				{ID: "src", Kind: "source", Sensor: "temp-1"},
				{ID: "out", Kind: "sink", Sink: "collect"},
			}, tc.nodes...)}
			for i := 0; i+1 < len(tc.chain); i++ {
				spec.Edges = append(spec.Edges, dataflow.EdgeSpec{From: tc.chain[i], To: tc.chain[i+1]})
			}
			d, err := r.exec.Deploy(spec)
			if err != nil {
				t.Fatal(err)
			}
			defer d.Undeploy()
			before := runtime.NumGoroutine()

			err = d.Run(t0, t0.Add(time.Hour)) // 3600 ticks, were the run not to fail
			if err == nil || !strings.Contains(err.Error(), "operation bad") || !strings.Contains(err.Error(), "division by zero") {
				t.Fatalf("Run error = %v, want operation bad's division by zero", err)
			}
			if emitted, _, _ := d.srcCtrs["src"].Snapshot(); emitted >= 3600 {
				t.Errorf("source emitted all %d readings: the failure did not stop it", emitted)
			}
			got := d.Collected("out")
			if len(got) != 20 {
				t.Errorf("delivered %d tuples, want the 20 that preceded the failure", len(got))
			}
			for _, tup := range got {
				if tup.Seq >= 20 {
					t.Errorf("tuple seq %d delivered after the operation failed", tup.Seq)
				}
			}
			if in, out, _ := d.plan.Node("bad").Op.Counters().Snapshot(); in != 21 || out != 20 {
				t.Errorf("failed operation counted in=%d out=%d, want 21 and 20", in, out)
			}
			// Run has waited for every goroutine it started; the last of
			// them may still be between its wg.Done and its exit.
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > before {
				t.Errorf("%d goroutines before the run, %d after", before, n)
			}
			// The deployment is still usable: the next run resumes past the
			// offending reading with the operation in working order.
			if err := d.Run(t0, t0.Add(time.Hour)); err != nil {
				t.Errorf("run after the failed one: %v", err)
			}
			if len(d.Collected("out")) <= len(got) {
				t.Error("run after the failed one delivered nothing")
			}
		})
	}
}

// A source that fans out hands the same tuple to every branch. A transform
// branch writes only its own copy, so a filter branch beside it, and the
// sink behind that filter, see the source's readings as generated, and the
// transform branch sees them converted.
func TestFanOutBranchesSeeTheSourcesValues(t *testing.T) {
	spec := &dataflow.Spec{
		Name: "fanout",
		Nodes: []dataflow.NodeSpec{
			{ID: "src", Kind: "source", Sensor: "temp-1"},
			{ID: "conv", Kind: "transform", Steps: []ops.TransformStep{
				{Op: "convert_unit", Field: "temperature", ToUnit: "fahrenheit"},
				{Op: "rename", Field: "station", NewName: "site"},
				{Op: "coarsen", SGran: "city"},
			}},
			{ID: "keep", Kind: "filter", Cond: "temperature > -100"},
			{ID: "wc", Kind: "sink", Sink: "collect"},
			{ID: "wk", Kind: "sink", Sink: "collect"},
		},
		Edges: []dataflow.EdgeSpec{
			{From: "src", To: "conv"}, {From: "src", To: "keep"},
			{From: "conv", To: "wc"}, {From: "keep", To: "wk"},
		},
	}
	r := newRig(t, 2, []sensor.Spec{minuteSpec("temp-1", 7)})
	d, err := r.exec.Deploy(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Undeploy()
	end := t0.Add(2 * time.Hour)
	if err := d.Run(t0, end); err != nil {
		t.Fatal(err)
	}
	twin, err := sensor.New(minuteSpec("temp-1", 7))
	if err != nil {
		t.Fatal(err)
	}
	kept, converted := d.Collected("wk"), d.Collected("wc")
	if len(kept) != 120 || len(converted) != 120 {
		t.Fatalf("branches delivered %d and %d tuples, want 120 each", len(kept), len(converted))
	}
	for i := range kept {
		want := twin.At(t0.Add(time.Duration(i) * time.Minute))
		if got := kept[i]; got.Schema.String() != want.Schema.String() || got.String() != want.String() {
			t.Fatalf("filter branch tuple %d = %v over %v, the source emitted %v over %v",
				i, got, got.Schema, want, want.Schema)
		}
		f, err := geo.ConvertUnit(want.Values[0].AsFloat(), "celsius", "fahrenheit")
		if err != nil {
			t.Fatal(err)
		}
		if got := converted[i].MustGet("temperature").AsFloat(); got != f {
			t.Fatalf("transform branch tuple %d temperature = %v, want %v", i, got, f)
		}
	}
}
