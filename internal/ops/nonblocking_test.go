package ops

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"streamloader/internal/geo"
	"streamloader/internal/stream"
	"streamloader/internal/stt"
)

func TestFilter(t *testing.T) {
	op, err := NewFilter("hot", "temperature > 25", weatherSchema())
	if err != nil {
		t.Fatal(err)
	}
	if op.Kind() != KindFilter || op.Name() != "hot" {
		t.Error("identity")
	}
	if op.OutSchema() != weatherSchema() && !op.OutSchema().Compatible(weatherSchema()) {
		t.Error("filter must preserve the schema")
	}
	in := feed(weatherSchema(), []*stt.Tuple{
		wtuple(0, 20, "a"), wtuple(time.Second, 26, "b"),
		wtuple(2*time.Second, 25, "c"), wtuple(3*time.Second, 30, "d"),
	}, false)
	got := runOp(t, op, in)
	if len(got) != 2 {
		t.Fatalf("filtered %d tuples, want 2", len(got))
	}
	if got[0].MustGet("station").AsString() != "b" || got[1].MustGet("station").AsString() != "d" {
		t.Errorf("wrong survivors: %v", got)
	}
	in2, out2, dropped := op.Counters().Snapshot()
	if in2 != 4 || out2 != 2 || dropped != 2 {
		t.Errorf("counters = %d %d %d", in2, out2, dropped)
	}
}

func TestFilterCompileError(t *testing.T) {
	if _, err := NewFilter("bad", "ghost > 1", weatherSchema()); err == nil {
		t.Error("unknown field must fail at construction")
	}
	if _, err := NewFilter("bad", "temperature + 1", weatherSchema()); err == nil {
		t.Error("non-bool condition must fail at construction")
	}
}

func TestFilterPreservesWatermarks(t *testing.T) {
	op, err := NewFilter("all", "temperature > 1000", weatherSchema())
	if err != nil {
		t.Fatal(err)
	}
	in := feed(weatherSchema(), []*stt.Tuple{wtuple(0, 20, "a")}, true)
	out := stream.New("o", op.OutSchema(), 64)
	go op.Run([]*stream.Stream{in}, out)
	items := stream.CollectItems(out)
	// All tuples dropped, but the watermark and EOS must still flow.
	var wm, eos int
	for _, it := range items {
		switch it.Kind {
		case stream.ItemWatermark:
			wm++
		case stream.ItemEOS:
			eos++
		case stream.ItemTuple:
			t.Error("no tuple should survive")
		}
	}
	if wm != 1 || eos != 1 {
		t.Errorf("wm=%d eos=%d", wm, eos)
	}
}

func TestVirtualProperty(t *testing.T) {
	schema := stt.MustSchema([]stt.Field{
		stt.NewField("temperature", stt.KindFloat, "celsius"),
		stt.NewField("humidity", stt.KindFloat, "percent"),
	}, stt.GranMinute, stt.SpatCellDistrict, "weather")
	op, err := NewVirtualProperty("apparent", "apparent_temp",
		"temperature + 0.33*(humidity/100*6.105*exp(17.27*temperature/(237.7+temperature))) - 4",
		"celsius", schema)
	if err != nil {
		t.Fatal(err)
	}
	if op.Kind() != KindVirtual {
		t.Error("kind")
	}
	if op.OutSchema().IndexOf("apparent_temp") != 2 {
		t.Fatalf("extended schema: %s", op.OutSchema())
	}
	if f, _ := op.OutSchema().Lookup("apparent_temp"); f.Unit != "celsius" || f.Kind != stt.KindFloat {
		t.Error("new field metadata")
	}

	tup := &stt.Tuple{
		Schema: schema,
		Values: []stt.Value{stt.Float(30), stt.Float(70)},
		Time:   t0, Lat: 34.69, Lon: 135.5,
	}
	tup.AlignSTT()
	got := runOp(t, op, feed(schema, []*stt.Tuple{tup}, false))
	if len(got) != 1 {
		t.Fatalf("got %d tuples", len(got))
	}
	at := got[0].MustGet("apparent_temp").AsFloat()
	if at < 34 || at > 38 {
		t.Errorf("apparent temperature = %v", at)
	}
	// Original tuple untouched (operators must not mutate inputs).
	if len(tup.Values) != 2 {
		t.Error("input tuple mutated")
	}
}

func TestVirtualPropertyErrors(t *testing.T) {
	schema := weatherSchema()
	if _, err := NewVirtualProperty("v", "x", "ghost + 1", "", schema); err == nil {
		t.Error("bad spec must fail")
	}
	if _, err := NewVirtualProperty("v", "temperature", "1 + 1", "", schema); err == nil {
		t.Error("duplicate property name must fail")
	}
	if _, err := NewVirtualProperty("v", "x", "null", "", schema); err == nil {
		t.Error("undetermined kind must fail")
	}
}

func TestCullerRate(t *testing.T) {
	for _, rate := range []float64{0, 0.25, 0.5, 0.9, 1} {
		c := newCuller(rate)
		kept := 0
		const n = 10000
		for i := 0; i < n; i++ {
			if c.keep() {
				kept++
			}
		}
		want := float64(n) * (1 - rate)
		if math.Abs(float64(kept)-want) > 1 {
			t.Errorf("rate %v: kept %d, want %v", rate, kept, want)
		}
	}
}

// Property: the culler keeps exactly ⌊n(1-r)⌋ or ⌈n(1-r)⌉ of any run.
func TestQuickCullerDeterministicFraction(t *testing.T) {
	f := func(n uint16, r8 uint8) bool {
		rate := float64(r8%101) / 100
		c := newCuller(rate)
		kept := 0
		for i := 0; i < int(n); i++ {
			if c.keep() {
				kept++
			}
		}
		exact := float64(n) * (1 - rate)
		return float64(kept) >= math.Floor(exact)-1 && float64(kept) <= math.Ceil(exact)+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestCullTime(t *testing.T) {
	// Cull 50% of tuples in [t0+10s, t0+20s]; outside passes through.
	op, err := NewCullTime("ct", 0.5, t0.Add(10*time.Second), t0.Add(20*time.Second), weatherSchema())
	if err != nil {
		t.Fatal(err)
	}
	var tuples []*stt.Tuple
	for i := 0; i < 30; i++ {
		tuples = append(tuples, wtuple(time.Duration(i)*time.Second, 20, "s"))
	}
	got := runOp(t, op, feed(weatherSchema(), tuples, false))
	// 30 tuples: 19 outside ([0,9] and [21,29]), 11 inside [10,20] culled to ~5.
	inside := 0
	for _, tup := range got {
		off := tup.Time.Sub(t0)
		if off >= 10*time.Second && off <= 20*time.Second {
			inside++
		}
	}
	if inside < 5 || inside > 6 {
		t.Errorf("kept %d inside the interval, want 5-6", inside)
	}
	if len(got)-inside != 19 {
		t.Errorf("outside tuples = %d, want 19 untouched", len(got)-inside)
	}
}

func TestCullTimeValidation(t *testing.T) {
	if _, err := NewCullTime("x", -0.1, t0, t0.Add(time.Second), weatherSchema()); err == nil {
		t.Error("negative rate must fail")
	}
	if _, err := NewCullTime("x", 1.1, t0, t0.Add(time.Second), weatherSchema()); err == nil {
		t.Error("rate > 1 must fail")
	}
	if _, err := NewCullTime("x", 0.5, t0.Add(time.Second), t0, weatherSchema()); err == nil {
		t.Error("inverted interval must fail")
	}
}

func TestCullSpace(t *testing.T) {
	area := geo.NewRect(geo.Point{Lat: 34.0, Lon: 135.0}, geo.Point{Lat: 35.0, Lon: 136.0})
	op, err := NewCullSpace("cs", 0.9, area, weatherSchema())
	if err != nil {
		t.Fatal(err)
	}
	var tuples []*stt.Tuple
	for i := 0; i < 100; i++ {
		tup := wtuple(time.Duration(i)*time.Second, 20, "in-area") // 34.69,135.50 inside
		tuples = append(tuples, tup)
	}
	// Plus 10 outside the area.
	for i := 0; i < 10; i++ {
		tup := wtuple(time.Duration(100+i)*time.Second, 20, "outside")
		tup.Lat, tup.Lon = 36.0, 140.0
		tuples = append(tuples, tup)
	}
	got := runOp(t, op, feed(weatherSchema(), tuples, false))
	insideKept, outsideKept := 0, 0
	for _, tup := range got {
		if tup.MustGet("station").AsString() == "outside" {
			outsideKept++
		} else {
			insideKept++
		}
	}
	if insideKept != 10 {
		t.Errorf("inside kept = %d, want 10 (r=0.9 of 100)", insideKept)
	}
	if outsideKept != 10 {
		t.Errorf("outside kept = %d, want all 10", outsideKept)
	}
}

func TestCullSpaceValidation(t *testing.T) {
	area := geo.NewRect(geo.Point{}, geo.Point{Lat: 1, Lon: 1})
	if _, err := NewCullSpace("x", 2, area, weatherSchema()); err == nil {
		t.Error("rate > 1 must fail")
	}
	bad := geo.Rect{Min: geo.Point{Lat: 99}, Max: geo.Point{Lat: 100}}
	if _, err := NewCullSpace("x", 0.5, bad, weatherSchema()); err == nil {
		t.Error("invalid area must fail")
	}
}

func TestCullRateOne_DropsEverythingInside(t *testing.T) {
	op, err := NewCullTime("all", 1.0, t0, t0.Add(time.Hour), weatherSchema())
	if err != nil {
		t.Fatal(err)
	}
	var tuples []*stt.Tuple
	for i := 0; i < 50; i++ {
		tuples = append(tuples, wtuple(time.Duration(i)*time.Second, 20, "s"))
	}
	got := runOp(t, op, feed(weatherSchema(), tuples, false))
	if len(got) != 0 {
		t.Errorf("r=1 must drop everything in the interval, kept %d", len(got))
	}
}

// Map is the operation; Run only drives it from a stream. Both count.
func TestMapIsWhatRunApplies(t *testing.T) {
	filter, err := NewFilter("hot", "temperature > 25", weatherSchema())
	if err != nil {
		t.Fatal(err)
	}
	vp, err := NewVirtualProperty("vp", "double", "temperature * 2", "", weatherSchema())
	if err != nil {
		t.Fatal(err)
	}
	var _ = []Mapper{filter, vp, &Transform{}, &CullTime{}, &CullSpace{}}

	cold, hot := wtuple(0, 20, "a"), wtuple(time.Second, 30, "b")
	if res, err := filter.Map(cold); res != nil || err != nil {
		t.Errorf("Map(cold) = %v, %v, want dropped", res, err)
	}
	if res, err := filter.Map(hot); res != hot || err != nil {
		t.Errorf("Map(hot) = %v, %v, want the tuple itself", res, err)
	}
	if in, out, dropped := filter.Counters().Snapshot(); in != 2 || out != 1 || dropped != 1 {
		t.Errorf("filter counters after two Maps = %d %d %d", in, out, dropped)
	}
	ext, err := vp.Map(hot)
	if err != nil || ext.MustGet("double").AsFloat() != 60 || ext.Schema != vp.OutSchema() {
		t.Errorf("virtual property Map = %v, %v", ext, err)
	}
	if len(hot.Values) != 2 {
		t.Error("Map must not modify its input: the tuple may fan out to other consumers")
	}
}

func TestMapErrorNamesTheOperation(t *testing.T) {
	op, err := NewFilter("ratio", "1 / (_seq - 1) < 5", weatherSchema())
	if err != nil {
		t.Fatal(err)
	}
	bad := wtuple(0, 20, "a")
	bad.Seq = 1
	if _, err := op.Map(bad); err == nil || !strings.Contains(err.Error(), "ratio: ") {
		t.Fatalf("Map error = %v, want it to name the operation", err)
	}
	if in, out, dropped := op.Counters().Snapshot(); in != 1 || out != 0 || dropped != 0 {
		t.Errorf("counters after a failed Map = %d %d %d, want 1 0 0", in, out, dropped)
	}
	// Run ends on the error and still closes its output.
	in := feed(weatherSchema(), []*stt.Tuple{wtuple(0, 20, "a"), bad, wtuple(time.Second, 20, "c")}, false)
	out := stream.New("o", op.OutSchema(), 8)
	if err := op.Run([]*stream.Stream{in}, out); err == nil {
		t.Fatal("Run must return the Map error")
	}
	if got := stream.Collect(out); len(got) != 1 {
		t.Errorf("Run emitted %d tuples before the failure, want 1", len(got))
	}
	in.Drain()
}
