package ops

import (
	"testing"
	"time"

	"streamloader/internal/stream"
	"streamloader/internal/stt"
)

// base time for all operator tests.
var t0 = time.Date(2016, 3, 15, 9, 0, 0, 0, time.UTC)

func weatherSchema() *stt.Schema {
	return stt.MustSchema([]stt.Field{
		stt.NewField("temperature", stt.KindFloat, "celsius"),
		stt.NewField("station", stt.KindString, ""),
	}, stt.GranSecond, stt.SpatCellDistrict, "weather")
}

// wtuple builds a weather tuple at t0+offset with the given temperature.
func wtuple(offset time.Duration, temp float64, station string) *stt.Tuple {
	tup := &stt.Tuple{
		Schema: weatherSchema(),
		Values: []stt.Value{stt.Float(temp), stt.String(station)},
		Time:   t0.Add(offset),
		Lat:    34.69, Lon: 135.50,
		Theme:  "weather",
		Source: station,
	}
	return tup.AlignSTT()
}

// feed pushes tuples followed by a final watermark and EOS into a fresh
// stream, returning it. A watermark is inserted after every tuple when
// perTupleWM is set (sources do this in live mode).
func feed(schema *stt.Schema, tuples []*stt.Tuple, perTupleWM bool) *stream.Stream {
	in := stream.New("test-in", schema, len(tuples)*2+4)
	go func() {
		var last time.Time
		for _, t := range tuples {
			in.Send(t)
			if perTupleWM {
				in.SendWatermark(t.Time)
			}
			if t.Time.After(last) {
				last = t.Time
			}
		}
		if !perTupleWM && !last.IsZero() {
			in.SendWatermark(last)
		}
		in.Close()
	}()
	return in
}

// runOp executes the operator over the input streams and collects its
// output tuples, failing the test on operator error.
func runOp(t *testing.T, op Operator, in ...*stream.Stream) []*stt.Tuple {
	t.Helper()
	out := stream.New("test-out", op.OutSchema(), 4096)
	errc := make(chan error, 1)
	go func() { errc <- op.Run(in, out) }()
	tuples := stream.Collect(out)
	if err := <-errc; err != nil {
		t.Fatalf("%s failed: %v", op.Name(), err)
	}
	return tuples
}

func TestKindBlocking(t *testing.T) {
	blocking := []Kind{KindAggregate, KindJoin, KindTriggerOn, KindTriggerOff}
	nonBlocking := []Kind{KindFilter, KindTransform, KindVirtual, KindCullTime, KindCullSpace}
	for _, k := range blocking {
		if !k.Blocking() {
			t.Errorf("%s must be blocking", k)
		}
	}
	for _, k := range nonBlocking {
		if k.Blocking() {
			t.Errorf("%s must be non-blocking", k)
		}
	}
}

func TestKindValid(t *testing.T) {
	for _, k := range []Kind{KindFilter, KindSource, KindSink, KindJoin} {
		if !k.Valid() {
			t.Errorf("%s must be valid", k)
		}
	}
	if Kind("teleport").Valid() {
		t.Error("unknown kind must be invalid")
	}
}

func TestWindowIndex(t *testing.T) {
	sec := time.Second
	if windowIndex(time.Unix(0, 0), sec) != 0 {
		t.Error("epoch window")
	}
	if windowIndex(time.Unix(1, 500e6), sec) != 1 {
		t.Error("1.5s window")
	}
	if windowIndex(time.Unix(-1, 500e6), sec) != -1 {
		t.Error("-0.5s window must floor to -1")
	}
	if windowIndex(time.Unix(-2, 0), sec) != -2 {
		t.Error("-2s window boundary")
	}
	// windowStart inverts windowIndex on boundaries.
	for _, i := range []int64{-3, -1, 0, 1, 42} {
		if got := windowIndex(windowStart(i, sec), sec); got != i {
			t.Errorf("windowIndex(windowStart(%d)) = %d", i, got)
		}
	}
}

func TestWatermarkMerger(t *testing.T) {
	m := newWatermarkMerger(2)
	if _, ok := m.combined(); ok {
		t.Error("undefined before any report")
	}
	if _, ok := m.update(0, t0); ok {
		t.Error("undefined until all inputs report")
	}
	wm, ok := m.update(1, t0.Add(time.Second))
	if !ok || !wm.Equal(t0) {
		t.Errorf("combined = %v, %v; want t0", wm, ok)
	}
	// Watermarks never regress.
	wm, ok = m.update(0, t0.Add(-time.Hour))
	if !ok || !wm.Equal(t0) {
		t.Errorf("regressed watermark changed combined: %v", wm)
	}
	// Ending an input removes it from the minimum.
	wm, ok = m.end(0)
	if !ok || !wm.Equal(t0.Add(time.Second)) {
		t.Errorf("after end combined = %v", wm)
	}
	if m.allEnded() {
		t.Error("one input still open")
	}
	wm, ok = m.end(1)
	if !ok || !m.allEnded() {
		t.Error("all ended")
	}
	if wm.Before(t0.AddDate(50, 0, 0)) {
		t.Errorf("all-ended watermark must be far in the future, got %v", wm)
	}
}

func TestCounters(t *testing.T) {
	var c Counters
	c.In.Add(3)
	c.Out.Add(2)
	c.Dropped.Add(1)
	in, out, dropped := c.Snapshot()
	if in != 3 || out != 2 || dropped != 1 {
		t.Errorf("snapshot = %d %d %d", in, out, dropped)
	}
}

func TestRunMapArity(t *testing.T) {
	f, err := NewFilter("f", "temperature > 0", weatherSchema())
	if err != nil {
		t.Fatal(err)
	}
	out := stream.New("o", f.OutSchema(), 4)
	if err := f.Run(nil, out); err == nil {
		t.Error("0 inputs must fail")
	}
}

// Run is repeatable: window caches, the late-tuple bound and the watermark
// merger belong to one run, counters to the operator.
func TestBlockingOperatorsRunAgainFromFresh(t *testing.T) {
	join, err := NewJoin("j", time.Minute, "true", weatherSchema(), weatherSchema())
	if err != nil {
		t.Fatal(err)
	}
	agg, err := NewAggregate("a", time.Minute, nil, AggCount, "", weatherSchema())
	if err != nil {
		t.Fatal(err)
	}
	act := &fakeActivator{}
	trig, err := NewTriggerOn("t", time.Minute, "temperature > 25", []string{"x"}, TriggerAny, act, nil, weatherSchema())
	if err != nil {
		t.Fatal(err)
	}
	// The second run replays the same event times: after the first run's
	// end-of-stream flush they would all be late.
	for run := 1; run <= 2; run++ {
		tuples := []*stt.Tuple{wtuple(0, 30, "a"), wtuple(time.Second, 31, "b")}
		if got := runOp(t, join, feed(weatherSchema(), tuples, true), feed(weatherSchema(), tuples, true)); len(got) != 4 {
			t.Errorf("run %d: join emitted %d tuples, want 4", run, len(got))
		}
		if got := runOp(t, agg, feed(weatherSchema(), tuples, true)); len(got) != 1 || got[0].MustGet("count").AsInt() != 2 {
			t.Errorf("run %d: aggregate emitted %v, want one count of 2", run, got)
		}
		if got := runOp(t, trig, feed(weatherSchema(), tuples, true)); len(got) != 2 {
			t.Errorf("run %d: trigger passed %d tuples, want 2", run, len(got))
		}
		if in, out, dropped := join.Counters().Snapshot(); in != uint64(4*run) || out != uint64(4*run) || dropped != 0 {
			t.Errorf("run %d: join counters = %d %d %d", run, in, out, dropped)
		}
	}
	if len(act.activated) != 2 {
		t.Errorf("trigger fired %d times over two runs, want 2", len(act.activated))
	}
}
