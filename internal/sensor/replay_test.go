package sensor

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"streamloader/internal/stt"
)

var replaySchema = stt.MustSchema([]stt.Field{
	stt.NewField("temperature", stt.KindFloat, "celsius"),
	stt.NewField("station", stt.KindString, ""),
}, stt.GranMinute, stt.SpatCellDistrict, "weather")

const replayTrace = `{"_lat":34.69,"_lon":135.5,"_source":"x","_theme":"weather","_time":"2016-03-15T00:00:00Z","station":"a","temperature":20.5}
{"_lat":34.69,"_lon":135.5,"_source":"x","_theme":"weather","_time":"2016-03-15T00:01:00Z","station":"a","temperature":21}
{"_lat":34.69,"_lon":135.5,"_source":"x","_theme":"weather","_time":"2016-03-15T00:02:00Z","station":"a","temperature":22.5}
`

func TestNewReplayParsesTrace(t *testing.T) {
	r, err := NewReplay("rep-1", replaySchema, "node-00", strings.NewReader(replayTrace))
	if err != nil {
		t.Fatal(err)
	}
	if r.ID() != "rep-1" || r.Len() != 3 {
		t.Fatalf("id=%s len=%d", r.ID(), r.Len())
	}
	if r.Period() != time.Minute {
		t.Errorf("period = %v, want 1m (median gap)", r.Period())
	}
	m := r.Meta()
	if m.Type != "replay" || m.Location.Lat != 34.69 || m.Schema != replaySchema {
		t.Errorf("meta = %+v", m)
	}
}

func TestNewReplayValidation(t *testing.T) {
	if _, err := NewReplay("", replaySchema, "n", strings.NewReader(replayTrace)); err == nil {
		t.Error("empty ID must fail")
	}
	if _, err := NewReplay("x", nil, "n", strings.NewReader(replayTrace)); err == nil {
		t.Error("nil schema must fail")
	}
	if _, err := NewReplay("x", replaySchema, "n", strings.NewReader("")); err == nil {
		t.Error("empty trace must fail")
	}
	if _, err := NewReplay("x", replaySchema, "n", strings.NewReader("{bad json")); err == nil {
		t.Error("bad JSON must fail")
	}
	if _, err := NewReplay("x", replaySchema, "n",
		strings.NewReader(`{"temperature":1,"station":"a"}`+"\n")); err == nil {
		t.Error("missing _time must fail")
	}
	if _, err := NewReplay("x", replaySchema, "n",
		strings.NewReader(`{"_time":"2016-03-15T00:00:00Z","temperature":"hot","station":"a"}`+"\n")); err == nil {
		t.Error("kind mismatch must fail")
	}
}

func TestReplayAt(t *testing.T) {
	r, err := NewReplay("rep-1", replaySchema, "node-00", strings.NewReader(replayTrace))
	if err != nil {
		t.Fatal(err)
	}
	base := time.Date(2016, 3, 15, 0, 0, 0, 0, time.UTC)

	tup := r.At(base)
	if tup.MustGet("temperature").AsFloat() != 20.5 {
		t.Errorf("reading 0 = %v", tup.Values)
	}
	if err := tup.Validate(); err != nil {
		t.Fatalf("replayed tuple invalid: %v", err)
	}
	// Mid-gap: the reading at or before.
	tup = r.At(base.Add(90 * time.Second))
	if tup.MustGet("temperature").AsFloat() != 21 {
		t.Errorf("reading at 1.5m = %v", tup.Values)
	}
	// Before the trace: first reading.
	tup = r.At(base.Add(-time.Hour))
	if tup.MustGet("temperature").AsFloat() != 20.5 {
		t.Errorf("pre-trace reading = %v", tup.Values)
	}
	// The event time is the requested time (aligned), not the recorded one.
	tup = r.At(base.Add(10 * time.Minute))
	if !tup.Time.Equal(base.Add(10 * time.Minute)) {
		t.Errorf("event time = %v", tup.Time)
	}
	// Seq increments.
	a, b := r.At(base), r.At(base)
	if b.Seq != a.Seq+1 {
		t.Error("seq must increment")
	}
}

func TestReplayCycles(t *testing.T) {
	r, err := NewReplay("rep-1", replaySchema, "node-00", strings.NewReader(replayTrace))
	if err != nil {
		t.Fatal(err)
	}
	base := time.Date(2016, 3, 15, 0, 0, 0, 0, time.UTC)
	// Span is 2 minutes + 1 minute period = 3 minute cycle: t = base+3m maps
	// back to reading 0, base+4m to reading 1.
	if got := r.At(base.Add(3 * time.Minute)).MustGet("temperature").AsFloat(); got != 20.5 {
		t.Errorf("cycle wrap = %v, want 20.5", got)
	}
	if got := r.At(base.Add(4 * time.Minute)).MustGet("temperature").AsFloat(); got != 21 {
		t.Errorf("cycle +1m = %v, want 21", got)
	}
	// Far future still works.
	if got := r.At(base.Add(31 * time.Minute)).MustGet("temperature").AsFloat(); got != 21 {
		t.Errorf("deep cycle = %v, want 21", got)
	}
}

func TestReplayUnsortedTrace(t *testing.T) {
	shuffled := `{"_lat":34.69,"_lon":135.5,"_time":"2016-03-15T00:02:00Z","station":"a","temperature":22.5}
{"_lat":34.69,"_lon":135.5,"_time":"2016-03-15T00:00:00Z","station":"a","temperature":20.5}
{"_lat":34.69,"_lon":135.5,"_time":"2016-03-15T00:01:00Z","station":"a","temperature":21}
`
	r, err := NewReplay("rep-1", replaySchema, "node-00", strings.NewReader(shuffled))
	if err != nil {
		t.Fatal(err)
	}
	base := time.Date(2016, 3, 15, 0, 0, 0, 0, time.UTC)
	if got := r.At(base).MustGet("temperature").AsFloat(); got != 20.5 {
		t.Errorf("unsorted trace: reading 0 = %v", got)
	}
	if got := r.At(base.Add(2 * time.Minute)).MustGet("temperature").AsFloat(); got != 22.5 {
		t.Errorf("unsorted trace: reading 2 = %v", got)
	}
}

func TestReplayMissingFieldsAreNull(t *testing.T) {
	trace := `{"_time":"2016-03-15T00:00:00Z","temperature":20.5}` + "\n"
	r, err := NewReplay("rep-1", replaySchema, "node-00", strings.NewReader(trace))
	if err != nil {
		t.Fatal(err)
	}
	tup := r.At(time.Date(2016, 3, 15, 0, 0, 0, 0, time.UTC))
	if !tup.MustGet("station").IsNull() {
		t.Error("missing field must replay as null")
	}
}

// TestReplayRoundTripsSlgenOutput generates a trace with a simulated sensor
// (the slgen path) and replays it: the replayed values must match the
// original generation.
func TestReplayRoundTripsSlgenOutput(t *testing.T) {
	gen := newSensor(t, TypeTemperature, 0)
	var sb strings.Builder
	from := time.Date(2016, 3, 15, 0, 0, 0, 0, time.UTC)
	var originals []*stt.Tuple
	gen.Emit(from, from.Add(10*time.Minute), func(tup *stt.Tuple) bool {
		originals = append(originals, tup)
		b, err := jsonMarshal(tup)
		if err != nil {
			t.Fatal(err)
		}
		sb.Write(b)
		sb.WriteByte('\n')
		return true
	})
	r, err := NewReplay("rep-1", gen.Schema(), "node-00", strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != len(originals) {
		t.Fatalf("replay len = %d, want %d", r.Len(), len(originals))
	}
	for i, orig := range originals {
		got := r.At(orig.Time)
		for j := range orig.Values {
			if !got.Values[j].Equal(orig.Values[j]) {
				t.Fatalf("reading %d field %d: %v != %v", i, j, got.Values[j], orig.Values[j])
			}
		}
	}
}

func jsonMarshal(v any) ([]byte, error) {
	return json.Marshal(v)
}
