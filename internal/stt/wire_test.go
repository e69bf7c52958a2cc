package stt

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"time"
)

// Map is the reference for AppendJSON: the generic-map rendering the HTTP
// API handed to encoding/json before the wire encoder existed. A payload
// field named like a meta key loses to it.
func (t *Tuple) Map() map[string]any {
	m := make(map[string]any, t.Schema.NumFields()+5)
	for i, v := range t.Values {
		m[t.Schema.Field(i).Name] = v.GoValue()
	}
	m["_time"] = t.Time.UTC().Format(time.RFC3339Nano)
	m["_lat"] = t.Lat
	m["_lon"] = t.Lon
	if t.Theme != "" {
		m["_theme"] = t.Theme
	}
	if t.Source != "" {
		m["_source"] = t.Source
	}
	return m
}

// checkWire asserts AppendJSON and MarshalJSON both equal the reference,
// and that AppendJSON really appends.
func checkWire(t *testing.T, tup *Tuple) {
	t.Helper()
	want, err := json.Marshal(tup.Map())
	if err != nil {
		t.Fatalf("reference encoding failed: %v", err)
	}
	if got := tup.AppendJSON(nil); !bytes.Equal(got, want) {
		t.Fatalf("AppendJSON differs from json.Marshal(Map()):\n got %s\nwant %s", got, want)
	}
	if got := tup.AppendJSON([]byte("prefix")); !bytes.Equal(got, append([]byte("prefix"), want...)) {
		t.Fatalf("AppendJSON clobbered its destination: %s", got)
	}
	if got, err := json.Marshal(tup); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("json.Marshal(tuple) = %s, %v\nwant %s", got, err, want)
	}
}

func TestTupleAppendJSONMatchesEncodingJSON(t *testing.T) {
	allKinds := MustSchema([]Field{
		NewField("b", KindBool, ""),
		NewField("i", KindInt, ""),
		NewField("f", KindFloat, ""),
		NewField("s", KindString, ""),
		NewField("t", KindTime, ""),
		NewField("n", KindString, ""),
	}, GranSecond, SpatPoint, "weather")
	when := time.Date(2016, 3, 15, 9, 41, 7, 123456789, time.FixedZone("JST", 9*3600))
	base := func() *Tuple {
		return &Tuple{
			Schema: allKinds,
			Values: []Value{Bool(true), Int(42), Float(25.5), String("osaka-1"), Time(when), Null()},
			Time:   when, Lat: 34.7, Lon: 135.5, Theme: "weather", Source: "sensor-1",
		}
	}
	with := func(field int, v Value) *Tuple {
		tup := base()
		tup.Values[field] = v
		return tup
	}

	cases := map[string]*Tuple{
		"every kind":  base(),
		"bool false":  with(0, Bool(false)),
		"int64 min":   with(1, Int(math.MinInt64)),
		"int64 max":   with(1, Int(math.MaxInt64)),
		"zero time":   with(4, Time(time.Time{})),
		"whole time":  with(4, Time(time.Date(2016, 3, 15, 0, 0, 0, 0, time.UTC))),
		"all null":    {Schema: allKinds, Values: make([]Value, 6), Time: when},
		"short tuple": {Schema: allKinds, Values: []Value{Bool(true), Int(1)}, Time: when},
	}
	for name, f := range map[string]float64{
		"zero": 0, "negative zero": math.Copysign(0, -1), "integral": 15, "negative": -273.15,
		"1e-7": 1e-7, "below 1e-6": 9.99999e-7, "1e-6": 1e-6, "above 1e-6": 1.000001e-6,
		"below 1e21": 9.99999e20, "1e21": 1e21, "1e22": 1e22, "-1e21": -1e21, "-1e-7": -1e-7,
		"two-digit negative exponent": 1.5e-10, "three-digit exponent": 1e-300,
		"largest": math.MaxFloat64, "smallest": math.SmallestNonzeroFloat64,
		"shortest round trip": 0.1 + 0.2,
	} {
		cases["float "+name] = with(2, Float(f))
		coord := base()
		coord.Lat, coord.Lon = f, -f
		cases["coordinate "+name] = coord
	}
	for name, s := range map[string]string{
		"empty": "", "html": `<script>&"quoted"\</script>`, "escapes": "\b\f\n\r\t",
		"control": "\x00\x01\x1f", "del": "\x7f", "multibyte": "大阪 température",
		"invalid utf-8": "a\xffb\xc3", "truncated rune": "\xe2\x80", "line separators": "a\u2028b\u2029c",
		"replacement char": "\ufffd", "four-byte rune": "🌧",
	} {
		cases["string "+name] = with(3, String(s))
		tags := base()
		tags.Theme, tags.Source = s, s
		cases["theme and source "+name] = tags
	}

	// Keys: ones that sort around the meta keys, one needing escapes, and
	// fields named like every meta key.
	odd := MustSchema([]Field{
		NewField("zeta", KindInt, ""),
		NewField("_", KindInt, ""),
		NewField("_m", KindInt, ""),
		NewField("_timf", KindInt, ""),
		NewField("Alpha", KindInt, ""),
		NewField(`a"<b>&\`+"\n\xff\u2028", KindInt, ""),
	}, GranSecond, SpatPoint)
	cases["odd keys"] = &Tuple{Schema: odd, Time: when, Source: "s",
		Values: []Value{Int(1), Int(2), Int(3), Int(4), Int(5), Int(6)}}
	shadow := MustSchema([]Field{
		NewField("_time", KindString, ""),
		NewField("_lat", KindString, ""),
		NewField("_lon", KindString, ""),
		NewField("_theme", KindString, ""),
		NewField("_source", KindString, ""),
		NewField("x", KindInt, ""),
	}, GranSecond, SpatPoint)
	shadowed := []Value{String("ft"), String("fa"), String("fo"), String("fth"), String("fs"), Int(7)}
	cases["fields named like meta keys"] = &Tuple{Schema: shadow, Values: shadowed,
		Time: when, Lat: 1, Lon: 2, Theme: "th", Source: "src"}
	// Map only sets _theme and _source when non-empty, so there the field
	// of that name shows through.
	cases["meta-named fields, empty theme and source"] = &Tuple{Schema: shadow, Values: shadowed, Time: when}
	cases["no fields"] = &Tuple{Schema: MustSchema(nil, GranSecond, SpatPoint), Time: when}

	for name, tup := range cases {
		t.Run(name, func(t *testing.T) { checkWire(t, tup) })
	}
}

// TestTupleAppendJSONNonFinite pins the one deliberate difference from
// encoding/json, which fails the whole document on such a value.
func TestTupleAppendJSONNonFinite(t *testing.T) {
	s := MustSchema([]Field{NewField("v", KindFloat, "")}, GranSecond, SpatPoint)
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		tup := &Tuple{Schema: s, Values: []Value{Float(f)}, Time: time.Unix(0, 0), Lat: f, Lon: 1}
		if _, err := json.Marshal(tup.Map()); err == nil {
			t.Fatalf("encoding/json accepted %v; the reference no longer refuses it", f)
		}
		got := string(tup.AppendJSON(nil))
		want := `{"_lat":null,"_lon":1,"_time":"1970-01-01T00:00:00Z","v":null}`
		if got != want {
			t.Errorf("AppendJSON(%v) = %s, want %s", f, got, want)
		}
		if !json.Valid([]byte(got)) {
			t.Errorf("AppendJSON(%v) is not valid JSON: %s", f, got)
		}
	}
}

// FuzzTupleAppendJSON drives one value of every kind, the coordinates, the
// tags and a field name through both encoders.
func FuzzTupleAppendJSON(f *testing.F) {
	f.Add("station", "osaka-1", "weather", "sensor-1", int64(42), 25.5, 34.7, 135.5, true, int64(1458034867), int64(123456789))
	f.Add("_time", "<&>\"\\\x00", "", "", int64(math.MinInt64), 1e-7, math.Copysign(0, -1), 1e21, false, int64(-1), int64(0))
	f.Add("a\xffb\u2028", "\xe2\x80", "\u2029", "\x1f", int64(0), 1e-6, 9.99999e20, -1e-300, true, int64(253402300799), int64(999999999))
	f.Add("_source", "", "t", "", int64(-1), 5e-324, 1.7976931348623157e308, 0.30000000000000004, false, int64(0), int64(1))
	f.Fuzz(func(t *testing.T, name, str, theme, source string, i int64, fl, lat, lon float64, b bool, sec, nsec int64) {
		for _, x := range []float64{fl, lat, lon} {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				t.Skip("non-finite: encoding/json has no rendering to compare with")
			}
		}
		s, err := NewSchema([]Field{
			NewField("b", KindBool, ""), NewField("i", KindInt, ""), NewField("f", KindFloat, ""),
			NewField("t", KindTime, ""), NewField("n", KindInt, ""), NewField(name, KindString, ""),
		}, GranSecond, SpatPoint)
		if err != nil {
			t.Skip("fuzzed field name is empty or taken")
		}
		when := time.Unix(sec, nsec)
		checkWire(t, &Tuple{
			Schema: s, Values: []Value{Bool(b), Int(i), Float(fl), Time(when), Null(), String(str)},
			Time: when, Lat: lat, Lon: lon, Theme: theme, Source: source,
		})
	})
}
