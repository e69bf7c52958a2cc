package stt

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"strings"
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

// checkPage asserts that one PageEncoder writes tups, back to back, as the
// concatenation of their memoryless AppendJSON forms — twice over, so the
// second page starts from the first one's memory.
func checkPage(t *testing.T, tups []*Tuple) {
	t.Helper()
	var want []byte
	for _, tup := range tups {
		want = tup.AppendJSON(want)
	}
	var e PageEncoder
	for pass := 0; pass < 2; pass++ {
		got := []byte("prefix")
		for _, tup := range tups {
			got = e.AppendJSON(got, tup)
		}
		if !bytes.Equal(got[len("prefix"):], want) {
			t.Fatalf("pass %d: PageEncoder differs from AppendJSON per tuple:\n got %s\nwant %s", pass, got[len("prefix"):], want)
		}
	}
}

func TestPageEncoderMatchesAppendJSON(t *testing.T) {
	plain := MustSchema([]Field{NewField("v", KindFloat, "")}, GranSecond, SpatPoint)
	shadow := MustSchema([]Field{
		NewField("_source", KindString, ""),
		NewField("_theme", KindString, ""),
		NewField("_time", KindString, ""),
		NewField("v", KindFloat, ""),
	}, GranSecond, SpatPoint)
	when := time.Date(2016, 3, 15, 9, 41, 0, 0, time.UTC)
	at := func(lat, lon float64, tm time.Time, source, theme string) *Tuple {
		return &Tuple{Schema: plain, Values: []Value{Float(lat)}, Time: tm, Lat: lat, Lon: lon, Source: source, Theme: theme}
	}
	negZero := math.Copysign(0, -1)
	nan := math.NaN()
	// Two readings of the same instant: time.Now() carries a monotonic
	// reading, its Round(0) copy does not; Add keeps the reading.
	now := time.Now()
	shadowed := func(source, theme, fs, fth, ft string) *Tuple {
		return &Tuple{Schema: shadow, Values: []Value{String(fs), String(fth), String(ft), Float(1)},
			Time: when, Source: source, Theme: theme}
	}

	cases := map[string][]*Tuple{
		"lat 0 then -0": {at(0, 1, when, "s", "t"), at(negZero, 1, when, "s", "t"), at(0, 1, when, "s", "t")},
		"lon -0 then 0": {at(1, negZero, when, "s", "t"), at(1, 0, when, "s", "t")},
		"non-finite": {
			at(nan, math.Inf(1), when, "s", "t"), at(nan, math.Inf(1), when, "s", "t"),
			at(math.Inf(-1), nan, when, "s", "t"), at(math.Inf(1), math.Inf(-1), when, "s", "t"),
			at(1, 2, when, "s", "t"),
		},
		"one instant in different locations": {
			at(1, 2, when, "s", "t"),
			at(1, 2, when.In(time.FixedZone("JST", 9*3600)), "s", "t"),
			at(1, 2, when.In(time.FixedZone("", -3*3600-1800)), "s", "t"),
			at(1, 2, when.Add(time.Nanosecond).In(time.FixedZone("JST", 9*3600)), "s", "t"),
		},
		"monotonic readings": {
			at(1, 2, now, "s", "t"), at(1, 2, now.Round(0), "s", "t"),
			at(1, 2, now.Add(time.Millisecond), "s", "t"), at(1, 2, now.Add(time.Millisecond).Round(0), "s", "t"),
			at(1, 2, now, "s", "t"),
		},
		"zero time": {at(1, 2, time.Time{}, "s", "t"), at(1, 2, time.Time{}, "s", "t"), at(1, 2, when, "s", "t")},
		"sources and themes change": {
			at(1, 2, when, "a", "x"), at(1, 2, when, "a", "x"), at(1, 2, when, "b", "x"),
			at(1, 2, when, "b", "y"), at(1, 2, when, "", ""), at(1, 2, when, "a", "x"),
			at(1, 2, when, "<&>", " "), at(1, 2, when, "<&>", " "),
		},
		// An empty coordinate hands the key to the payload field of that
		// name; the field's value must never be taken for the coordinate's,
		// nor the other way round.
		"empty source and theme beside fields named like them": {
			shadowed("src", "th", "f1", "g1", "h1"),
			shadowed("", "", "f1", "g1", "h1"),
			shadowed("", "", "f2", "g2", "h2"),
			shadowed("f2", "g2", "f2", "g2", "h2"),
			shadowed("", "", "src", "th", "h3"),
			shadowed("src", "th", "src", "th", "h3"),
			shadowed("", "th", "x", "y", "z"),
			shadowed("src", "", "x", "y", "z"),
		},
		// _time always has its coordinate, so the field of that name never
		// shows; a changing field value must not disturb the memory.
		"payload field named _time": {
			shadowed("s", "t", "a", "b", "2016-03-15T09:41:00Z"),
			shadowed("s", "t", "a", "b", "other"),
			{Schema: shadow, Values: []Value{String("a"), String("b"), String("c"), Float(2)},
				Time: when.Add(time.Minute), Source: "s", Theme: "t"},
		},
		"short tuple beside meta-named fields": {
			{Schema: shadow, Values: []Value{String("only")}, Time: when},
			{Schema: shadow, Values: []Value{String("only")}, Time: when, Source: "s"},
			shadowed("", "", "f", "g", "h"),
		},
		"mixed schemas": {
			at(1, 2, when, "s", "t"), shadowed("s", "t", "a", "b", "c"),
			at(1, 2, when, "s", "t"), shadowed("", "", "s", "t", "c"),
		},
	}
	for name, tups := range cases {
		t.Run(name, func(t *testing.T) { checkPage(t, tups) })
	}
}

// FuzzPageEncoder drives a run of tuples whose coordinates and payload
// values, by the bits of pick and vpick, repeat or change from event to
// event, through one PageEncoder and through AppendJSON tuple by tuple. Two
// schemas that share field names, with different kinds and positions, take
// turns; a fuzzed field name can shadow any meta key. The coordinates may be
// non-finite, -0, empty or in any zone; the payload values are drawn from
// pools that hold both signs of zero, several NaN bit patterns, ±Inf, the
// float format's 1e-6 and 1e21 boundaries, extreme ints, times in different
// zones and strings with escapes and invalid UTF-8.
func FuzzPageEncoder(f *testing.F) {
	f.Add("v", 34.7, 135.5, int64(1458034860), int64(0), int32(0), "osaka-1", "osaka-2", "weather", uint64(0x5a5a), 25.5, int64(42), uint64(0x3c3c))
	f.Add("_source", 0.0, math.Copysign(0, -1), int64(-1), int64(999999999), int32(9*3600), "", "s", "", uint64(0xf0f0), -0.1, int64(-1), uint64(0x0123456789abcdef))
	f.Add("_theme", math.NaN(), math.Inf(-1), int64(0), int64(1), int32(-12345), "<&>", "", " ", uint64(0x1234), math.Inf(1), int64(math.MinInt64), ^uint64(0))
	f.Add("_time", 1e-7, 1e21, int64(253402300799), int64(5), int32(1), "a\xffb", "a\xffb", "t", ^uint64(0), 9.99999e-7, int64(math.MaxInt64), uint64(0xdeadbeef))
	f.Add("label", 1.5, 2.5, int64(1458034860), int64(0), int32(3600), "a", "b", "c", uint64(0), 1e-300, int64(7), uint64(0x1111111111111111))
	f.Fuzz(func(t *testing.T, name string, lat, lon float64, sec, nsec int64, zone int32,
		src1, src2, theme string, pick uint64, fl float64, i int64, vpick uint64) {
		one, err := NewSchema([]Field{
			NewField("f", KindFloat, ""), NewField(name, KindString, ""), NewField("i", KindInt, ""),
			NewField("b", KindBool, ""), NewField("t", KindTime, ""),
		}, GranSecond, SpatPoint)
		if err != nil {
			t.Skip("fuzzed field name is empty or taken")
		}
		// The same names at other positions with other kinds.
		two := MustSchema([]Field{
			NewField("t", KindString, ""), NewField("i", KindFloat, ""), NewField("f", KindTime, ""),
			NewField("b", KindInt, ""),
		}, GranSecond, SpatPoint)
		base := time.Unix(sec, nsec)
		floats := []Value{
			Float(fl), Float(-fl), Float(lat), Float(0), Float(math.Copysign(0, -1)), Float(math.NaN()),
			Float(math.Float64frombits(0x7ff8000000000001)), Float(math.Float64frombits(0xfff0000000000001)),
			Float(math.Inf(1)), Float(math.Inf(-1)), Float(1e-7), Float(9.99999e-7), Float(1e-6),
			Float(1e21), Float(9.99999e20), Float(1.5),
		}
		ints := []Value{Int(i), Int(-i), Int(0), Int(-1), Int(math.MinInt64), Int(math.MaxInt64), Int(i ^ 1), Int(100)}
		bools := []Value{Bool(true), Bool(false), Null(), Bool(true)}
		times := []Value{
			Time(base), Time(base.In(time.FixedZone("", int(zone%(18*3600))))), Time(base.Add(1)),
			Time(time.Time{}), Time(base.In(time.FixedZone("JST", 9*3600))), Time(base.Add(-time.Hour)),
			Null(), Time(base),
		}
		strs := []Value{
			String(src1), String(src2), String(theme), String(""), String("<&>\"\\\n\x00"),
			String("a\xffb\xc3"), String("\u2028\u2029"), String(src1 + src2),
		}
		from := func(pool []Value, sel uint64) Value { return pool[sel%uint64(len(pool))] }
		tups := make([]*Tuple, 32)
		for n := range tups {
			b := pick >> (4 * (n % 16))
			v := vpick >> (4 * (n % 16))
			if n >= 16 {
				v = bits.RotateLeft64(vpick, n) // a second half drawn differently
			}
			tup := &Tuple{Schema: one, Time: base, Lat: lat, Lon: lon, Source: src1, Theme: theme}
			if v&1 != 0 {
				tup.Schema = two
				tup.Values = []Value{from(strs, v>>1), from(floats, v>>2), from(times, v>>3), from(ints, v>>4)}
			} else {
				tup.Values = []Value{from(floats, v>>1), from(strs, v>>2), from(ints, v>>3), from(bools, v>>4), from(times, v>>5)}
			}
			if b&1 != 0 {
				tup.Lat, tup.Lon = lon, lat
			}
			if b&2 != 0 {
				tup.Source = src2
			}
			if b&4 != 0 {
				tup.Time = base.In(time.FixedZone("", int(zone%(18*3600))))
			}
			if b&8 != 0 {
				tup.Time, tup.Theme = base.Add(time.Duration(n)), ""
			}
			tups[n] = tup
		}
		checkPage(t, tups)
	})
}

// TestPageEncoderMemoLimits fills the memo past what it holds: more
// distinct values than a table has entries, values that share an entry,
// values too long to remember, and more bytes than the arena holds, so
// that pages run through collisions and arena resets. Every page must
// still be AppendJSON's bytes.
func TestPageEncoderMemoLimits(t *testing.T) {
	s := MustSchema([]Field{NewField("f", KindFloat, ""), NewField("s", KindString, ""), NewField("t", KindTime, "")},
		GranSecond, SpatPoint)
	when := time.Date(2016, 3, 15, 9, 41, 0, 0, time.UTC)
	tup := func(f float64, str string, tm time.Time) *Tuple {
		return &Tuple{Schema: s, Values: []Value{Float(f), String(str), Time(tm)}, Time: when, Lat: 1, Lon: 2, Source: "s"}
	}

	// Floats that share one entry of the table, taking turns with ints
	// whose number word is theirs, in the same position.
	var shared []float64
	for x := 0.1; len(shared) < 4; x += 0.1 {
		if Float(x).memoHash() == Float(0.1).memoHash() {
			shared = append(shared, x)
		}
	}
	var collide []*Tuple
	for i := 0; i < 64; i++ {
		f := shared[i%len(shared)]
		collide = append(collide, tup(f, "x", when),
			&Tuple{Schema: s, Values: []Value{Int(int64(math.Float64bits(f))), String("x"), Time(when)}, Time: when, Lat: 1, Lon: 2})
	}

	// More schemas than the encoder keeps tables for, taking turns, their
	// values shared and not.
	var schemas []*Tuple
	for i := 0; i < 5*memoSchemas; i++ {
		sch := MustSchema([]Field{NewField("f", KindFloat, ""), NewField(fmt.Sprint("g", i%7), KindFloat, "")},
			GranSecond, SpatPoint)
		schemas = append(schemas, &Tuple{Schema: sch, Values: []Value{Float(float64(i % 3)), Float(float64(i))},
			Time: when, Lat: 1, Lon: 2})
	}
	schemas = append(schemas, schemas...)

	// Three times the table's entries, each value twice, in two orders.
	var distinct []*Tuple
	for i := 0; i < 3*memoEntries; i++ {
		distinct = append(distinct, tup(float64(i)/10, fmt.Sprint(i), when.Add(time.Duration(i)*time.Second)))
	}
	for i := 3*memoEntries - 1; i >= 0; i-- {
		distinct = append(distinct, distinct[i])
	}

	// Three string fields whose values fit their tables but not, together,
	// the arena: every round overruns it, and an entry from before a reset
	// is asked for again after it. Beside them a string too long to keep.
	wide := MustSchema([]Field{
		NewField("a", KindString, ""), NewField("b", KindString, ""), NewField("c", KindString, ""),
		NewField("long", KindString, ""),
	}, GranSecond, SpatPoint)
	long := strings.Repeat("<&>", memoValueMax)
	per := memoArenaBytes / memoValueMax / 2 // distinct values per field
	var arena []*Tuple
	for round := 0; round < 3; round++ {
		for i := 0; i < per; i++ {
			v := func(field string) Value { return String(fmt.Sprintf("%s%0*d", field, memoValueMax-4, i)) }
			arena = append(arena, &Tuple{Schema: wide, Values: []Value{v("a"), v("b"), v("c"), String(long)},
				Time: when, Lat: 1, Lon: 2})
		}
	}

	var e PageEncoder
	for name, tups := range map[string][]*Tuple{
		"colliding": collide, "distinct": distinct, "many schemas": schemas, "past the arena": arena,
	} {
		t.Run(name, func(t *testing.T) { checkPage(t, tups) })
		// The same encoder, memory and all, on the next page.
		var want, got []byte
		for _, tup := range tups {
			want = tup.AppendJSON(want)
			got = e.AppendJSON(got, tup)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: a reused PageEncoder differs from AppendJSON", name)
		}
	}
}

// TestPageEncoderStats pins what TakeStats counts on a page of one
// repeated event: the first event formats its six values, every later one
// copies its leading coordinates and its payload, and a second call starts
// over.
func TestPageEncoderStats(t *testing.T) {
	s := MustSchema([]Field{NewField("v", KindFloat, "")}, GranSecond, SpatPoint, "weather")
	tup := &Tuple{Schema: s, Values: []Value{Float(21.4)}, Time: time.Unix(1458034860, 0), Lat: 34.7, Lon: 135.5,
		Theme: "weather", Source: "temperature-1"}
	var e PageEncoder
	for i := 0; i < 10; i++ {
		e.AppendJSON(nil, tup)
	}
	if got, want := e.TakeStats(), (EncodeStats{Formatted: 6, Copied: 54}); got != want {
		t.Errorf("stats after 10 events = %+v, want %+v", got, want)
	}
	if got := e.TakeStats(); got != (EncodeStats{}) {
		t.Errorf("stats after TakeStats = %+v, want none", got)
	}
}

// BenchmarkPageEncoder encodes a 5000-event page without and with the
// encoder's memory. "repeats" is bench-shaped: one minute from 8 sources in
// 256-event runs, one float payload per event. "distinct" changes every
// coordinate from one event to the next, so no leading prefix repeats.
// "chain" is chain-mem-shaped (chainPage).
func BenchmarkPageEncoder(b *testing.B) {
	for _, page := range []struct {
		name string
		tups []*Tuple
	}{{"repeats", benchPage(256)}, {"distinct", benchPage(1)}, {"chain", chainPage(5000)}} {
		for _, tc := range []struct {
			name string
			enc  *PageEncoder
		}{{"memoryless", nil}, {"page", new(PageEncoder)}} {
			b.Run(page.name+"/"+tc.name, func(b *testing.B) {
				buf := make([]byte, 0, 1<<20)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					buf = buf[:0]
					for _, tup := range page.tups {
						buf = tc.enc.AppendJSON(buf, tup)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(page.tups)), "ns/event")
			})
		}
	}
}

// benchPage builds 5000 events from 8 sources taking turns in runs of the
// given length. Runs of one also advance the time by a second per event.
func benchPage(run int) []*Tuple {
	s := MustSchema([]Field{NewField("temperature", KindFloat, "celsius")}, GranSecond, SpatPoint, "temperature")
	minute := time.Date(2016, 3, 15, 9, 41, 0, 0, time.UTC)
	tups := make([]*Tuple, 5000)
	for i := range tups {
		src := i / run % 8
		when := minute
		if run == 1 {
			when = minute.Add(time.Duration(i) * time.Second)
		}
		tups[i] = &Tuple{Schema: s, Values: []Value{Float(15 + float64(i%97)/8)},
			Time: when, Lat: 34.6 + float64(src)/100, Lon: 135.4 + float64(src)/100,
			Theme: fmt.Sprintf("theme-%d", src%2), Source: fmt.Sprintf("temperature-%d", src+1)}
	}
	return tups
}

// chainPage builds a chain-mem-shaped page of n events: one minute from 8
// sources in 500-event runs, each source with its own schema as its
// operator chain leaves it — a quantized reading, a site label and the
// reading's full-precision twin (a unit conversion or a derived property,
// such as temperature*1.8+32). A reading is drawn the way the sensors draw
// theirs: a baseline plus Gaussian noise, rounded to one or two decimals.
func chainPage(n int) []*Tuple {
	sources := []struct {
		id, reading, twin    string
		base, noise, quantum float64 // quantum 10 rounds to 0.1, 100 to 0.01
		mul, add             float64 // twin = reading*mul + add
	}{
		{"temperature-1", "temperature", "temp_f", 22, 0.4, 10, 1.8, 32},
		{"temperature-2", "temperature", "temp_f", 21.4, 0.4, 10, 1.8, 32},
		{"temperature-3", "temperature", "temp_c", 71.6, 0.72, 10, 5.0 / 9, -160.0 / 9},
		{"humidity-1", "humidity", "dryness", 62, 3, 10, -0.01, 1},
		{"humidity-2", "humidity", "dryness", 58, 3, 10, -0.01, 1},
		{"rain-1", "rain_rate", "rain_in", 6, 0.4, 100, 1 / 25.4, 0},
		{"river-level-1", "level", "level_m", 2.2, 0.05, 100, 0.9144, 0},
		{"traffic-1", "congestion", "delay", 0.45, 0.1, 100, 11.1, 0},
	}
	rng := rand.New(rand.NewSource(1))
	minute := time.Date(2016, 3, 15, 9, 41, 0, 0, time.UTC)
	schemas := make([]*Schema, len(sources))
	for i, src := range sources {
		schemas[i] = MustSchema([]Field{
			NewField(src.reading, KindFloat, ""), NewField("site", KindString, ""), NewField(src.twin, KindFloat, ""),
		}, GranMinute, SpatCellCity, src.reading)
	}
	tups := make([]*Tuple, n)
	for i := range tups {
		k := i / 500 % len(sources)
		src := sources[k]
		r := math.Round((src.base+rng.NormFloat64()*src.noise)*src.quantum) / src.quantum
		tups[i] = &Tuple{Schema: schemas[k],
			Values: []Value{Float(r), String(src.id), Float(r*src.mul + src.add)},
			Time:   minute, Lat: 34.65 + float64(k%3)/10, Lon: 135.45 + float64(k/3)/10,
			Theme: src.reading, Source: src.id}
	}
	return tups
}
