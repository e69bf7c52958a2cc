package stt

import (
	"strings"
	"testing"
	"time"
)

func weatherSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := NewSchema([]Field{
		NewField("temperature", KindFloat, "celsius"),
		NewField("humidity", KindFloat, "percent"),
		NewField("station", KindString, ""),
	}, GranMinute, SpatCellDistrict, "weather")
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewSchemaValidation(t *testing.T) {
	if _, err := NewSchema([]Field{NewField("", KindInt, "")}, GranSecond, SpatPoint); err == nil {
		t.Error("empty field name must be rejected")
	}
	if _, err := NewSchema([]Field{
		NewField("a", KindInt, ""),
		NewField("a", KindFloat, ""),
	}, GranSecond, SpatPoint); err == nil {
		t.Error("duplicate field must be rejected")
	}
}

func TestMustSchemaPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustSchema must panic on invalid fields")
		}
	}()
	MustSchema([]Field{NewField("", KindInt, "")}, GranSecond, SpatPoint)
}

func TestSchemaLookup(t *testing.T) {
	s := weatherSchema(t)
	if s.NumFields() != 3 {
		t.Fatalf("NumFields = %d", s.NumFields())
	}
	if s.IndexOf("humidity") != 1 {
		t.Error("IndexOf humidity")
	}
	if s.IndexOf("missing") != -1 {
		t.Error("IndexOf missing")
	}
	f, ok := s.Lookup("temperature")
	if !ok || f.Kind != KindFloat || f.Unit != "celsius" {
		t.Errorf("Lookup temperature = %+v, %v", f, ok)
	}
	if _, ok := s.Lookup("nope"); ok {
		t.Error("Lookup nope should fail")
	}
	if got := s.Field(2).Name; got != "station" {
		t.Errorf("Field(2) = %q", got)
	}
	fs := s.Fields()
	fs[0].Name = "mutated"
	if s.Field(0).Name != "temperature" {
		t.Error("Fields() must return a copy")
	}
}

func TestSchemaThemes(t *testing.T) {
	s := MustSchema(nil, GranSecond, SpatPoint, "b", "a", "c")
	if !s.HasTheme("a") || !s.HasTheme("b") || s.HasTheme("z") {
		t.Error("HasTheme")
	}
	// Themes are sorted for determinism.
	if s.Themes[0] != "a" || s.Themes[2] != "c" {
		t.Errorf("themes not sorted: %v", s.Themes)
	}
}

func TestWithField(t *testing.T) {
	s := weatherSchema(t)
	s2, err := s.WithField(NewField("apparent", KindFloat, "celsius"))
	if err != nil {
		t.Fatal(err)
	}
	if s2.NumFields() != 4 || s2.IndexOf("apparent") != 3 {
		t.Error("WithField result")
	}
	if s.NumFields() != 3 {
		t.Error("WithField must not mutate the receiver")
	}
	if _, err := s.WithField(NewField("temperature", KindInt, "")); err == nil {
		t.Error("duplicate WithField must fail")
	}
}

func TestWithGranularities(t *testing.T) {
	s := weatherSchema(t)
	s2 := s.WithGranularities(GranHour, SpatCellCity)
	if s2.TGran != GranHour || s2.SGran != SpatCellCity {
		t.Error("granularities not applied")
	}
	if s.TGran != GranMinute {
		t.Error("receiver mutated")
	}
	if !s.Compatible(s2) {
		t.Error("re-granulated schema must stay compatible")
	}
}

func TestProject(t *testing.T) {
	s := weatherSchema(t)
	p, mapping, err := s.Project([]string{"station", "temperature"})
	if err != nil {
		t.Fatal(err)
	}
	if p.NumFields() != 2 || p.Field(0).Name != "station" || p.Field(1).Name != "temperature" {
		t.Errorf("projection schema: %s", p)
	}
	if mapping[0] != 2 || mapping[1] != 0 {
		t.Errorf("mapping = %v", mapping)
	}
	if _, _, err := s.Project([]string{"ghost"}); err == nil {
		t.Error("projecting a missing field must fail")
	}
}

func TestCompatible(t *testing.T) {
	s := weatherSchema(t)
	same := MustSchema([]Field{
		NewField("temperature", KindFloat, "fahrenheit"), // unit differs: still compatible
		NewField("humidity", KindFloat, ""),
		NewField("station", KindString, ""),
	}, GranHour, SpatPoint, "other")
	if !s.Compatible(same) {
		t.Error("unit/theme/granularity differences must not break compatibility")
	}
	fewer := MustSchema([]Field{NewField("temperature", KindFloat, "")}, GranHour, SpatPoint)
	if s.Compatible(fewer) {
		t.Error("different arity must be incompatible")
	}
	renamed := MustSchema([]Field{
		NewField("temp", KindFloat, ""),
		NewField("humidity", KindFloat, ""),
		NewField("station", KindString, ""),
	}, GranHour, SpatPoint)
	if s.Compatible(renamed) {
		t.Error("renamed field must be incompatible")
	}
	retyped := MustSchema([]Field{
		NewField("temperature", KindInt, ""),
		NewField("humidity", KindFloat, ""),
		NewField("station", KindString, ""),
	}, GranHour, SpatPoint)
	if s.Compatible(retyped) {
		t.Error("retyped field must be incompatible")
	}
}

func TestMergeThemes(t *testing.T) {
	got := MergeThemes([]string{"weather", "rain"}, []string{"traffic", "weather"})
	want := []string{"rain", "traffic", "weather"}
	if len(got) != len(want) {
		t.Fatalf("MergeThemes = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("MergeThemes = %v, want %v", got, want)
		}
	}
	if out := MergeThemes(nil, nil); len(out) != 0 {
		t.Error("empty merge")
	}
}

func TestSchemaString(t *testing.T) {
	s := weatherSchema(t)
	str := s.String()
	for _, want := range []string{"temperature:float[celsius]", "@minute/district", "{weather}"} {
		if !strings.Contains(str, want) {
			t.Errorf("schema string %q missing %q", str, want)
		}
	}
}

func TestTupleBasics(t *testing.T) {
	s := weatherSchema(t)
	tup, err := NewTuple(s, []Value{Float(25.5), Float(60), String("osaka-1")})
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := tup.Get("temperature"); !ok || v.AsFloat() != 25.5 {
		t.Error("Get temperature")
	}
	if _, ok := tup.Get("ghost"); ok {
		t.Error("Get ghost should fail")
	}
	if tup.MustGet("station").AsString() != "osaka-1" {
		t.Error("MustGet station")
	}
	if _, err := NewTuple(s, []Value{Float(1)}); err == nil {
		t.Error("arity mismatch must fail")
	}
}

func TestMustGetPanics(t *testing.T) {
	s := weatherSchema(t)
	tup, _ := NewTuple(s, []Value{Float(1), Float(2), String("x")})
	defer func() {
		if recover() == nil {
			t.Error("MustGet on missing field must panic")
		}
	}()
	tup.MustGet("ghost")
}

func TestTupleValidate(t *testing.T) {
	s := weatherSchema(t)
	ts := time.Date(2016, 3, 15, 9, 41, 0, 0, time.UTC)
	tup := &Tuple{Schema: s, Values: []Value{Float(20), Float(50), String("a")}, Time: ts}
	if err := tup.Validate(); err != nil {
		t.Errorf("valid tuple rejected: %v", err)
	}
	// Int where float declared is fine.
	tup2 := &Tuple{Schema: s, Values: []Value{Int(20), Float(50), String("a")}, Time: ts}
	if err := tup2.Validate(); err != nil {
		t.Errorf("int-for-float rejected: %v", err)
	}
	// Null anywhere is fine.
	tup3 := &Tuple{Schema: s, Values: []Value{Null(), Null(), Null()}, Time: ts}
	if err := tup3.Validate(); err != nil {
		t.Errorf("nulls rejected: %v", err)
	}
	// Wrong kind fails.
	tup4 := &Tuple{Schema: s, Values: []Value{String("hot"), Float(50), String("a")}, Time: ts}
	if err := tup4.Validate(); err == nil {
		t.Error("string-for-float must fail")
	}
	// Unaligned time fails.
	tup5 := &Tuple{Schema: s, Values: []Value{Float(1), Float(2), String("a")},
		Time: ts.Add(3 * time.Second)}
	if err := tup5.Validate(); err == nil {
		t.Error("unaligned time must fail")
	}
	// Arity mismatch fails.
	tup6 := &Tuple{Schema: s, Values: []Value{Float(1)}, Time: ts}
	if err := tup6.Validate(); err == nil {
		t.Error("arity mismatch must fail")
	}
}

func TestTupleCloneIsDeep(t *testing.T) {
	s := weatherSchema(t)
	tup, _ := NewTuple(s, []Value{Float(1), Float(2), String("a")})
	c := tup.Clone()
	c.Values[0] = Float(99)
	if tup.Values[0].AsFloat() != 1 {
		t.Error("Clone must not share value storage")
	}
	if c.Schema != tup.Schema {
		t.Error("Clone must share the immutable schema")
	}
}

func TestAlignSTT(t *testing.T) {
	s := weatherSchema(t) // minute / district
	tup, _ := NewTuple(s, []Value{Float(1), Float(2), String("a")})
	tup.Time = time.Date(2016, 3, 15, 9, 41, 23, 0, time.UTC)
	tup.Lat, tup.Lon = 34.6937, 135.5023
	tup.AlignSTT()
	if !tup.Time.Equal(time.Date(2016, 3, 15, 9, 41, 0, 0, time.UTC)) {
		t.Errorf("time not truncated: %v", tup.Time)
	}
	if tup.Lat != 34.69 || tup.Lon != 135.5 {
		t.Errorf("coords not snapped: %v, %v", tup.Lat, tup.Lon)
	}
	if err := tup.Validate(); err != nil {
		t.Errorf("aligned tuple invalid: %v", err)
	}
}

func TestTupleMapAndString(t *testing.T) {
	s := weatherSchema(t)
	tup, _ := NewTuple(s, []Value{Float(25.5), Float(60), String("osaka-1")})
	tup.Time = time.Date(2016, 3, 15, 9, 41, 0, 0, time.UTC)
	tup.Theme = "weather"
	tup.Source = "sensor-1"
	m := tup.Map()
	if m["temperature"] != 25.5 || m["station"] != "osaka-1" {
		t.Errorf("Map payload: %v", m)
	}
	if m["_theme"] != "weather" || m["_source"] != "sensor-1" {
		t.Errorf("Map metadata: %v", m)
	}
	str := tup.String()
	for _, want := range []string{"temperature=25.5", "station=osaka-1", "from sensor-1"} {
		if !strings.Contains(str, want) {
			t.Errorf("String %q missing %q", str, want)
		}
	}
}
