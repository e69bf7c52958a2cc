package ops

import (
	"reflect"
	"testing"
	"time"

	"streamloader/internal/geo"
	"streamloader/internal/sensor"
	"streamloader/internal/stt"
)

// sharesBacking reports whether two value slices overlap anywhere in their
// backing arrays, capacity included.
func sharesBacking(a, b []stt.Value) bool {
	a, b = a[:cap(a)], b[:cap(b)]
	for i := range a {
		for j := range b {
			if &a[i] == &b[j] {
				return true
			}
		}
	}
	return false
}

// TestMapNeverMutatesItsInput holds every Mapper kind, and a transform of
// every step alone and in chains, to the ownership rule of the package doc:
// Map returns its input unchanged or one fresh tuple, and leaves its input as
// it was. Fan-out hands one tuple to several operations, so a write to the
// input would show in a sibling branch.
func TestMapNeverMutatesItsInput(t *testing.T) {
	in := fahrenheitSchema()
	area := geo.Rect{Min: geo.Point{Lat: 34, Lon: 135}, Max: geo.Point{Lat: 35, Lon: 136}}
	mappers := map[string]func() (Mapper, error){
		"filter": func() (Mapper, error) { return NewFilter("f", "temperature > 0", in) },
		"virtual_property": func() (Mapper, error) {
			return NewVirtualProperty("v", "temp_c", "(temperature-32)/1.8", "celsius", in)
		},
		"cull_time": func() (Mapper, error) {
			return NewCullTime("ct", 0.5, t0, t0.Add(time.Hour), in)
		},
		"cull_space": func() (Mapper, error) { return NewCullSpace("cs", 0.5, area, in) },
	}
	steps := map[string][]TransformStep{
		"convert_unit":  {{Op: "convert_unit", Field: "temperature", ToUnit: "celsius"}},
		"convert_coord": {{Op: "convert_coord", FromSystem: "tokyo", ToSystem: "wgs84"}},
		"rename":        {{Op: "rename", Field: "station", NewName: "site"}},
		"project":       {{Op: "project", Fields: []string{"station", "temperature"}}},
		"validate":      {{Op: "validate", Rule: "temperature > -500"}},
		"coarsen":       {{Op: "coarsen", TGran: "hour", SGran: "city"}},
		"project,convert_unit": {
			{Op: "project", Fields: []string{"temperature"}},
			{Op: "convert_unit", Field: "temperature", ToUnit: "kelvin"},
		},
		"convert_unit,project,validate": {
			{Op: "convert_unit", Field: "temperature", ToUnit: "celsius"},
			{Op: "project", Fields: []string{"station", "temperature"}},
			{Op: "validate", Rule: "temperature > -500"},
		},
		"bench chain": {
			{Op: "convert_unit", Field: "temperature", ToUnit: "celsius"},
			{Op: "rename", Field: "station", NewName: "site"},
			{Op: "coarsen", SGran: "city"},
		},
	}
	for name, s := range steps {
		mappers["transform "+name] = func() (Mapper, error) { return NewTransform("t", s, in) }
	}
	for name, mk := range mappers {
		t.Run(name, func(t *testing.T) {
			m, err := mk()
			if err != nil {
				t.Fatal(err)
			}
			for i, temp := range []float64{212, 33.5, -40} {
				// Spare capacity: an append to the input's Values would
				// write into its backing array.
				vals := append(make([]stt.Value, 0, 4), stt.Float(temp), stt.String("umeda"))
				input := &stt.Tuple{
					Schema: in,
					Values: vals,
					Time:   t0.Add(time.Duration(i) * 1500 * time.Millisecond),
					Lat:    34.6937, Lon: 135.5023,
					Theme: "weather", Source: "temp-1", Seq: uint64(i),
				}
				input.AlignSTT()
				before := input.Clone()
				out, err := m.Map(input)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(input, before) {
					t.Fatalf("input changed by Map: %v, was %v", input, before)
				}
				if out == nil || out == input {
					continue
				}
				if sharesBacking(out.Values, input.Values) {
					t.Fatalf("output %v shares its Values backing array with the input", out)
				}
			}
		})
	}
}

// benchChain builds the operators one chain-mem source runs, for a
// temperature sensor: a filter on the reading's fractional part, a
// transform (convert_unit, rename, coarsen), a virtual property, and the
// join branch's cull_space.
func benchChain(t *testing.T, in *stt.Schema) (f, tr, vp, cull Mapper) {
	t.Helper()
	var err error
	if f, err = NewFilter("f", "temperature-floor(temperature) < 0.75", in); err != nil {
		t.Fatal(err)
	}
	if tr, err = NewTransform("t", []TransformStep{
		{Op: "convert_unit", Field: "temperature", ToUnit: "celsius"},
		{Op: "rename", Field: "station", NewName: "site"},
		{Op: "coarsen", SGran: "city"},
	}, in); err != nil {
		t.Fatal(err)
	}
	if vp, err = NewVirtualProperty("v", "temp_f", "temperature*1.8+32", "fahrenheit", tr.OutSchema()); err != nil {
		t.Fatal(err)
	}
	area := geo.Rect{Min: geo.Point{Lat: 30, Lon: 130}, Max: geo.Point{Lat: 40, Lon: 140}}
	if cull, err = NewCullSpace("c", 0.99, area, in); err != nil {
		t.Fatal(err)
	}
	return f, tr, vp, cull
}

// TestChainAllocsPerTuple counts the allocations of the chain-mem operator
// chain on a temperature sensor tuple that passes its filter: none in the
// filter and the cull, one tuple and one value slice each in the transform
// and the virtual property. The counts are exact, so they hold on any box;
// a change that lowers one should lower its bound too.
func TestChainAllocsPerTuple(t *testing.T) {
	s, err := sensor.New(sensor.Spec{ID: "temperature-1", Type: sensor.TypeTemperature,
		Location: geo.OsakaCenter, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	f, tr, vp, cull := benchChain(t, s.Schema())
	var tup *stt.Tuple
	for ts := t0; tup == nil; ts = ts.Add(time.Minute) {
		if cand := s.At(ts); mustMap(t, f, cand) != nil {
			tup = cand
		}
	}
	mid := mustMap(t, tr, tup)
	for _, c := range []struct {
		name  string
		bound float64
		run   func()
	}{
		{"filter", 0, func() { mustMap(t, f, tup) }},
		{"cull_space", 0, func() { mustMap(t, cull, tup) }},
		{"transform", 2, func() { mustMap(t, tr, tup) }},
		{"virtual_property", 2, func() { mustMap(t, vp, mid) }},
		{"chain", 4, func() { mustMap(t, vp, mustMap(t, tr, mustMap(t, f, tup))) }},
	} {
		if got := testing.AllocsPerRun(200, c.run); got > c.bound {
			t.Errorf("%s: %.1f allocations per tuple, want at most %.0f", c.name, got, c.bound)
		}
	}
}

func mustMap(t *testing.T, m Mapper, tup *stt.Tuple) *stt.Tuple {
	out, err := m.Map(tup)
	if err != nil {
		t.Fatal(err)
	}
	return out
}
