package geo

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestPointValid(t *testing.T) {
	if !OsakaCenter.Valid() {
		t.Error("Osaka center must be valid")
	}
	invalid := []Point{
		{Lat: 91, Lon: 0}, {Lat: -91, Lon: 0},
		{Lat: 0, Lon: 181}, {Lat: 0, Lon: -181},
	}
	for _, p := range invalid {
		if p.Valid() {
			t.Errorf("%v must be invalid", p)
		}
	}
}

func TestDistanceMeters(t *testing.T) {
	// Osaka to Kyoto is roughly 43 km.
	kyoto := Point{Lat: 35.0116, Lon: 135.7681}
	d := OsakaCenter.DistanceMeters(kyoto)
	if d < 40000 || d < 0 || d > 46000 {
		t.Errorf("Osaka-Kyoto distance = %.0f m, want ~43 km", d)
	}
	if OsakaCenter.DistanceMeters(OsakaCenter) != 0 {
		t.Error("distance to self must be 0")
	}
	// One degree of latitude is ~111 km anywhere.
	a := Point{Lat: 10, Lon: 50}
	b := Point{Lat: 11, Lon: 50}
	if d := a.DistanceMeters(b); math.Abs(d-111195) > 500 {
		t.Errorf("1 degree latitude = %.0f m, want ~111195", d)
	}
}

func TestQuickDistanceSymmetric(t *testing.T) {
	f := func(lat1, lon1, lat2, lon2 float64) bool {
		p := Point{Lat: math.Mod(lat1, 90), Lon: math.Mod(lon1, 180)}
		q := Point{Lat: math.Mod(lat2, 90), Lon: math.Mod(lon2, 180)}
		d1, d2 := p.DistanceMeters(q), q.DistanceMeters(p)
		return math.Abs(d1-d2) < 1e-6 && d1 >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestNewRectNormalizes(t *testing.T) {
	r := NewRect(Point{Lat: 35, Lon: 136}, Point{Lat: 34, Lon: 135})
	if r.Min.Lat != 34 || r.Min.Lon != 135 || r.Max.Lat != 35 || r.Max.Lon != 136 {
		t.Errorf("NewRect = %v", r)
	}
	if !r.Valid() {
		t.Error("normalized rect must be valid")
	}
}

func TestRectContains(t *testing.T) {
	if !Osaka.Contains(OsakaCenter) {
		t.Error("Osaka rect must contain its center")
	}
	if Osaka.Contains(Point{Lat: 35.0116, Lon: 135.7681}) {
		t.Error("Kyoto is outside the Osaka rect")
	}
	// Inclusive bounds.
	if !Osaka.Contains(Osaka.Min) || !Osaka.Contains(Osaka.Max) {
		t.Error("bounds are inclusive")
	}
}

func TestRectExpand(t *testing.T) {
	r := NewRect(Point{Lat: 0, Lon: 0}, Point{Lat: 2, Lon: 4})
	e := r.Expand(1)
	if e.Min.Lat != -1 || e.Max.Lon != 5 {
		t.Errorf("expand = %v", e)
	}
	if !strings.Contains(r.String(), "..") {
		t.Error("rect string format")
	}
}

func TestCellOf(t *testing.T) {
	c := CellOf(Point{Lat: 34.6937, Lon: 135.5023}, 0.1)
	if c.Y != 346 || c.X != 1355 {
		t.Errorf("cell = %+v", c)
	}
	neg := CellOf(Point{Lat: -0.05, Lon: -0.05}, 0.1)
	if neg.X != -1 || neg.Y != -1 {
		t.Errorf("negative coords floor toward -inf: %+v", neg)
	}
	// Degenerate size does not panic.
	_ = CellOf(Point{Lat: 1, Lon: 1}, 0)
}

func TestCellRectRoundTrip(t *testing.T) {
	p := Point{Lat: 34.6937, Lon: 135.5023}
	c := CellOf(p, 0.1)
	r := c.Rect(0.1)
	if !r.Contains(p) {
		t.Errorf("cell rect %v must contain %v", r, p)
	}
	o := c.Origin(0.1)
	if math.Abs(o.Lat-34.6) > 1e-9 || math.Abs(o.Lon-135.5) > 1e-9 {
		t.Errorf("origin = %v", o)
	}
}

// Property: every point is inside the rect of its own cell.
func TestQuickCellContainment(t *testing.T) {
	f := func(lat, lon float64, size8 uint8) bool {
		p := Point{Lat: math.Mod(lat, 90), Lon: math.Mod(lon, 180)}
		sizes := []float64{0.001, 0.01, 0.1, 1}
		size := sizes[int(size8)%len(sizes)]
		r := CellOf(p, size).Rect(size)
		// Allow an epsilon at boundaries due to float division.
		r = r.Expand(1e-9)
		return r.Contains(p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestConvertUnit(t *testing.T) {
	cases := []struct {
		val      float64
		from, to string
		want     float64
	}{
		{100, "yard", "m", 91.44},
		{1, "km", "m", 1000},
		{1, "mile", "km", 1.609344},
		{36, "km/h", "m/s", 10},
		{212, "fahrenheit", "celsius", 100},
		{0, "celsius", "fahrenheit", 32},
		{0, "celsius", "kelvin", 273.15},
		{1, "atm", "hPa", 1013.25},
		{1, "inch/h", "mm/h", 25.4},
		{50, "percent", "fraction", 0.5},
		{3, "m", "m", 3},
	}
	for _, c := range cases {
		got, err := ConvertUnit(c.val, c.from, c.to)
		if err != nil {
			t.Errorf("%v %s->%s: %v", c.val, c.from, c.to, err)
			continue
		}
		if math.Abs(got-c.want) > 1e-9 {
			t.Errorf("%v %s->%s = %v, want %v", c.val, c.from, c.to, got, c.want)
		}
	}
}

func TestConvertUnitErrors(t *testing.T) {
	if _, err := ConvertUnit(1, "cubit", "m"); err == nil {
		t.Error("unknown source unit must fail")
	}
	if _, err := ConvertUnit(1, "m", "cubit"); err == nil {
		t.Error("unknown target unit must fail")
	}
	if _, err := ConvertUnit(1, "yard", "celsius"); err == nil {
		t.Error("cross-dimension conversion must fail")
	}
}

// Property: unit conversion round-trips within the same dimension.
func TestQuickUnitRoundTrip(t *testing.T) {
	pairs := [][2]string{
		{"yard", "m"}, {"mile", "km"}, {"fahrenheit", "celsius"},
		{"kelvin", "celsius"}, {"mph", "km/h"}, {"percent", "fraction"},
		{"inch/h", "mm/h"}, {"atm", "kPa"},
	}
	f := func(v float64, pick uint8) bool {
		if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e12 {
			return true
		}
		p := pairs[int(pick)%len(pairs)]
		mid, err := ConvertUnit(v, p[0], p[1])
		if err != nil {
			return false
		}
		back, err := ConvertUnit(mid, p[1], p[0])
		if err != nil {
			return false
		}
		return math.Abs(back-v) <= 1e-6*(1+math.Abs(v))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestParseCoordSystem(t *testing.T) {
	if s, err := ParseCoordSystem("wgs84"); err != nil || s != WGS84 {
		t.Error("wgs84")
	}
	if s, err := ParseCoordSystem("tokyo"); err != nil || s != Tokyo {
		t.Error("tokyo")
	}
	if _, err := ParseCoordSystem("mars"); err == nil {
		t.Error("mars must fail")
	}
}

func TestConvertCoord(t *testing.T) {
	// Identity.
	p, err := ConvertCoord(OsakaCenter, WGS84, WGS84)
	if err != nil || p != OsakaCenter {
		t.Error("identity conversion")
	}
	// Tokyo->WGS84 moves points ~400 m NW in Japan.
	w, err := ConvertCoord(OsakaCenter, Tokyo, WGS84)
	if err != nil {
		t.Fatal(err)
	}
	d := w.DistanceMeters(OsakaCenter)
	if d < 200 || d > 700 {
		t.Errorf("datum shift = %.0f m, want 200-700", d)
	}
	if _, err := ConvertCoord(OsakaCenter, "mars", WGS84); err == nil {
		t.Error("unknown system must fail")
	}
}

// Property: Tokyo<->WGS84 round-trips to ~10 cm within Japan.
func TestQuickCoordRoundTrip(t *testing.T) {
	f := func(dlat, dlon float64) bool {
		p := Point{
			Lat: 34 + math.Mod(math.Abs(dlat), 8),   // 34..42 N
			Lon: 130 + math.Mod(math.Abs(dlon), 12), // 130..142 E
		}
		mid, err := ConvertCoord(p, WGS84, Tokyo)
		if err != nil {
			return false
		}
		back, err := ConvertCoord(mid, Tokyo, WGS84)
		if err != nil {
			return false
		}
		return back.DistanceMeters(p) < 1.0 // < 1 m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
