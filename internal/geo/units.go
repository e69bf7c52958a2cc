package geo

import "fmt"

// The unit registry backs Transform's unit-of-measure conversions. Units are
// grouped into dimensions; within a dimension conversion is affine
// (value*factor + offset relative to the dimension's base unit), which covers
// every unit the paper's sensor classes need, including temperatures.

// UnitDim names a physical dimension.
type UnitDim string

// Dimensions covered by the registry.
const (
	DimLength      UnitDim = "length"
	DimSpeed       UnitDim = "speed"
	DimTemperature UnitDim = "temperature"
	DimPressure    UnitDim = "pressure"
	DimRainRate    UnitDim = "rain-rate"
	DimRatio       UnitDim = "ratio"
)

type unitDef struct {
	dim    UnitDim
	factor float64 // multiply by factor ...
	offset float64 // ... then add offset, to reach the dimension base unit
}

// The base units are: meter, m/s, celsius, hPa, mm/h, fraction.
var units = map[string]unitDef{
	// length
	"m":    {DimLength, 1, 0},
	"km":   {DimLength, 1000, 0},
	"cm":   {DimLength, 0.01, 0},
	"mm":   {DimLength, 0.001, 0},
	"yard": {DimLength, 0.9144, 0},
	"foot": {DimLength, 0.3048, 0},
	"mile": {DimLength, 1609.344, 0},
	// speed
	"m/s":  {DimSpeed, 1, 0},
	"km/h": {DimSpeed, 1.0 / 3.6, 0},
	"mph":  {DimSpeed, 0.44704, 0},
	"knot": {DimSpeed, 0.514444, 0},
	// temperature
	"celsius":    {DimTemperature, 1, 0},
	"fahrenheit": {DimTemperature, 5.0 / 9.0, -32 * 5.0 / 9.0},
	"kelvin":     {DimTemperature, 1, -273.15},
	// pressure
	"hPa":  {DimPressure, 1, 0},
	"kPa":  {DimPressure, 10, 0},
	"mmHg": {DimPressure, 1.333224, 0},
	"atm":  {DimPressure, 1013.25, 0},
	// rain rate
	"mm/h":   {DimRainRate, 1, 0},
	"inch/h": {DimRainRate, 25.4, 0},
	// ratio
	"fraction": {DimRatio, 1, 0},
	"percent":  {DimRatio, 0.01, 0},
}

// ConvertUnit converts value from one unit to another within the same
// dimension. It returns an error for unknown units or dimension mismatches
// ("yards to celsius").
func ConvertUnit(value float64, from, to string) (float64, error) {
	c, err := NewUnitConversion(from, to)
	if err != nil {
		return 0, err
	}
	return c.Apply(value), nil
}

// UnitConversion is a conversion between two units resolved once, for
// callers that convert many values: Apply is ConvertUnit's arithmetic, bit
// for bit, without the registry lookups.
type UnitConversion struct {
	from, to unitDef
	identity bool
}

// NewUnitConversion resolves a conversion, with ConvertUnit's errors.
func NewUnitConversion(from, to string) (UnitConversion, error) {
	if from == to {
		return UnitConversion{identity: true}, nil
	}
	uf, ok := units[from]
	if !ok {
		return UnitConversion{}, fmt.Errorf("geo: unknown source unit %q", from)
	}
	ut, ok := units[to]
	if !ok {
		return UnitConversion{}, fmt.Errorf("geo: unknown target unit %q", to)
	}
	if uf.dim != ut.dim {
		return UnitConversion{}, fmt.Errorf("geo: cannot convert %s (%s) to %s (%s)",
			from, uf.dim, to, ut.dim)
	}
	return UnitConversion{from: uf, to: ut}, nil
}

// Apply converts one value.
func (c UnitConversion) Apply(value float64) float64 {
	if c.identity {
		return value
	}
	base := value*c.from.factor + c.from.offset
	return (base - c.to.offset) / c.to.factor
}

// CoordSystem names a geodetic datum supported by coordinate conversion.
type CoordSystem string

// Supported coordinate systems. Tokyo is the legacy Japanese datum
// (Tokyo97/Bessel) still used by some of the older sensors the paper's NICT
// deployment aggregates; conversion uses the standard three-parameter
// Molodensky-style approximation adequate at sensor-network scale
// (sub-meter error within Japan).
const (
	WGS84 CoordSystem = "wgs84"
	Tokyo CoordSystem = "tokyo"
)

// ParseCoordSystem validates a coordinate-system name.
func ParseCoordSystem(s string) (CoordSystem, error) {
	switch CoordSystem(s) {
	case WGS84, Tokyo:
		return CoordSystem(s), nil
	}
	return "", fmt.Errorf("geo: unknown coordinate system %q", s)
}

// ConvertCoord converts a point between coordinate systems. The Tokyo⇄WGS84
// conversion uses the widely published approximation formulas:
//
//	wgsLat = tkyLat - 0.00010695*tkyLat + 0.000017464*tkyLon + 0.0046017
//	wgsLon = tkyLon - 0.000046038*tkyLat - 0.000083043*tkyLon + 0.010040
//
// and the published inverse. Round-tripping is accurate to ~1e-6 degrees
// (≈10 cm) within Japan.
func ConvertCoord(p Point, from, to CoordSystem) (Point, error) {
	if from == to {
		return p, nil
	}
	switch {
	case from == Tokyo && to == WGS84:
		return Point{
			Lat: p.Lat - 0.00010695*p.Lat + 0.000017464*p.Lon + 0.0046017,
			Lon: p.Lon - 0.000046038*p.Lat - 0.000083043*p.Lon + 0.010040,
		}, nil
	case from == WGS84 && to == Tokyo:
		return Point{
			Lat: p.Lat + 0.00010696*p.Lat - 0.000017467*p.Lon - 0.0046020,
			Lon: p.Lon + 0.000046047*p.Lat + 0.000083049*p.Lon - 0.010041,
		}, nil
	default:
		return Point{}, fmt.Errorf("geo: unsupported conversion %s -> %s", from, to)
	}
}
