// Package geo provides the spatial substrate of StreamLoader: points,
// rectangles, great-circle distance, grid cells, and the unit and
// coordinate-system conversion registries that back the Transform operation
// of Table 1 ("changing the unit of measure (e.g. from yards to meters) or
// geographical coordinates (from one standard to another one)").
package geo

import (
	"fmt"
	"math"
)

// EarthRadiusMeters is the mean Earth radius used by distance computations.
const EarthRadiusMeters = 6371000.0

// Point is a WGS84 coordinate in decimal degrees.
type Point struct {
	Lat float64 `json:"lat"`
	Lon float64 `json:"lon"`
}

// Valid reports whether the point lies in the legal lat/lon ranges.
func (p Point) Valid() bool {
	return p.Lat >= -90 && p.Lat <= 90 && p.Lon >= -180 && p.Lon <= 180
}

// String renders the point as "lat,lon".
func (p Point) String() string { return fmt.Sprintf("%.6f,%.6f", p.Lat, p.Lon) }

// DistanceMeters returns the haversine great-circle distance to q in meters.
func (p Point) DistanceMeters(q Point) float64 {
	const rad = math.Pi / 180
	lat1, lon1 := p.Lat*rad, p.Lon*rad
	lat2, lon2 := q.Lat*rad, q.Lon*rad
	dLat, dLon := lat2-lat1, lon2-lon1
	a := math.Sin(dLat/2)*math.Sin(dLat/2) +
		math.Cos(lat1)*math.Cos(lat2)*math.Sin(dLon/2)*math.Sin(dLon/2)
	return 2 * EarthRadiusMeters * math.Asin(math.Min(1, math.Sqrt(a)))
}

// Rect is an axis-aligned geographic rectangle. Min is the south-west
// corner, Max the north-east corner. Rectangles never wrap the antimeridian;
// the Osaka-scale scenarios of the paper do not need that.
type Rect struct {
	Min Point `json:"min"`
	Max Point `json:"max"`
}

// NewRect builds a rectangle from any two opposite corners, normalizing the
// corner order.
func NewRect(a, b Point) Rect {
	return Rect{
		Min: Point{Lat: math.Min(a.Lat, b.Lat), Lon: math.Min(a.Lon, b.Lon)},
		Max: Point{Lat: math.Max(a.Lat, b.Lat), Lon: math.Max(a.Lon, b.Lon)},
	}
}

// Valid reports whether both corners are valid and ordered.
func (r Rect) Valid() bool {
	return r.Min.Valid() && r.Max.Valid() &&
		r.Min.Lat <= r.Max.Lat && r.Min.Lon <= r.Max.Lon
}

// Contains reports whether p lies inside the rectangle (inclusive bounds).
func (r Rect) Contains(p Point) bool {
	return p.Lat >= r.Min.Lat && p.Lat <= r.Max.Lat &&
		p.Lon >= r.Min.Lon && p.Lon <= r.Max.Lon
}

// Expand grows the rectangle by d degrees on every side.
func (r Rect) Expand(d float64) Rect {
	return Rect{
		Min: Point{Lat: r.Min.Lat - d, Lon: r.Min.Lon - d},
		Max: Point{Lat: r.Max.Lat + d, Lon: r.Max.Lon + d},
	}
}

// String renders the rectangle as "min..max".
func (r Rect) String() string { return r.Min.String() + ".." + r.Max.String() }

// Cell identifies a grid cell: integer coordinates at a given cell size in
// degrees. Cells are the spatial-granularity objects of the STT model and
// the unit pubsub groups sensors by region in.
type Cell struct {
	X, Y int64 // lon index, lat index
}

// CellOf maps a point to its cell at the given cell size (degrees).
// A non-positive size yields the degenerate cell of the raw point floor.
func CellOf(p Point, sizeDeg float64) Cell {
	if sizeDeg <= 0 {
		sizeDeg = 1e-9
	}
	return Cell{X: floorDiv(p.Lon, sizeDeg), Y: floorDiv(p.Lat, sizeDeg)}
}

// Origin returns the south-west corner of the cell at the given size.
func (c Cell) Origin(sizeDeg float64) Point {
	return Point{Lat: float64(c.Y) * sizeDeg, Lon: float64(c.X) * sizeDeg}
}

// Rect returns the rectangle covered by the cell at the given size.
func (c Cell) Rect(sizeDeg float64) Rect {
	o := c.Origin(sizeDeg)
	return Rect{Min: o, Max: Point{Lat: o.Lat + sizeDeg, Lon: o.Lon + sizeDeg}}
}

func floorDiv(v, size float64) int64 {
	q := v / size
	f := math.Floor(q)
	return int64(f)
}

// Osaka is the rectangle the paper's demo scenario monitors: the greater
// Osaka area used by the NICT testbed sensors.
var Osaka = Rect{
	Min: Point{Lat: 34.40, Lon: 135.20},
	Max: Point{Lat: 34.90, Lon: 135.70},
}

// OsakaCenter is the approximate centre of Osaka city.
var OsakaCenter = Point{Lat: 34.6937, Lon: 135.5023}
