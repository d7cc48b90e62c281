// Package geo provides the small amount of geodesy the radio-topology and
// mobility models need: WGS-84 points, great-circle distances, and a
// deterministic synthetic country layout (dense cities plus a rural belt)
// on which sectors are placed.
package geo

import (
	"fmt"
	"math"
)

// EarthRadiusKm is the mean Earth radius used for great-circle distances.
const EarthRadiusKm = 6371.0

// Point is a WGS-84 coordinate in degrees.
type Point struct {
	Lat float64
	Lon float64
}

// String renders the point with enough precision for log files.
func (p Point) String() string { return fmt.Sprintf("%.5f,%.5f", p.Lat, p.Lon) }

// DistanceKm returns the great-circle (haversine) distance between two
// points in kilometres.
func DistanceKm(a, b Point) float64 {
	const degToRad = math.Pi / 180
	lat1 := a.Lat * degToRad
	lat2 := b.Lat * degToRad
	dLat := (b.Lat - a.Lat) * degToRad
	dLon := (b.Lon - a.Lon) * degToRad

	s1 := math.Sin(dLat / 2)
	s2 := math.Sin(dLon / 2)
	h := s1*s1 + math.Cos(lat1)*math.Cos(lat2)*s2*s2
	if h > 1 {
		h = 1
	}
	return 2 * EarthRadiusKm * math.Asin(math.Sqrt(h))
}

// Offset returns the point displaced by the given east/north distances in
// kilometres. It uses the local-tangent-plane approximation, which is
// accurate to well under 1% at country scale and keeps the layout code
// simple and fast.
func Offset(p Point, eastKm, northKm float64) Point {
	const kmPerDegLat = math.Pi * EarthRadiusKm / 180
	lat := p.Lat + northKm/kmPerDegLat
	kmPerDegLon := kmPerDegLat * math.Cos(p.Lat*math.Pi/180)
	lon := p.Lon
	if kmPerDegLon > 1e-9 {
		lon += eastKm / kmPerDegLon
	}
	return Point{Lat: lat, Lon: lon}
}

// Box is an axis-aligned bounding box in degrees.
type Box struct {
	MinLat, MinLon float64
	MaxLat, MaxLon float64
}

// Contains reports whether the point lies inside the box.
func (b Box) Contains(p Point) bool {
	return p.Lat >= b.MinLat && p.Lat <= b.MaxLat && p.Lon >= b.MinLon && p.Lon <= b.MaxLon
}

// City is a population centre in the synthetic country.
type City struct {
	Name   string
	Center Point
	// RadiusKm is the urban radius within which sector density is high.
	RadiusKm float64
	// Weight is the relative share of population living in the city.
	Weight float64
}

// Country is a synthetic national footprint: an origin, an extent, and a
// set of cities. It stands in for the "large European country" of the
// paper; the default instance spans roughly 600x600 km with a capital, a
// handful of large cities and a rural remainder.
type Country struct {
	Origin   Point // south-west corner
	WidthKm  float64
	HeightKm float64
	Cities   []City
	// RuralWeight is the population share living outside all cities.
	RuralWeight float64
}

// DefaultCountry returns the synthetic country used across wearwild. The
// proportions (one dominant capital, several secondary cities, ~25% rural)
// loosely follow a Western-European population distribution.
func DefaultCountry() Country {
	origin := Point{Lat: 40.0, Lon: -4.0}
	at := func(eastKm, northKm float64) Point { return Offset(origin, eastKm, northKm) }
	return Country{
		Origin:      origin,
		WidthKm:     600,
		HeightKm:    600,
		RuralWeight: 0.25,
		Cities: []City{
			{Name: "Capital", Center: at(300, 300), RadiusKm: 25, Weight: 0.28},
			{Name: "Port", Center: at(520, 420), RadiusKm: 18, Weight: 0.14},
			{Name: "North", Center: at(250, 520), RadiusKm: 12, Weight: 0.09},
			{Name: "South", Center: at(330, 80), RadiusKm: 14, Weight: 0.10},
			{Name: "West", Center: at(90, 260), RadiusKm: 10, Weight: 0.07},
			{Name: "East", Center: at(540, 180), RadiusKm: 10, Weight: 0.07},
		},
	}
}

// Bounds returns the country's bounding box.
func (c Country) Bounds() Box {
	ne := Offset(c.Origin, c.WidthKm, c.HeightKm)
	return Box{MinLat: c.Origin.Lat, MinLon: c.Origin.Lon, MaxLat: ne.Lat, MaxLon: ne.Lon}
}

// TotalCityWeight returns the sum of city weights.
func (c Country) TotalCityWeight() float64 {
	var sum float64
	for _, city := range c.Cities {
		sum += city.Weight
	}
	return sum
}

// Validate checks that the layout is internally consistent.
func (c Country) Validate() error {
	if c.WidthKm <= 0 || c.HeightKm <= 0 {
		return fmt.Errorf("geo: non-positive country extent %gx%g", c.WidthKm, c.HeightKm)
	}
	if c.RuralWeight < 0 {
		return fmt.Errorf("geo: negative rural weight")
	}
	total := c.TotalCityWeight() + c.RuralWeight
	if math.Abs(total-1) > 0.02 {
		return fmt.Errorf("geo: population weights sum to %.3f, want 1", total)
	}
	bounds := c.Bounds()
	for _, city := range c.Cities {
		if !bounds.Contains(city.Center) {
			return fmt.Errorf("geo: city %q outside country bounds", city.Name)
		}
		if city.RadiusKm <= 0 {
			return fmt.Errorf("geo: city %q has non-positive radius", city.Name)
		}
	}
	return nil
}
