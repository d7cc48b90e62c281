package geo

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDistanceKnownPairs(t *testing.T) {
	// Paris <-> London is ~344 km great-circle.
	paris := Point{Lat: 48.8566, Lon: 2.3522}
	london := Point{Lat: 51.5074, Lon: -0.1278}
	d := DistanceKm(paris, london)
	if d < 330 || d > 355 {
		t.Fatalf("Paris-London distance = %.1f km", d)
	}
	if DistanceKm(paris, paris) != 0 {
		t.Fatal("self distance not zero")
	}
}

func TestDistanceSymmetryProperty(t *testing.T) {
	f := func(a, b, c, d int16) bool {
		p := Point{Lat: float64(a%80) / 1.1, Lon: float64(b % 179)}
		q := Point{Lat: float64(c%80) / 1.1, Lon: float64(d % 179)}
		d1 := DistanceKm(p, q)
		d2 := DistanceKm(q, p)
		if d1 < 0 || math.IsNaN(d1) {
			return false
		}
		return math.Abs(d1-d2) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDistanceTriangleProperty(t *testing.T) {
	f := func(a, b, c, d, e, g int16) bool {
		p := Point{Lat: float64(a % 60), Lon: float64(b % 60)}
		q := Point{Lat: float64(c % 60), Lon: float64(d % 60)}
		r := Point{Lat: float64(e % 60), Lon: float64(g % 60)}
		return DistanceKm(p, r) <= DistanceKm(p, q)+DistanceKm(q, r)+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestOffsetDistanceAgree(t *testing.T) {
	p := Point{Lat: 41, Lon: -3}
	for _, tc := range []struct{ e, n, want float64 }{
		{10, 0, 10},
		{0, 25, 25},
		{30, 40, 50},
	} {
		q := Offset(p, tc.e, tc.n)
		d := DistanceKm(p, q)
		if math.Abs(d-tc.want) > tc.want*0.01+0.01 {
			t.Fatalf("offset (%g,%g) distance = %.3f km, want %.1f", tc.e, tc.n, d, tc.want)
		}
	}
}

func TestBox(t *testing.T) {
	b := Box{MinLat: 1, MinLon: -2, MaxLat: 3, MaxLon: 5}
	for _, p := range []Point{{1, 1}, {3, -2}, {2, 5}} {
		if !b.Contains(p) {
			t.Fatalf("box does not contain member %v", p)
		}
	}
	if b.Contains(Point{0, 0}) {
		t.Fatal("box contains outside point")
	}
	if c := DefaultCountry(); !c.Bounds().Contains(c.Cities[0].Center) {
		t.Fatal("country bounds do not contain the capital")
	}
}

func TestDefaultCountryValid(t *testing.T) {
	c := DefaultCountry()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(c.Cities) < 4 {
		t.Fatalf("expected several cities, got %d", len(c.Cities))
	}
	// The capital must dominate.
	if c.Cities[0].Weight < c.Cities[1].Weight {
		t.Fatal("capital is not the heaviest city")
	}
	// Distances between cities should be country-scale (tens to hundreds
	// of km), which the mobility targets rely on.
	d := DistanceKm(c.Cities[0].Center, c.Cities[1].Center)
	if d < 100 || d > 600 {
		t.Fatalf("capital-port distance = %.0f km", d)
	}
}

func TestCountryValidateErrors(t *testing.T) {
	c := DefaultCountry()
	c.WidthKm = 0
	if err := c.Validate(); err == nil {
		t.Fatal("zero width accepted")
	}

	c = DefaultCountry()
	c.RuralWeight = 0.9 // weights no longer sum to 1
	if err := c.Validate(); err == nil {
		t.Fatal("bad weight sum accepted")
	}

	c = DefaultCountry()
	c.Cities[0].Center = Offset(c.Origin, -500, -500)
	if err := c.Validate(); err == nil {
		t.Fatal("out-of-bounds city accepted")
	}

	c = DefaultCountry()
	c.Cities[0].RadiusKm = 0
	if err := c.Validate(); err == nil {
		t.Fatal("zero-radius city accepted")
	}
}
