package cells

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"wearwild/internal/geo"
	"wearwild/internal/randx"
)

func buildDefault(t testing.TB) *Topology {
	t.Helper()
	topo, err := Build(geo.DefaultCountry(), DefaultConfig(), randx.New(1))
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func TestBuildCounts(t *testing.T) {
	topo := buildDefault(t)
	cfg := DefaultConfig()
	want := cfg.UrbanSectors + cfg.RuralSectors
	// City rounding may shift the count by a handful.
	if topo.Len() < want-10 || topo.Len() > want+10 {
		t.Fatalf("sector count = %d, want ≈%d", topo.Len(), want)
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build(geo.DefaultCountry(), Config{}, randx.New(1)); err == nil {
		t.Fatal("zero sectors accepted")
	}
	if _, err := Build(geo.DefaultCountry(), Config{UrbanSectors: -1, RuralSectors: 5}, randx.New(1)); err == nil {
		t.Fatal("negative sectors accepted")
	}
	bad := geo.DefaultCountry()
	bad.WidthKm = 0
	if _, err := Build(bad, DefaultConfig(), randx.New(1)); err == nil {
		t.Fatal("invalid country accepted")
	}
}

func TestBuildDeterministic(t *testing.T) {
	a := buildDefault(t)
	b := buildDefault(t)
	if a.Len() != b.Len() {
		t.Fatal("lengths differ across identical builds")
	}
	for i, s := range a.sectors {
		if b.sectors[i] != s {
			t.Fatalf("sector %d differs", i)
		}
	}
}

func TestSectorLookup(t *testing.T) {
	topo := buildDefault(t)
	s, ok := topo.Sector(1)
	if !ok || s.ID != 1 {
		t.Fatalf("sector 1 = %v, %v", s, ok)
	}
	if _, ok := topo.Sector(0); ok {
		t.Fatal("sector 0 resolved")
	}
	if _, ok := topo.Sector(SectorID(topo.Len() + 1)); ok {
		t.Fatal("out-of-range sector resolved")
	}
}

func TestUrbanDensity(t *testing.T) {
	topo := buildDefault(t)
	country := geo.DefaultCountry()
	capital := country.Cities[0]

	inCapital := 0
	for _, s := range topo.sectors {
		if geo.DistanceKm(s.Pos, capital.Center) <= capital.RadiusKm*2 {
			inCapital++
		}
	}
	// The capital holds 28% of city weight; its footprint is <1% of the
	// country area, so density must be far above uniform.
	areaFrac := (capital.RadiusKm * 2) * (capital.RadiusKm * 2) * 3.15 / (country.WidthKm * country.HeightKm)
	uniformShare := int(areaFrac * float64(topo.Len()))
	if inCapital < 5*uniformShare {
		t.Fatalf("capital sectors = %d, uniform expectation = %d: not dense", inCapital, uniformShare)
	}
	// City sectors carry their city name; rural do not.
	named, rural := 0, 0
	for _, s := range topo.sectors {
		if s.City != "" {
			named++
		} else {
			rural++
		}
	}
	if named == 0 || rural == 0 {
		t.Fatalf("named=%d rural=%d: both kinds must exist", named, rural)
	}
}

// checkSameAsLinear fails at the first point where Nearest and
// NearestLinear return different sectors: the contract is the same ID, so
// an equidistant sector with a higher ID is a failure too.
func checkSameAsLinear(t *testing.T, topo *Topology, pts []geo.Point) {
	t.Helper()
	for _, p := range pts {
		if got, want := topo.Nearest(p), topo.NearestLinear(p); got != want {
			sg, _ := topo.Sector(got)
			sw, _ := topo.Sector(want)
			t.Fatalf("point (%.5f, %.5f): Nearest %d at %.6f km, NearestLinear %d at %.6f km",
				p.Lat, p.Lon, got, geo.DistanceKm(p, sg.Pos), want, geo.DistanceKm(p, sw.Pos))
		}
	}
}

// queryPoints returns n seeded points spread over the country and a
// margin of 300 km around it, every sector position, midpoints of up to
// about 1000 pairs of consecutive sectors (near-ties), and points past the
// poles and the antimeridian.
func queryPoints(topo *Topology, n int, seed uint64) []geo.Point {
	country := geo.DefaultCountry()
	r := randx.New(seed)
	pts := []geo.Point{
		{Lat: 161.99714, Lon: 56.17463}, // an excursion beyond the pole
		{Lat: 89.99999, Lon: 17.5},
		{Lat: -89.99999, Lon: -179.99},
		{Lat: 41, Lon: 179.99},
	}
	for range n {
		east := -300 + r.Float64()*(country.WidthKm+600)
		north := -300 + r.Float64()*(country.HeightKm+600)
		pts = append(pts, geo.Offset(country.Origin, east, north))
	}
	secs := topo.sectors
	stride := max(1, len(secs)/1000)
	for i, s := range secs {
		pts = append(pts, s.Pos)
		if o := secs[(i+1)%len(secs)].Pos; i%stride == 0 {
			pts = append(pts, geo.Point{Lat: (s.Pos.Lat + o.Lat) / 2, Lon: (s.Pos.Lon + o.Lon) / 2})
		}
	}
	return pts
}

// TestNearestMatchesLinear compares the index with the brute-force scan
// on topologies of 3 to 3000 sectors. The seeded point count shrinks as
// the topology grows, keeping each scan under about 20M haversines.
func TestNearestMatchesLinear(t *testing.T) {
	for _, c := range []struct {
		cfg    Config
		points int
	}{
		{Config{UrbanSectors: 0, RuralSectors: 3}, 20000},
		{Config{UrbanSectors: 30, RuralSectors: 10}, 20000},
		{Config{UrbanSectors: 500, RuralSectors: 200}, 8000},
		{DefaultConfig(), 2000},
	} {
		topo, err := Build(geo.DefaultCountry(), c.cfg, randx.New(1))
		if err != nil {
			t.Fatal(err)
		}
		t.Run(fmt.Sprintf("sectors=%d", topo.Len()), func(t *testing.T) {
			t.Parallel()
			checkSameAsLinear(t, topo, queryPoints(topo, c.points, 77))
		})
	}
}

// TestNearestTies pins the tie rule on exact ties: every sector has a
// duplicate at a higher ID, and pairs mirrored across the prime meridian
// are equidistant from points on it. The lower ID must win.
func TestNearestTies(t *testing.T) {
	var secs []Sector
	add := func(p geo.Point) {
		secs = append(secs, Sector{ID: SectorID(len(secs) + 1), Pos: p})
	}
	for lat := 40.0; lat < 45; lat += 0.5 {
		for lon := 0.25; lon < 3; lon += 0.5 {
			add(geo.Point{Lat: lat, Lon: lon})
			add(geo.Point{Lat: lat, Lon: -lon})
		}
	}
	for _, s := range slices.Clone(secs) {
		add(s.Pos)
	}
	topo := &Topology{sectors: secs, tree: buildTree(secs)}
	var pts []geo.Point
	for lat := 39.75; lat < 45.5; lat += 0.25 {
		pts = append(pts, geo.Point{Lat: lat, Lon: 0})
	}
	for _, s := range secs {
		pts = append(pts, s.Pos)
	}
	checkSameAsLinear(t, topo, pts)
	if got := topo.Nearest(secs[len(secs)-1].Pos); got != SectorID(len(secs)/2) {
		t.Fatalf("duplicate position resolved to %d, want the lower ID %d", got, len(secs)/2)
	}
}

func TestNearestOutsideBounds(t *testing.T) {
	topo := buildDefault(t)
	country := geo.DefaultCountry()
	// Far outside the country, and outside any coordinate range, the
	// query must still resolve to the brute-force answer.
	pts := []geo.Point{
		geo.Offset(country.Origin, -200, -200),
		{Lat: 5000, Lon: -3},
		{Lat: 42, Lon: -1e12},
	}
	checkSameAsLinear(t, topo, pts)
	if topo.Nearest(pts[0]) == 0 {
		t.Fatal("no sector found for outside point")
	}
}

func TestNearestAllocs(t *testing.T) {
	topo := buildDefault(t)
	p := geo.DefaultCountry().Cities[0].Center
	if n := testing.AllocsPerRun(100, func() { topo.Nearest(p) }); n != 0 {
		t.Fatalf("Nearest allocates %.0f times per call, want 0", n)
	}
}

// FuzzNearest checks the same-ID contract on arbitrary finite points.
func FuzzNearest(f *testing.F) {
	topo := buildDefault(f)
	for _, p := range []geo.Point{
		{Lat: 41.5, Lon: -1.2},
		{Lat: 161.99714, Lon: 56.17463},
		{Lat: -90, Lon: 180},
		{Lat: maxTreeDeg, Lon: -maxTreeDeg},
		{Lat: 1e300, Lon: -1e-300},
	} {
		f.Add(p.Lat, p.Lon)
	}
	f.Fuzz(func(t *testing.T, lat, lon float64) {
		if math.IsNaN(lat) || math.IsNaN(lon) || math.IsInf(lat, 0) || math.IsInf(lon, 0) {
			t.Skip("not a finite point")
		}
		checkSameAsLinear(t, topo, []geo.Point{{Lat: lat, Lon: lon}})
	})
}

func TestDistanceKm(t *testing.T) {
	topo := buildDefault(t)
	if topo.DistanceKm(1, 1) != 0 {
		t.Fatal("self distance not 0")
	}
	if topo.DistanceKm(0, 1) != 0 || topo.DistanceKm(1, SectorID(topo.Len()+5)) != 0 {
		t.Fatal("unknown sector distance not 0")
	}
	d12 := topo.DistanceKm(1, 2)
	d21 := topo.DistanceKm(2, 1)
	if d12 != d21 {
		t.Fatal("distance not symmetric")
	}
}

func TestTinyTopology(t *testing.T) {
	topo, err := Build(geo.DefaultCountry(), Config{UrbanSectors: 0, RuralSectors: 3}, randx.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if topo.Len() != 3 {
		t.Fatalf("len = %d", topo.Len())
	}
	p := topo.sectors[2].Pos
	if got := topo.Nearest(p); got != topo.sectors[2].ID {
		t.Fatalf("nearest to own position = %d", got)
	}
}

// cityPoints draws query points the way traffic arrives: by population
// weight, around a city centre or uniformly over the rural remainder.
func cityPoints(n int, seed uint64) []geo.Point {
	country := geo.DefaultCountry()
	r := randx.New(seed)
	pts := make([]geo.Point, n)
	for i := range pts {
		x := r.Float64()
		pts[i] = geo.Offset(country.Origin, r.Float64()*country.WidthKm, r.Float64()*country.HeightKm)
		for _, c := range country.Cities {
			if x -= c.Weight; x < 0 {
				pts[i] = geo.Offset(c.Center, r.NormFloat64()*c.RadiusKm, r.NormFloat64()*c.RadiusKm)
				break
			}
		}
	}
	return pts
}

func BenchmarkNearest(b *testing.B) {
	topo := buildDefault(b)
	pts := cityPoints(1024, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		topo.Nearest(pts[i%len(pts)])
	}
}

func BenchmarkNearestLinear(b *testing.B) {
	topo := buildDefault(b)
	pts := cityPoints(1024, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		topo.NearestLinear(pts[i%len(pts)])
	}
}
