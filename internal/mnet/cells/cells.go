// Package cells models the radio access topology the MME observes: a set
// of sectors (antenna/tower cells) with geographic positions, dense inside
// cities and sparse across the rural remainder. The mobility analysis only
// needs which sector a user attaches to and the distance between sectors,
// so a sector here is a point with an identity.
package cells

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"wearwild/internal/geo"
	"wearwild/internal/randx"
)

// SectorID identifies one sector. IDs are dense, starting at 1; 0 means
// "no sector".
type SectorID uint32

// Sector is one antenna sector.
type Sector struct {
	ID   SectorID
	Pos  geo.Point
	City string // "" for rural sectors
}

// Config controls topology synthesis.
type Config struct {
	// UrbanSectors is the total number of sectors distributed across
	// cities proportionally to their population weight.
	UrbanSectors int
	// RuralSectors is the number of sectors scattered uniformly over the
	// whole country.
	RuralSectors int
}

// DefaultConfig returns a country-scale topology: a few thousand sectors,
// most of them urban, which yields realistic ~1 km urban and ~20 km rural
// inter-site distances at the default country size.
func DefaultConfig() Config {
	return Config{UrbanSectors: 2200, RuralSectors: 800}
}

// Topology is an immutable sector map with an exact nearest-sector index:
// a k-d tree over the sectors' unit vectors.
type Topology struct {
	sectors []Sector
	tree    []kdNode
}

// Build synthesises a topology over the country using the supplied stream.
func Build(country geo.Country, cfg Config, r *randx.Rand) (*Topology, error) {
	if err := country.Validate(); err != nil {
		return nil, err
	}
	if cfg.UrbanSectors < 0 || cfg.RuralSectors < 0 || cfg.UrbanSectors+cfg.RuralSectors == 0 {
		return nil, fmt.Errorf("cells: need a positive sector count")
	}

	total := cfg.UrbanSectors + cfg.RuralSectors
	sectors := make([]Sector, 0, total)
	nextID := SectorID(1)

	cityWeight := country.TotalCityWeight()
	for _, city := range country.Cities {
		n := 0
		if cityWeight > 0 {
			n = int(math.Round(float64(cfg.UrbanSectors) * city.Weight / cityWeight))
		}
		cr := r.Split("city", uint64(nextID))
		for i := 0; i < n; i++ {
			// Gaussian scatter truncated to ~2 radii keeps the city
			// footprint compact with a denser core.
			var east, north float64
			for {
				east = cr.NormFloat64() * city.RadiusKm / 2
				north = cr.NormFloat64() * city.RadiusKm / 2
				if math.Hypot(east, north) <= 2*city.RadiusKm {
					break
				}
			}
			sectors = append(sectors, Sector{
				ID:   nextID,
				Pos:  geo.Offset(city.Center, east, north),
				City: city.Name,
			})
			nextID++
		}
	}
	rr := r.Split("rural", 0)
	for i := 0; i < cfg.RuralSectors; i++ {
		east := rr.Float64() * country.WidthKm
		north := rr.Float64() * country.HeightKm
		sectors = append(sectors, Sector{
			ID:  nextID,
			Pos: geo.Offset(country.Origin, east, north),
		})
		nextID++
	}

	return &Topology{sectors: sectors, tree: buildTree(sectors)}, nil
}

// Len returns the number of sectors.
func (t *Topology) Len() int { return len(t.sectors) }

// Sector returns the sector with the given ID.
func (t *Topology) Sector(id SectorID) (Sector, bool) {
	i := int(id) - 1
	if i < 0 || i >= len(t.sectors) {
		return Sector{}, false
	}
	return t.sectors[i], true
}

// DistanceKm returns the great-circle distance between two sectors. Unknown
// IDs yield 0.
func (t *Topology) DistanceKm(a, b SectorID) float64 {
	sa, oka := t.Sector(a)
	sb, okb := t.Sector(b)
	if !oka || !okb {
		return 0
	}
	return geo.DistanceKm(sa.Pos, sb.Pos)
}

// Nearest returns the sector closest to the point: the same ID as
// NearestLinear for every point, ties included, found through the k-d tree.
func (t *Topology) Nearest(p geo.Point) SectorID {
	// Points past maxTreeDeg, NaN and Inf take the brute-force scan.
	if !(math.Abs(p.Lat) <= maxTreeDeg && math.Abs(p.Lon) <= maxTreeDeg) {
		return t.NearestLinear(p)
	}
	q := nearestQuery{sectors: t.sectors, p: p, u: unitVector(p), best: -1, bestD: math.Inf(1), bound: math.Inf(1)}
	q.search(t.tree)
	if q.best < 0 {
		return 0
	}
	return t.sectors[q.best].ID
}

// NearestLinear scans every sector and returns the first one at the least
// geo.DistanceKm. It defines Nearest's answer, is its test oracle, and
// answers the points Nearest leaves to it.
func (t *Topology) NearestLinear(p geo.Point) SectorID {
	best := SectorID(0)
	bestD := math.Inf(1)
	for _, s := range t.sectors {
		if d := geo.DistanceKm(p, s.Pos); d < bestD {
			bestD = d
			best = s.ID
		}
	}
	return best
}

// The haversine term geo.DistanceKm takes asin(sqrt(·)) of equals a
// quarter of the squared chord between the points' unit vectors, for any
// lat/lon, so the tree prunes on chord². The slack covers the rounding gap
// between the two computations; every sector within it is settled with
// DistanceKm itself. The gap grows with the size of the coordinates:
// maxTreeDeg is far past any generated point (long excursions reach
// latitude 162°) and a tenth of the 10⁴° up to which near-ties tested
// exact.
const (
	slackRel   = 1e-9
	slackAbs   = 1e-18
	maxTreeDeg = 1000
)

// kdNode is one sector of the k-d tree. The tree is implicit in a slice:
// a subtree's root sits at the middle of its range, with the sectors at or
// below it on axis to the left and those at or above it to the right.
type kdNode struct {
	v    [3]float64 // unit vector of the sector position
	i    int32      // index into sectors
	axis uint8
}

func unitVector(p geo.Point) [3]float64 {
	const degToRad = math.Pi / 180
	sinLat, cosLat := math.Sincos(p.Lat * degToRad)
	sinLon, cosLon := math.Sincos(p.Lon * degToRad)
	return [3]float64{cosLat * cosLon, cosLat * sinLon, sinLat}
}

func buildTree(sectors []Sector) []kdNode {
	nodes := make([]kdNode, len(sectors))
	for i, s := range sectors {
		nodes[i] = kdNode{v: unitVector(s.Pos), i: int32(i)}
	}
	splitTree(nodes)
	return nodes
}

// splitTree orders nodes into a subtree: the median along the widest axis
// in the middle, the halves split recursively.
func splitTree(nodes []kdNode) {
	if len(nodes) < 2 {
		return
	}
	axis, widest := 0, -1.0
	for a := range 3 {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, n := range nodes {
			lo, hi = min(lo, n.v[a]), max(hi, n.v[a])
		}
		if hi-lo > widest {
			axis, widest = a, hi-lo
		}
	}
	slices.SortFunc(nodes, func(a, b kdNode) int {
		return cmp.Or(cmp.Compare(a.v[axis], b.v[axis]), cmp.Compare(a.i, b.i))
	})
	mid := len(nodes) / 2
	nodes[mid].axis = uint8(axis)
	splitTree(nodes[:mid])
	splitTree(nodes[mid+1:])
}

// nearestQuery is one Nearest search. bound is the best sector's chord²
// widened by the slack: no sector beyond it can beat the best.
type nearestQuery struct {
	sectors []Sector
	p       geo.Point
	u       [3]float64
	best    int32
	bestD   float64
	bound   float64
}

func (q *nearestQuery) search(nodes []kdNode) {
	if len(nodes) == 0 {
		return
	}
	mid := len(nodes) / 2
	n := &nodes[mid]
	near, far := nodes[:mid], nodes[mid+1:]
	diff := q.u[n.axis] - n.v[n.axis]
	if diff > 0 {
		near, far = far, near
	}
	// The near side first: it usually holds the best sector, and the
	// bound it leaves spares the haversine of this node and the far side.
	q.search(near)
	dx, dy, dz := q.u[0]-n.v[0], q.u[1]-n.v[1], q.u[2]-n.v[2]
	if c := dx*dx + dy*dy + dz*dz; c <= q.bound {
		d := geo.DistanceKm(q.p, q.sectors[n.i].Pos)
		if d < q.bestD || (d == q.bestD && n.i < q.best) {
			q.best, q.bestD = n.i, d
			q.bound = c*(1+slackRel) + slackAbs
		}
	}
	if diff*diff <= q.bound {
		q.search(far)
	}
}
