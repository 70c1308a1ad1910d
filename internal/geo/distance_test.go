package geo

import (
	"math"
	"math/rand"
	"testing"
)

// vertexCellDistanceKm is the distance as it was written before a cell's
// centre and circumradius became stored values: everything re-derived from
// the two ids, both circumradii rebuilt from four vertices each, on every
// call. It shares no code with CellGeom.
func vertexCellDistanceKm(a, b CellID) float64 {
	if a == b || a.Contains(b) || b.Contains(a) {
		return 0
	}
	angle := a.Center().Angle(b.Center()) - a.CircumradiusRad() - b.CircumradiusRad()
	if angle <= 0 {
		return 0
	}
	return angle * EarthRadiusKm
}

// TestGeomDistanceIsTheSameArithmetic holds the distance over stored
// geometry to the per-call formula bit for bit, in both argument orders
// (the two orders may differ from each other; each must equal its own
// counterpart), over seeded cell pairs of every kind the scorer can meet:
// unrelated cells at independent levels 4–24 (across cube faces more often
// than not), same-level pairs, antipodal, edge-adjacent, identical, and
// ancestor/descendant pairs. The geometry is read from a table filled once
// and reused across pairs, the way a history.Store serves it.
func TestGeomDistanceIsTheSameArithmetic(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	level := func() int { return 4 + r.Intn(21) }
	table := map[CellID]int{}
	var geoms []CellGeom
	geom := func(c CellID) *CellGeom {
		i, ok := table[c]
		if !ok {
			i = len(geoms)
			table[c] = i
			geoms = append(geoms, GeomOf(c))
		}
		return &geoms[i]
	}
	kinds := []struct {
		name string
		draw func() (CellID, CellID)
	}{
		{"independent", func() (CellID, CellID) {
			return CellIDFromLatLngLevel(randomLatLng(r), level()), CellIDFromLatLngLevel(randomLatLng(r), level())
		}},
		{"same level", func() (CellID, CellID) {
			l := level()
			return CellIDFromLatLngLevel(randomLatLng(r), l), CellIDFromLatLngLevel(randomLatLng(r), l)
		}},
		{"antipodal", func() (CellID, CellID) {
			ll, l := randomLatLng(r), level()
			anti := LatLngFromDegrees(-ll.Lat, ll.Lng+180)
			return CellIDFromLatLngLevel(ll, l), CellIDFromLatLngLevel(anti, l)
		}},
		{"adjacent", func() (CellID, CellID) {
			// A point one edge length away lands in the next cell or the one
			// after: near enough that the bound clamps at zero or just above.
			ll, l := randomLatLng(r), level()
			step := ApproxCellEdgeKm(l) / EarthRadiusKm * 180 / math.Pi
			next := LatLngFromDegrees(ll.Lat+step*float64(r.Intn(3)-1), ll.Lng+step*float64(r.Intn(2)*2-1))
			return CellIDFromLatLngLevel(ll, l), CellIDFromLatLngLevel(next, l)
		}},
		{"identical", func() (CellID, CellID) {
			c := CellIDFromLatLngLevel(randomLatLng(r), level())
			return c, c
		}},
		{"ancestor", func() (CellID, CellID) {
			c := CellIDFromLatLngLevel(randomLatLng(r), 5+r.Intn(20))
			return c, c.Parent(4 + r.Intn(c.Level()-4))
		}},
	}
	const perKind = 2000
	crossFace, positive := 0, 0
	for _, kind := range kinds {
		name, draw := kind.name, kind.draw
		for n := 0; n < perKind; n++ {
			a, b := draw()
			for _, p := range [2][2]CellID{{a, b}, {b, a}} {
				want := vertexCellDistanceKm(p[0], p[1])
				if got := CellDistanceKm(p[0], p[1]); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s: CellDistanceKm(%v, %v) = %x, per-call formula %x", name, p[0], p[1], math.Float64bits(got), math.Float64bits(want))
				}
				if got := geom(p[0]).DistanceKm(geom(p[1])); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s: stored-geometry distance (%v, %v) = %x, per-call formula %x", name, p[0], p[1], math.Float64bits(got), math.Float64bits(want))
				}
				if want > 0 {
					positive++
				}
			}
			if a.Face() != b.Face() {
				crossFace++
			}
		}
	}
	if n := perKind * len(kinds); n < 10000 || crossFace < n/4 || positive < n/2 {
		t.Fatalf("weak draw: %d pairs, %d across faces, %d positive distances", n, crossFace, positive)
	}
}
