package geo

// CellGeom is everything the cell distance reads of one cell: its id, its
// centre unit vector and its circumradius. The last two are derived from
// the id alone, so a table of cells computes them once per cell (GeomOf)
// instead of once per distance.
type CellGeom struct {
	ID     CellID
	Center Point
	Radius float64 // CircumradiusRad
}

// GeomOf derives the geometry of cell c.
func GeomOf(c CellID) CellGeom {
	return CellGeom{ID: c, Center: c.Center(), Radius: c.CircumradiusRad()}
}

// DistanceKm returns a lower bound on the minimum geographical distance
// between any point of cell a and any point of cell b, in kilometers.
//
// SLIM uses this as the distance d(e.c, i.c) in the proximity function
// (Eq. 1). A lower bound is the right choice for alibi semantics: it can
// never falsely declare two adjacent cells to be farther apart than the
// runaway distance, so an alibi penalty is only ever applied to pairs that
// are truly far apart.
//
// The bound is computed as the great-circle distance between cell centers
// minus both circumradii, clamped at zero. Identical cells and
// ancestor/descendant pairs are at distance zero by definition. The two
// radii are subtracted in argument order, so the result is not
// bit-symmetric in a and b: callers that need one value per unordered pair
// fix the order themselves.
func (a *CellGeom) DistanceKm(b *CellGeom) float64 {
	if a.ID == b.ID || a.ID.Contains(b.ID) || b.ID.Contains(a.ID) {
		return 0
	}
	angle := a.Center.Angle(b.Center) - a.Radius - b.Radius
	if angle <= 0 {
		return 0
	}
	return angle * EarthRadiusKm
}

// CellDistanceKm is DistanceKm over the geometry of two cell ids, derived
// on the spot.
func CellDistanceKm(a, b CellID) float64 {
	ga, gb := GeomOf(a), GeomOf(b)
	return ga.DistanceKm(&gb)
}

// ApproxCellEdgeKm returns the approximate edge length in kilometers of a
// cell at the given level. Useful for choosing spatial detail levels: each
// level halves the edge length, level 12 cells are roughly 2 km across.
func ApproxCellEdgeKm(level int) float64 {
	if level < 0 {
		level = 0
	}
	if level > MaxLevel {
		level = MaxLevel
	}
	// A face spans a quarter of the circumference; each level halves it.
	quarter := EarthRadiusKm * 3.14159265358979 / 2
	return quarter / float64(uint64(1)<<uint(level))
}
