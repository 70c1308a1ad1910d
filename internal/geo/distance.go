package geo

// CellDistanceKm returns a lower bound on the minimum geographical distance
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
// ancestor/descendant pairs are at distance zero by definition.
func CellDistanceKm(a, b CellID) float64 {
	if a == b || a.Contains(b) || b.Contains(a) {
		return 0
	}
	angle := a.Center().Angle(b.Center()) - a.CircumradiusRad() - b.CircumradiusRad()
	if angle <= 0 {
		return 0
	}
	return angle * EarthRadiusKm
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
