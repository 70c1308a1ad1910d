package history

import "slim/internal/geo"

// dominatingCellNaive recomputes the dominating cell of one window from
// the public bin iteration with a plain map; the tests validate
// DominatingCell against it.
func (h *History) dominatingCellNaive(window int64) (geo.CellID, bool) {
	counts := make(map[geo.CellID]float64)
	h.Bins(func(b Bin, n float64) {
		if b.Window == window {
			counts[b.Cell] += n
		}
	})
	if len(counts) == 0 {
		return 0, false
	}
	var best geo.CellID
	bestN := -1.0
	for c, n := range counts {
		if n > bestN || (n == bestN && c < best) {
			best, bestN = c, n
		}
	}
	return best, true
}

// dominatingCellAt is DominatingCell over the window at position k of
// Windows(), found with the walk the signature pass uses.
func (h *History) dominatingCellAt(k int) geo.CellID {
	var cell geo.CellID
	h.EachWindow(func(_ int64, lo, hi int) {
		if k == 0 {
			cell = h.DominatingCell(lo, hi)
		}
		k--
	})
	return cell
}
