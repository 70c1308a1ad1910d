// Package stlink reimplements the ST-Link baseline (Basık, Gedik,
// Etemoğlu, Ferhatosmanoğlu: "Spatio-Temporal Linkage over
// Location-Enhanced Services", IEEE TMC 17(2), 2018) as described there and
// in Sec. 5.5 of the SLIM paper.
//
// ST-Link performs a sliding-window comparison over the records of entity
// pairs and links a pair if it has at least k co-occurring records in at
// least l diverse locations and fewer than the tolerated number of alibi
// record pairs. If an entity qualifies against more than one entity from
// the other dataset, all of its qualifications are considered ambiguous
// and dropped. The k and l values are picked from the trade-off (elbow)
// point of their distributions when not set explicitly.
package stlink

import (
	"sort"

	"slim/internal/geo"
	"slim/internal/history"
	"slim/internal/matching"
	"slim/internal/mathx"
	"slim/internal/model"
)

// Params configures the ST-Link baseline.
type Params struct {
	// Windowing aligns both datasets on one temporal grid.
	Windowing model.Windowing
	// SpatialLevel is the co-occurrence grid level.
	SpatialLevel int
	// MaxSpeedKmPerMin bounds feasible movement; record pairs in the same
	// window farther apart than speed × width are alibis.
	MaxSpeedKmPerMin float64
	// K is the minimum number of co-occurrences (0 = auto via elbow).
	K int
	// L is the minimum number of diverse co-occurrence locations
	// (0 = auto via elbow).
	L int
	// AlibiLimit disqualifies pairs with at least this many alibi record
	// pairs. The SLIM evaluation uses 3.
	AlibiLimit int
}

// DefaultParams mirrors the SLIM evaluation setup: auto k/l, alibi limit 3.
func DefaultParams(w model.Windowing, spatialLevel int) Params {
	return Params{
		Windowing:        w,
		SpatialLevel:     spatialLevel,
		MaxSpeedKmPerMin: 2,
		AlibiLimit:       3,
	}
}

// PairScore carries the evidence ST-Link gathered for one candidate pair.
type PairScore struct {
	U, V model.EntityID
	// Cooccurrences is the number of shared (window, cell) bins.
	Cooccurrences int
	// DiverseLocations is the number of distinct cells among them.
	DiverseLocations int
	// AlibiPairs is the number of impossible same-window record pairs.
	AlibiPairs int
}

// Result is the ST-Link output plus instrumentation.
type Result struct {
	// Links are the unambiguous qualified pairs (weight = co-occurrences).
	Links []matching.Edge
	// Candidates holds every pair that shared at least one bin, with its
	// evidence; used for ranking (hit-precision) and the k/l elbows.
	Candidates []PairScore
	// K and L are the thresholds used (auto-detected when requested).
	K, L int
	// RecordComparisons counts pairwise record comparisons performed.
	RecordComparisons int64
}

// Link runs ST-Link over the two datasets.
func Link(dsE, dsI *model.Dataset, p Params) Result {
	if p.AlibiLimit <= 0 {
		p.AlibiLimit = 3
	}
	runawayKm := p.Windowing.WidthMinutes() * p.MaxSpeedKmPerMin
	se := history.Build(dsE, p.Windowing, p.SpatialLevel)
	si := history.Build(dsI, p.Windowing, p.SpatialLevel)

	// Blocking: inverted index over (window, cell) bins of the I side;
	// pairs sharing at least one bin become candidates — the sliding
	// window comparison only ever links such pairs.
	binToI := make(map[history.Bin][]model.EntityID)
	for _, v := range si.Entities() {
		h := si.History(v)
		h.Bins(func(b history.Bin, _ float64) {
			binToI[b] = append(binToI[b], v)
		})
	}
	type pairKey struct{ u, v model.EntityID }
	cand := make(map[pairKey]bool)
	for _, u := range se.Entities() {
		h := se.History(u)
		h.Bins(func(b history.Bin, _ float64) {
			for _, v := range binToI[b] {
				cand[pairKey{u, v}] = true
			}
		})
	}
	// Deterministic order.
	pairs := make([]pairKey, 0, len(cand))
	for pk := range cand {
		pairs = append(pairs, pk)
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].u != pairs[j].u {
			return pairs[i].u < pairs[j].u
		}
		return pairs[i].v < pairs[j].v
	})

	// The pair loop runs on the stores' compiled views: their cells index
	// the store's cell table, which derives each cell's geometry once — as
	// SLIM's kernel reads it — so the runtime comparison charges both sides
	// the same constant per cell distance.
	res := Result{}
	var cu, cv history.View
	for _, pk := range pairs {
		geomU, _ := se.CompiledView(pk.u, &cu)
		geomV, _ := si.CompiledView(pk.v, &cv)
		ps := PairScore{U: pk.u, V: pk.v}
		diverse := make(map[geo.CellID]bool)
		history.CommonWindows(&cu, &cv, func(_ int64, loU, hiU, loV, hiV int) {
			res.RecordComparisons += int64(history.SumWeights(cu.Counts[loU:hiU])*history.SumWeights(cv.Counts[loV:hiV]) + 0.5)
			for _, ci := range cu.Cells[loU:hiU] {
				a := &geomU[ci]
				for _, cj := range cv.Cells[loV:hiV] {
					b := &geomV[cj]
					if a.ID == b.ID {
						ps.Cooccurrences++
						diverse[a.ID] = true
						continue
					}
					if a.DistanceKm(b) > runawayKm {
						ps.AlibiPairs++
					}
				}
			}
		})
		ps.DiverseLocations = len(diverse)
		if ps.Cooccurrences > 0 || ps.AlibiPairs > 0 {
			res.Candidates = append(res.Candidates, ps)
		}
	}

	res.K, res.L = p.K, p.L
	if res.K <= 0 {
		res.K = elbowThreshold(res.Candidates, func(ps PairScore) int { return ps.Cooccurrences })
	}
	if res.L <= 0 {
		res.L = elbowThreshold(res.Candidates, func(ps PairScore) int { return ps.DiverseLocations })
	}

	// Qualification + ambiguity elimination.
	qualifiedByU := make(map[model.EntityID][]PairScore)
	qualifiedByV := make(map[model.EntityID][]PairScore)
	for _, ps := range res.Candidates {
		if ps.Cooccurrences >= res.K && ps.DiverseLocations >= res.L && ps.AlibiPairs < p.AlibiLimit {
			qualifiedByU[ps.U] = append(qualifiedByU[ps.U], ps)
			qualifiedByV[ps.V] = append(qualifiedByV[ps.V], ps)
		}
	}
	for _, psList := range qualifiedByU {
		if len(psList) != 1 {
			continue // ambiguous on the E side
		}
		ps := psList[0]
		if len(qualifiedByV[ps.V]) != 1 {
			continue // ambiguous on the I side
		}
		res.Links = append(res.Links, matching.Edge{U: ps.U, V: ps.V, Score: float64(ps.Cooccurrences)})
	}
	sort.Slice(res.Links, func(i, j int) bool {
		if res.Links[i].Score != res.Links[j].Score {
			return res.Links[i].Score > res.Links[j].Score
		}
		return res.Links[i].U < res.Links[j].U
	})
	return res
}

// elbowThreshold sorts the metric descending and returns the value at the
// kneedle elbow of the curve — the trade-off point detection the ST-Link
// paper uses to choose k and l.
func elbowThreshold(cands []PairScore, metric func(PairScore) int) int {
	if len(cands) == 0 {
		return 1
	}
	vals := make([]float64, 0, len(cands))
	for _, ps := range cands {
		vals = append(vals, float64(metric(ps)))
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(vals)))
	xs := make([]float64, len(vals))
	for i := range xs {
		xs[i] = float64(i)
	}
	idx := mathx.Kneedle(xs, vals, true)
	if idx < 0 || idx >= len(vals) {
		idx = len(vals) - 1
	}
	thr := int(vals[idx])
	if thr < 1 {
		thr = 1
	}
	return thr
}
