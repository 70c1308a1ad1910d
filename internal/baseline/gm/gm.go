// Package gm reimplements the GM baseline (Wang, Gao, Li, Wang, Jin, Sun:
// "De-anonymization of Mobility Trajectories: Dissecting the Gaps between
// Theory and Practice", NDSS 2018) as described there and in Sec. 5.5 of
// the SLIM paper.
//
// GM learns a per-entity mobility model — a spatial Gaussian mixture over
// the entity's record locations plus a Markov transition model over coarse
// grid cells — and scores a cross-dataset pair by the likelihood of one
// entity's records under the other's model (symmetrized). Unlike SLIM it
// also awards record pairs from different temporal windows, which the
// Markov component captures. GM has no scalability mechanism: every cross
// pair is scored, and each score iterates over records × mixture
// components, which is why the paper measures it two orders of magnitude
// slower than SLIM and ST-Link.
//
// As in the paper's evaluation, GM's raw pair scores are fed through
// SLIM's bipartite matching and automated stop threshold to obtain final
// one-to-one links.
package gm

import (
	"math"
	"sort"

	"slim/internal/geo"
	"slim/internal/matching"
	"slim/internal/mathx"
	"slim/internal/model"
	"slim/internal/threshold"
)

// Params configures the GM baseline.
type Params struct {
	// Components is the number of spatial mixture components per entity.
	Components int
	// MarkovLevel is the coarse grid level of the transition model.
	MarkovLevel int
	// EMIterations bounds the per-entity EM fit.
	EMIterations int
}

// DefaultParams returns the configuration used in the comparison
// experiments: 4 components, level-10 transitions.
func DefaultParams() Params {
	return Params{Components: 4, MarkovLevel: 10, EMIterations: 25}
}

// Model is one entity's learned mobility model.
type Model struct {
	weights []float64    // mixture weights
	means   [][2]float64 // lat, lng per component
	stds    [][2]float64 // diagonal std devs per component
	// trans holds log transition probabilities between coarse cells with
	// Laplace smoothing; logStationary the marginal cell log-probs.
	trans         map[[2]geo.CellID]float64
	logStationary map[geo.CellID]float64
	logUnseenCell float64
	logUnseenPair float64
	level         int
}

// Fit learns a model from one entity's time-sorted records.
func Fit(recs []model.Record, p Params) *Model {
	if p.Components <= 0 {
		p.Components = 4
	}
	if p.EMIterations <= 0 {
		p.EMIterations = 25
	}
	if p.MarkovLevel <= 0 {
		p.MarkovLevel = 10
	}
	m := &Model{level: p.MarkovLevel}
	if len(recs) == 0 {
		m.logUnseenCell = math.Log(1e-9)
		m.logUnseenPair = math.Log(1e-9)
		return m
	}
	m.fitSpatial(recs, p)
	m.fitMarkov(recs, p)
	return m
}

// fitSpatial runs a small EM for a diagonal-covariance 2-D GMM over the
// record coordinates, seeded by quantile splits for determinism.
func (m *Model) fitSpatial(recs []model.Record, p Params) {
	k := p.Components
	if k > len(recs) {
		k = len(recs)
	}
	pts := make([][2]float64, len(recs))
	for i, r := range recs {
		pts[i] = [2]float64{r.LatLng.Lat, r.LatLng.Lng}
	}
	// Deterministic init: sort by lat then take quantile centroids.
	idx := make([]int, len(pts))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		if pts[idx[a]][0] != pts[idx[b]][0] {
			return pts[idx[a]][0] < pts[idx[b]][0]
		}
		return pts[idx[a]][1] < pts[idx[b]][1]
	})
	m.weights = make([]float64, k)
	m.means = make([][2]float64, k)
	m.stds = make([][2]float64, k)
	for c := 0; c < k; c++ {
		q := idx[(c*2+1)*(len(idx)-1)/(2*k)]
		m.means[c] = pts[q]
		m.weights[c] = 1 / float64(k)
		m.stds[c] = [2]float64{0.01, 0.01} // ~1km prior scale
	}
	const minStd = 1e-4 // ~10m floor keeps densities finite
	resp := make([][]float64, len(pts))
	for i := range resp {
		resp[i] = make([]float64, k)
	}
	for iter := 0; iter < p.EMIterations; iter++ {
		// E-step.
		for i, pt := range pts {
			var sum float64
			for c := 0; c < k; c++ {
				d := m.weights[c] *
					mathx.NormalPDF(pt[0], m.means[c][0], m.stds[c][0]) *
					mathx.NormalPDF(pt[1], m.means[c][1], m.stds[c][1])
				resp[i][c] = d
				sum += d
			}
			if sum <= 0 {
				for c := 0; c < k; c++ {
					resp[i][c] = 1 / float64(k)
				}
				continue
			}
			for c := 0; c < k; c++ {
				resp[i][c] /= sum
			}
		}
		// M-step.
		for c := 0; c < k; c++ {
			var w, mLat, mLng float64
			for i, pt := range pts {
				w += resp[i][c]
				mLat += resp[i][c] * pt[0]
				mLng += resp[i][c] * pt[1]
			}
			if w < 1e-9 {
				continue
			}
			m.weights[c] = w / float64(len(pts))
			m.means[c] = [2]float64{mLat / w, mLng / w}
			var vLat, vLng float64
			for i, pt := range pts {
				dLat := pt[0] - m.means[c][0]
				dLng := pt[1] - m.means[c][1]
				vLat += resp[i][c] * dLat * dLat
				vLng += resp[i][c] * dLng * dLng
			}
			m.stds[c] = [2]float64{
				math.Max(math.Sqrt(vLat/w), minStd),
				math.Max(math.Sqrt(vLng/w), minStd),
			}
		}
	}
}

// fitMarkov counts coarse-cell transitions with Laplace smoothing.
func (m *Model) fitMarkov(recs []model.Record, p Params) {
	cells := make([]geo.CellID, len(recs))
	for i, r := range recs {
		cells[i] = geo.CellIDFromLatLngLevel(r.LatLng, p.MarkovLevel)
	}
	cellCount := make(map[geo.CellID]int)
	pairCount := make(map[[2]geo.CellID]int)
	for i, c := range cells {
		cellCount[c]++
		if i > 0 {
			pairCount[[2]geo.CellID{cells[i-1], c}]++
		}
	}
	distinct := float64(len(cellCount)) + 1
	m.logStationary = make(map[geo.CellID]float64, len(cellCount))
	for c, n := range cellCount {
		m.logStationary[c] = math.Log((float64(n) + 1) / (float64(len(cells)) + distinct))
	}
	m.logUnseenCell = math.Log(1 / (float64(len(cells)) + distinct))
	m.trans = make(map[[2]geo.CellID]float64, len(pairCount))
	for pr, n := range pairCount {
		m.trans[pr] = math.Log((float64(n) + 1) / (float64(cellCount[pr[0]]) + distinct))
	}
	m.logUnseenPair = math.Log(1 / (float64(len(cells)) + distinct))
}

// LogLikelihood scores a record sequence under the model: average per
// record of (spatial mixture log-density + Markov log-probability).
// Averaging removes the record-count bias so sparse and dense entities are
// comparable.
func (m *Model) LogLikelihood(recs []model.Record) float64 {
	if len(recs) == 0 || len(m.weights) == 0 {
		return math.Inf(-1)
	}
	var total float64
	var prevCell geo.CellID
	for i, r := range recs {
		var density float64
		for c := range m.weights {
			density += m.weights[c] *
				mathx.NormalPDF(r.LatLng.Lat, m.means[c][0], m.stds[c][0]) *
				mathx.NormalPDF(r.LatLng.Lng, m.means[c][1], m.stds[c][1])
		}
		if density < 1e-300 {
			density = 1e-300
		}
		total += math.Log(density)

		cell := geo.CellIDFromLatLngLevel(r.LatLng, m.level)
		if i == 0 {
			if lp, ok := m.logStationary[cell]; ok {
				total += lp
			} else {
				total += m.logUnseenCell
			}
		} else {
			if lp, ok := m.trans[[2]geo.CellID{prevCell, cell}]; ok {
				total += lp
			} else if lp, ok := m.logStationary[cell]; ok {
				// Award revisits of known places even across windows.
				total += lp
			} else {
				total += m.logUnseenPair
			}
		}
		prevCell = cell
	}
	return total / float64(len(recs))
}

// Result is the GM linkage output plus instrumentation.
type Result struct {
	// Links are the final links after SLIM's matcher + stop threshold.
	Links []matching.Edge
	// Matched is the full matching before thresholding.
	Matched []matching.Edge
	// Threshold is the automatically selected stop score.
	Threshold float64
	// PairScores holds every scored cross pair (for hit-precision).
	PairScores []matching.Edge
	// RecordComparisons counts record×component likelihood evaluations.
	RecordComparisons int64
}

// Link fits a model per entity and scores every cross pair, then applies
// SLIM's greedy matching and automated stop threshold over the scores.
func Link(dsE, dsI *model.Dataset, p Params) Result {
	byE := dsE.ByEntity()
	byI := dsI.ByEntity()
	esIDs := dsE.Entities()
	isIDs := dsI.Entities()

	modelsE := make(map[model.EntityID]*Model, len(esIDs))
	for _, u := range esIDs {
		modelsE[u] = Fit(byE[u], p)
	}
	modelsI := make(map[model.EntityID]*Model, len(isIDs))
	for _, v := range isIDs {
		modelsI[v] = Fit(byI[v], p)
	}

	var res Result
	for _, u := range esIDs {
		for _, v := range isIDs {
			// Symmetrized likelihood.
			s := modelsI[v].LogLikelihood(byE[u]) + modelsE[u].LogLikelihood(byI[v])
			res.RecordComparisons += int64(len(byE[u])+len(byI[v])) * int64(p.Components)
			if math.IsInf(s, -1) {
				continue
			}
			res.PairScores = append(res.PairScores, matching.Edge{U: u, V: v, Score: s})
		}
	}
	res.Matched = matching.Greedy(res.PairScores)
	weights := make([]float64, len(res.Matched))
	for i, e := range res.Matched {
		weights[i] = e.Score
	}
	thr := threshold.SelectThreshold(weights)
	res.Threshold = thr.Threshold
	res.Links = matching.FilterThreshold(res.Matched, thr.Threshold)
	return res
}
