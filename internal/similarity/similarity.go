// Package similarity implements SLIM's mobility-history similarity score
// (Sec. 3.1): the time-location bin proximity function P (Eq. 1), the
// mutually-nearest-neighbor pairing N and mutually-furthest-neighbor
// pairing N′ (alibi detection), the IDF uniqueness award (Eq. 3), and the
// BM25-style history-length normalization L, aggregated into the score
// S(u,v) of Eq. 2.
//
// The scorer also exposes the ablation switches exercised by the paper's
// Sec. 5.4 study: all-pairs pairing instead of MNN, disabling the optional
// MFN pass, disabling IDF, and disabling normalization.
//
// Scoring runs on the compiled read path of internal/history: flat
// per-bin cell/weight/df columns instead of the build-time maps, a bin's
// IDF weight read from its store's table by document frequency, with
// all per-call state held in pooled per-goroutine scratch buffers. A cell
// distance is arithmetic on two entries of the stores' cell tables, which
// carry each cell's centre and circumradius; the kernel remembers nothing
// from one window pair to the next. A warm
// Score call performs zero heap allocations (enforced by
// TestScoreWarmZeroAllocs) while producing bit-identical scores to the
// original map-walking implementation (enforced by the compiled-vs-map
// parity tests).
//
// The pair-scale entry point is ScoreOrd, over the two sides' entity
// ordinals (history.Ordinals): it reaches both compiled views and both
// normalization factors by slice index, and adds the pair's work counts
// to a tally its caller owns (Stats), so concurrent callers share no
// counter and the scorer keeps no running total. A store is compiled as a
// whole (one stamp per store against its IDF epoch), so a view fetch is
// one atomic load and takes no lock once the store is current. Score,
// ProbeRatio and ScoreBreakdown take entity ids, resolve them once and
// count nothing.
//
// There is one implementation of the window pairing, scoreWindow, reached
// through one fetch of a pair's views (fetch) and one walk over its common
// windows (run, over history.CommonWindows). ScoreOrd runs it bare;
// ScoreBreakdown and ProbeRatio run the same code with a recorder attached
// and read what it added, so the three cannot drift. The map-walking port in parity_test.go is the
// independent oracle.
package similarity

import (
	"math"
	"slices"
	"sync"

	"slim/internal/geo"
	"slim/internal/history"
	"slim/internal/model"
)

// PairingMode selects how time-location bin pairs are formed per window.
type PairingMode int

const (
	// PairingMNN is the paper's default: greedy mutually-nearest-neighbor
	// pairing until the smaller side is exhausted.
	PairingMNN PairingMode = iota
	// PairingAllPairs matches every cross pair of bins in the window (the
	// "All Pairs" ablation of Fig. 10).
	PairingAllPairs
)

// logArgFloor clamps the argument of the log2 in the proximity function
// so that a single extreme alibi contributes a large but finite penalty
// (P >= -20) instead of -Inf. It is below 1, which is what lets isAlibi
// stand for Proximity's sign.
const logArgFloor = 1.0 / (1 << 20)

// Params configures the similarity computation.
type Params struct {
	// RunawayKm is R: the maximum distance an entity can travel within one
	// temporal window (window width × maximum speed).
	RunawayKm float64
	// B is the BM25-style length-normalization strength in [0, 1].
	B float64
	// Pairing selects MNN (default) or all-pairs bin pairing.
	Pairing PairingMode
	// UseMFN enables the optional mutually-furthest-neighbor alibi pass.
	UseMFN bool
	// UseIDF enables the IDF uniqueness award.
	UseIDF bool
	// UseNorm enables the history-length normalization.
	UseNorm bool
}

// DefaultParams returns the paper's default configuration for the given
// temporal window width and maximum entity speed (the paper uses
// 2 km/minute, the US-highway-derived bound).
func DefaultParams(windowMinutes, maxSpeedKmPerMin float64) Params {
	return Params{
		RunawayKm: windowMinutes * maxSpeedKmPerMin,
		B:         0.5,
		Pairing:   PairingMNN,
		UseMFN:    true,
		UseIDF:    true,
		UseNorm:   true,
	}
}

// Proximity evaluates Eq. 1 for a pair of same-window bins at the given
// cell distance: log2(2 − min(d/R, 2)), with the log argument clamped at
// logArgFloor. The result is 1 for identical cells, 0 at the runaway
// distance, and negative (an alibi) beyond it: its sign is isAlibi's
// answer.
func Proximity(distKm, runawayKm float64) float64 {
	if runawayKm <= 0 {
		if distKm == 0 {
			return 1
		}
		return math.Log2(logArgFloor)
	}
	ratio := distKm / runawayKm
	if ratio > 2 {
		ratio = 2
	}
	arg := 2 - ratio
	if arg < logArgFloor {
		arg = logArgFloor
	}
	return math.Log2(arg)
}

// isAlibi reports whether Proximity is negative at the given distance,
// without the logarithm: the ratio it tests is the expression Proximity
// clamps, and the clamp (logArgFloor) is below 1.
func isAlibi(distKm, runawayKm float64) bool {
	if runawayKm <= 0 {
		return distKm != 0
	}
	return distKm/runawayKm > 1
}

// Stats is a tally of the scoring work the paper's evaluation reports
// (Sec. 5). ScoreOrd adds each pair's counts to the tally its caller
// passes; a caller scoring on several goroutines gives each its own and
// sums them when they are done.
type Stats struct {
	// BinComparisons counts time-location bin pair distance evaluations.
	BinComparisons int64
	// RecordComparisons counts the equivalent pairwise record comparisons
	// (the product of per-window record counts of the two entities), the
	// measure behind Fig. 4d / 5d / 11d.
	RecordComparisons int64
	// AlibiBinPairs counts bin pairs whose proximity was negative.
	AlibiBinPairs int64
}

// Scorer computes similarity scores between entities of two history stores.
type Scorer struct {
	E, I *history.Store
	Par  Params

	// pool holds per-goroutine scratch state (distance matrix, argsort
	// order, pairing masks) so warm Score calls allocate nothing and share
	// no locks.
	pool sync.Pool
}

// scratch is the per-goroutine working state of one scoring call. Buffers
// grow to the largest window pair seen and are reused; nothing in it
// outlives a window pair, so what a scratch retains is bounded by the
// largest window pair, not by how many distinct cells were ever scored.
type scratch struct {
	dist   []float64
	order  []int32
	usedU  []bool
	usedV  []bool
	sel    []bool // all-false between windows; reset via selIDs
	selIDs []int32
}

func (sc *scratch) floats(n int) []float64 {
	if cap(sc.dist) < n {
		sc.dist = make([]float64, n)
	}
	return sc.dist[:n]
}

func (sc *scratch) ints(n int) []int32 {
	if cap(sc.order) < n {
		sc.order = make([]int32, n)
	}
	return sc.order[:n]
}

// selMask returns the selected-pair mask without clearing: the mask is
// kept all-false between windows by resetting exactly the entries set
// (selIDs), and fresh allocations are zeroed.
func (sc *scratch) selMask(n int) []bool {
	if cap(sc.sel) < n {
		sc.sel = make([]bool, n)
	}
	return sc.sel[:n]
}

func grownBools(buf *[]bool, n int) []bool {
	if cap(*buf) < n {
		*buf = make([]bool, n)
		return *buf
	}
	b := (*buf)[:n]
	clear(b)
	return b
}

// NewScorer builds a scorer over the two stores. The stores may be the same
// object (used for the self-similarity queries of the auto-tuner).
func NewScorer(e, i *history.Store, p Params) *Scorer {
	s := &Scorer{E: e, I: i, Par: p}
	s.pool.New = func() any { return new(scratch) }
	return s
}

// Score computes S(u, v) per Eq. 2 / Alg. 1 for u in store E and v in
// store I. Unknown entities score 0. It is ScoreOrd by entity id, counting
// nothing: the two ids are resolved once.
func (s *Scorer) Score(u, v model.EntityID) float64 {
	var pv pairViews
	if !s.fetchByID(&pv, u, v) {
		return 0
	}
	return s.run(&s.Par, &pv, nil, nil)
}

// pairViews is everything the kernel reads of one pair: both compiled
// views with their stores' cell tables, and the length normalization
// (lu, lv and the product the terms are divided by, clamped to 1 when
// non-positive). The stores fill the views in place, so fetching a pair
// allocates and copies nothing per entity.
type pairViews struct {
	cu, cv       history.View
	geomU, geomV []geo.CellGeom
	lu, lv, norm float64
}

// fetch loads the pair's views into pv; it reports false when either
// ordinal has no history.
func (s *Scorer) fetch(pv *pairViews, u, v uint32) bool {
	var okU, okV bool
	pv.geomU, okU = s.E.CompiledViewAt(u, &pv.cu)
	pv.geomV, okV = s.I.CompiledViewAt(v, &pv.cv)
	if !okU || !okV {
		return false
	}
	pv.lu, pv.lv = 1, 1
	if s.Par.UseNorm {
		pv.lu = s.E.NormFactorAt(u, s.Par.B)
		pv.lv = s.I.NormFactorAt(v, s.Par.B)
	}
	pv.norm = pv.lu * pv.lv
	if pv.norm <= 0 {
		pv.norm = 1
	}
	return true
}

// fetchByID is fetch for a pair named by entity ids, resolved once; it
// also reports false when either id is unknown.
func (s *Scorer) fetchByID(pv *pairViews, u, v model.EntityID) bool {
	ou, okU := s.E.Ordinals().Lookup(u)
	ov, okV := s.I.Ordinals().Lookup(v)
	return okU && okV && s.fetch(pv, ou, ov)
}

// ScoreOrd is Score over the two sides' entity ordinals (see
// history.Ordinals): the entry point of every pair-scale caller, which
// hashes no entity id. Ordinals without a history score 0. The pair's work
// is added to tally, which the caller owns; a nil tally counts nothing.
func (s *Scorer) ScoreOrd(u, v uint32, tally *Stats) float64 {
	var pv pairViews
	if !s.fetch(&pv, u, v) {
		return 0
	}
	return s.run(&s.Par, &pv, nil, tally)
}

// run adds scoreWindow's contribution of each of a pair's common temporal
// windows, in window order (history.CommonWindows), under par, and adds
// the kernel's work counts to tally when it is not nil. A run observed
// through a recorder is not scoring work: its callers pass no tally.
func (s *Scorer) run(par *Params, pv *pairViews, rec *recorder, tally *Stats) float64 {
	sc := s.pool.Get().(*scratch)
	var total float64
	history.CommonWindows(&pv.cu, &pv.cv, func(window int64, loU, hiU, loV, hiV int) {
		if rec != nil {
			rec.open(window, loU, hiU, loV, hiV)
		}
		// Even an empty window's zero is added, so a recorded run
		// recomposes term for term.
		sum := s.scoreWindow(sc, par, pv, loU, hiU, loV, hiV, rec, tally)
		total += sum
		if rec != nil {
			rec.close(sum)
		}
	})
	s.pool.Put(sc)
	return total
}

// fillDistances writes the nU×nV cell-distance matrix for one window pair
// into dist (row-major over the V side): every entry is computed from the
// two cells' table entries.
func fillDistances(dist []float64, cellsU, cellsV []int32, geomU, geomV []geo.CellGeom) {
	nV := len(cellsV)
	for i, ci := range cellsU {
		a := &geomU[ci]
		row := dist[i*nV : (i+1)*nV]
		for j, cj := range cellsV {
			b := &geomV[cj]
			// Canonical argument order: the distance subtracts both
			// circumradii, which is not bit-symmetric in its arguments.
			switch {
			case a.ID == b.ID:
				row[j] = 0
			case b.ID < a.ID:
				row[j] = b.DistanceKm(a)
			default:
				row[j] = a.DistanceKm(b)
			}
		}
	}
}

// sortPairOrder argsorts the flat bin-pair ids by (distance, id). Pair ids
// are i*nV+j, so the id tiebreak is exactly the (i, j) index order of the
// map-based implementation, keeping scores deterministic; distances are
// unique-keyed, so any correct sort yields the identical order.
func sortPairOrder(order []int32, dist []float64) {
	for k := range order {
		order[k] = int32(k)
	}
	slices.SortFunc(order, func(x, y int32) int {
		dx, dy := dist[x], dist[y]
		switch {
		case dx < dy:
			return -1
		case dx > dy:
			return 1
		}
		return int(x) - int(y)
	})
}

// scoreWindow is the package's one implementation of Sec. 3.1.2's window
// pairing — distance fill, argsort, MNN sweep, MFN sweep, and the all-pairs
// ablation: it returns the contribution of the common temporal window
// whose bins are [loU, hiU) of pv.cu and [loV, hiV) of pv.cv under par. A
// non-nil rec is told every term the moment it is added to the sum
// (ScoreBreakdown and ProbeRatio read the kernel this way); scoring passes
// nil and pays the nil checks. A non-nil tally is given the window's work.
func (s *Scorer) scoreWindow(sc *scratch, par *Params, pv *pairViews, loU, hiU, loV, hiV int, rec *recorder, tally *Stats) float64 {
	cu, cv := &pv.cu, &pv.cv
	nU, nV := hiU-loU, hiV-loV
	if nU == 0 || nV == 0 {
		return 0
	}
	cellsU, cellsV := cu.Cells[loU:hiU], cv.Cells[loV:hiV]
	dfU, dfV := cu.DF[loU:hiU], cv.DF[loV:hiV]
	idfU, idfV := cu.IDFByDF, cv.IDFByDF
	norm := pv.norm

	// Work accounting: every cross bin pair gets a distance evaluation,
	// and each corresponds to countU×countV record comparisons. The
	// per-window record sums are accumulated in the same (sorted-cell)
	// order the map scorer used, so the rounded product is bit-identical.
	if tally != nil {
		tally.BinComparisons += int64(nU * nV)
		tally.RecordComparisons += int64(history.SumWeights(cu.Counts[loU:hiU])*history.SumWeights(cv.Counts[loV:hiV]) + 0.5)
	}

	n := nU * nV
	dist := sc.floats(n)
	fillDistances(dist, cellsU, cellsV, pv.geomU, pv.geomV)

	delta := func(i, j int) float64 {
		p := Proximity(dist[i*nV+j], par.RunawayKm)
		if p < 0 && tally != nil {
			tally.AlibiBinPairs++
		}
		weight := 1.0
		if par.UseIDF {
			weight = math.Min(idfU[dfU[i]], idfV[dfV[j]])
		}
		return p * weight / norm
	}

	if par.Pairing == PairingAllPairs {
		var sum float64
		for i := 0; i < nU; i++ {
			for j := 0; j < nV; j++ {
				d := delta(i, j)
				sum += d
				if rec != nil {
					rec.term(i, j, dist[i*nV+j], d, false)
				}
			}
		}
		return sum
	}

	// Mutually-nearest-neighbor pairing N_w (Sec. 3.1.2): repeatedly select
	// the globally closest unused pair until the smaller side is
	// exhausted. Implemented as one argsort of all cross pairs followed by
	// a greedy sweep — identical selection, O(nm log nm) instead of
	// O(min(n,m)·n·m).
	nPairs := min(nU, nV)
	order := sc.ints(n)
	sortPairOrder(order, dist)

	usedU := grownBools(&sc.usedU, nU)
	usedV := grownBools(&sc.usedV, nV)
	var sel []bool
	selIDs := sc.selIDs[:0]
	if par.UseMFN {
		sel = sc.selMask(n)
	}

	var sum float64
	taken := 0
	for _, k := range order {
		if taken == nPairs {
			break
		}
		i, j := int(k)/nV, int(k)%nV
		if usedU[i] || usedV[j] {
			continue
		}
		usedU[i], usedV[j] = true, true
		if sel != nil {
			sel[k] = true
			selIDs = append(selIDs, k)
		}
		d := delta(i, j)
		sum += d
		if rec != nil {
			rec.term(i, j, dist[k], d, false)
		}
		taken++
	}
	sc.selIDs = selIDs

	if !par.UseMFN {
		return sum
	}

	// Mutually-furthest-neighbor pass N′_w: same sweep from the far end,
	// adding only alibi (negative) deltas. Pairs already selected by MNN
	// are skipped so an alibi is never double counted (Design decision 2).
	// A zero-weight alibi pair yields -0.0, which is not < 0: it is neither
	// added nor recorded.
	clear(usedU)
	clear(usedV)
	taken = 0
	for k := n - 1; k >= 0 && taken < nPairs; k-- {
		id := order[k]
		i, j := int(id)/nV, int(id)%nV
		if usedU[i] || usedV[j] {
			continue
		}
		usedU[i], usedV[j] = true, true
		taken++
		if sel[id] {
			continue
		}
		// Only a negative delta contributes here; the log2 of anything
		// else is skipped.
		if !isAlibi(dist[id], par.RunawayKm) {
			continue
		}
		if d := delta(i, j); d < 0 {
			sum += d
			if rec != nil {
				rec.term(i, j, dist[id], d, true)
			}
		}
	}
	for _, id := range selIDs {
		sel[id] = false
	}
	return sum
}

// ProbeRatio supports the spatial-level auto-tuner (Sec. 3.3). It returns
// the ratio of the pair's actual similarity to the idealized similarity of
// the same MNN pairing with all distances treated as zero (perfect
// self-like match). At spatial levels too coarse to distinguish the
// entities the ratio is 1; it decreases as detail separates them. ok is
// false when the pair shares no usable evidence (no common windows or all
// IDF weights zero).
//
// It observes one kernel run restricted to the MNN pass and folds the
// recorded terms: Σ p·w over Σ w, since Proximity(0) == 1.
func (s *Scorer) ProbeRatio(u, v model.EntityID) (ratio float64, ok bool) {
	var pv pairViews
	if !s.fetchByID(&pv, u, v) {
		return 0, false
	}
	par := s.Par
	par.Pairing, par.UseMFN = PairingMNN, false
	rec := recorder{par: &par, pv: &pv}
	s.run(&par, &pv, &rec, nil)
	var num, den float64
	for _, wb := range rec.windows {
		for _, pc := range wb.Pairs {
			num += pc.Proximity * pc.IDFWeight
			den += pc.IDFWeight
		}
	}
	if den <= 0 {
		return 0, false
	}
	return num / den, true
}
