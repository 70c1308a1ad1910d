package similarity

// Compiled-vs-map parity: the scoring kernel runs on the flat compiled
// views of internal/history, and this file keeps it honest against a
// test-only reference scorer that is a port of the original map-walking
// implementation (per-call sortedCells, [][]float64 distance matrix,
// sort.Slice of candidate structs, selected-pair map). Every score,
// probe ratio, and work counter must match bit-for-bit over seeded
// datagen workloads — point and region records, with incremental Store.Add
// interleaved — plus a zero-allocation gate on the warm Score path.

import (
	"math"
	"sort"
	"testing"

	"slim/internal/datagen"
	"slim/internal/geo"
	"slim/internal/history"
	"slim/internal/model"
	"slim/internal/testenv"
)

// refStats mirrors the scorer's work tally (Stats).
type refStats struct {
	binCmp, recCmp, alibi int64
}

// refDistCache memoizes cell distances for the reference scorer (tests are
// single-goroutine); the memo returns the exact same pure-function values,
// it just keeps the oracle fast enough for full cross-product sweeps.
var refDistCache = map[[2]geo.CellID]float64{}

func refCellDistance(a, b geo.CellID) float64 {
	// Canonical order, like the original scorer's shared cache (and the
	// kernel): CellDistanceKm is not bit-symmetric in its arguments.
	key := [2]geo.CellID{a, b}
	if b < a {
		key[0], key[1] = b, a
	}
	if d, ok := refDistCache[key]; ok {
		return d
	}
	d := geo.CellDistanceKm(key[0], key[1])
	refDistCache[key] = d
	return d
}

// windowsOf lists a history's windows, ascending.
func windowsOf(h history.History) []int64 {
	var out []int64
	h.EachWindow(func(w int64, _, _ int) { out = append(out, w) })
	return out
}

// forEachCommonWindow walks two sorted window slices and invokes fn for
// every window index present in both.
func forEachCommonWindow(a, b []int64, fn func(int64)) {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			fn(a[i])
			i++
			j++
		}
	}
}

// refSide is a store with the oracle's own IDF weights (Eq. 3), counted
// from the histories when it is made, so the reference shares no weight
// code with the store. An Add to the store outdates it: make one per sweep.
type refSide struct {
	*history.Store
	df map[history.Bin]int
}

func newRefSide(s *history.Store) *refSide {
	r := &refSide{Store: s, df: map[history.Bin]int{}}
	for _, e := range s.Entities() {
		h := s.History(e)
		h.Bins(func(b history.Bin, _ float64) { r.df[b]++ })
	}
	return r
}

// IDF is log(|U| / |{u : bin ∈ H_u}|); a bin no entity holds weighs like
// one a single entity does.
func (r *refSide) IDF(b history.Bin) float64 {
	return math.Log(float64(r.NumEntities()) / float64(max(r.df[b], 1)))
}

// refScore is the pre-compiled-path scorer, kept as the parity oracle.
func refScore(e, i *refSide, p Params, u, v model.EntityID, st *refStats) float64 {
	hu, hv := e.History(u), i.History(v)
	if hu.NumBins() == 0 || hv.NumBins() == 0 {
		return 0
	}
	lu, lv := 1.0, 1.0
	if p.UseNorm {
		ou, _ := e.Ordinals().Lookup(u)
		ov, _ := i.Ordinals().Lookup(v)
		lu, lv = e.NormFactorAt(ou, p.B), i.NormFactorAt(ov, p.B)
	}
	norm := lu * lv
	if norm <= 0 {
		norm = 1
	}
	var total float64
	forEachCommonWindow(windowsOf(hu), windowsOf(hv), func(w int64) {
		total += refScoreWindow(e, i, p, hu, hv, w, norm, st)
	})
	return total
}

// cellsAt rebuilds a window's cell→record-weight map from WindowBins (nil
// if the entity has no records there): the form the map walks read.
func cellsAt(h history.History, window int64) map[geo.CellID]float64 {
	cells, counts := h.WindowBins(window)
	if len(cells) == 0 {
		return nil
	}
	m := make(map[geo.CellID]float64, len(cells))
	for i, c := range cells {
		m[c] = counts[i]
	}
	return m
}

func refSortedCells(cells map[geo.CellID]float64) []geo.CellID {
	out := make([]geo.CellID, 0, len(cells))
	for c := range cells {
		out = append(out, c)
	}
	for a := 1; a < len(out); a++ {
		for b := a; b > 0 && out[b] < out[b-1]; b-- {
			out[b], out[b-1] = out[b-1], out[b]
		}
	}
	return out
}

func refScoreWindow(e, i *refSide, p Params, hu, hv history.History, w int64, norm float64, st *refStats) float64 {
	cellsU := refSortedCells(cellsAt(hu, w))
	cellsV := refSortedCells(cellsAt(hv, w))
	if len(cellsU) == 0 || len(cellsV) == 0 {
		return 0
	}
	st.binCmp += int64(len(cellsU) * len(cellsV))
	var recsU, recsV float64
	for _, c := range cellsU {
		recsU += cellsAt(hu, w)[c]
	}
	for _, c := range cellsV {
		recsV += cellsAt(hv, w)[c]
	}
	st.recCmp += int64(recsU*recsV + 0.5)

	dist := make([][]float64, len(cellsU))
	for a, cu := range cellsU {
		dist[a] = make([]float64, len(cellsV))
		for b, cv := range cellsV {
			dist[a][b] = refCellDistance(cu, cv)
		}
	}
	binDelta := func(a, b int) float64 {
		prox := Proximity(dist[a][b], p.RunawayKm)
		if prox < 0 {
			st.alibi++
		}
		weight := 1.0
		if p.UseIDF {
			idfU := e.IDF(history.Bin{Window: w, Cell: cellsU[a]})
			idfV := i.IDF(history.Bin{Window: w, Cell: cellsV[b]})
			weight = math.Min(idfU, idfV)
		}
		return prox * weight / norm
	}

	if p.Pairing == PairingAllPairs {
		var sum float64
		for a := range cellsU {
			for b := range cellsV {
				sum += binDelta(a, b)
			}
		}
		return sum
	}

	nPairs := min(len(cellsU), len(cellsV))
	type cand struct{ i, j int }
	order := make([]cand, 0, len(cellsU)*len(cellsV))
	for a := range cellsU {
		for b := range cellsV {
			order = append(order, cand{a, b})
		}
	}
	sort.Slice(order, func(a, b int) bool {
		da, db := dist[order[a].i][order[a].j], dist[order[b].i][order[b].j]
		if da != db {
			return da < db
		}
		if order[a].i != order[b].i {
			return order[a].i < order[b].i
		}
		return order[a].j < order[b].j
	})
	usedU := make([]bool, len(cellsU))
	usedV := make([]bool, len(cellsV))
	selected := make(map[cand]bool, nPairs)
	var sum float64
	taken := 0
	for _, c := range order {
		if taken == nPairs {
			break
		}
		if usedU[c.i] || usedV[c.j] {
			continue
		}
		usedU[c.i], usedV[c.j] = true, true
		selected[c] = true
		sum += binDelta(c.i, c.j)
		taken++
	}
	if !p.UseMFN {
		return sum
	}
	for a := range usedU {
		usedU[a] = false
	}
	for b := range usedV {
		usedV[b] = false
	}
	taken = 0
	for k := len(order) - 1; k >= 0 && taken < nPairs; k-- {
		c := order[k]
		if usedU[c.i] || usedV[c.j] {
			continue
		}
		usedU[c.i], usedV[c.j] = true, true
		taken++
		if selected[c] {
			continue
		}
		if d := binDelta(c.i, c.j); d < 0 {
			sum += d
		}
	}
	return sum
}

// refProbeRatio ports the map-based ProbeRatio.
func refProbeRatio(e, i *refSide, p Params, u, v model.EntityID) (float64, bool) {
	hu, hv := e.History(u), i.History(v)
	if hu.NumBins() == 0 || hv.NumBins() == 0 {
		return 0, false
	}
	var num, den float64
	forEachCommonWindow(windowsOf(hu), windowsOf(hv), func(w int64) {
		cellsU := refSortedCells(cellsAt(hu, w))
		cellsV := refSortedCells(cellsAt(hv, w))
		if len(cellsU) == 0 || len(cellsV) == 0 {
			return
		}
		nPairs := min(len(cellsU), len(cellsV))
		type cand struct{ i, j int }
		order := make([]cand, 0, len(cellsU)*len(cellsV))
		dist := make([][]float64, len(cellsU))
		for a, cu := range cellsU {
			dist[a] = make([]float64, len(cellsV))
			for b, cv := range cellsV {
				dist[a][b] = refCellDistance(cu, cv)
				order = append(order, cand{a, b})
			}
		}
		sort.Slice(order, func(a, b int) bool {
			da, db := dist[order[a].i][order[a].j], dist[order[b].i][order[b].j]
			if da != db {
				return da < db
			}
			if order[a].i != order[b].i {
				return order[a].i < order[b].i
			}
			return order[a].j < order[b].j
		})
		usedU := make([]bool, len(cellsU))
		usedV := make([]bool, len(cellsV))
		taken := 0
		for _, c := range order {
			if taken == nPairs {
				break
			}
			if usedU[c.i] || usedV[c.j] {
				continue
			}
			usedU[c.i], usedV[c.j] = true, true
			taken++
			weight := 1.0
			if p.UseIDF {
				idfU := e.IDF(history.Bin{Window: w, Cell: cellsU[c.i]})
				idfV := i.IDF(history.Bin{Window: w, Cell: cellsV[c.j]})
				weight = math.Min(idfU, idfV)
			}
			num += Proximity(dist[c.i][c.j], p.RunawayKm) * weight
			den += weight
		}
	})
	if den <= 0 {
		return 0, false
	}
	return num / den, true
}

// parityWorkload builds a seeded datagen linkage workload with a mix of
// point and region records.
func parityWorkload(tb testing.TB) (model.Dataset, model.Dataset) {
	tb.Helper()
	ground := datagen.Cab(datagen.CabConfig{
		NumTaxis: 18, Days: 2, MeanRecordIntervalSec: 900, Seed: 7,
	})
	w := datagen.Sample(&ground, datagen.SampleConfig{Seed: 8})
	// Turn a deterministic slice of records into region records (the
	// Sec. 2.1 extension) so the parity run covers fractional bin weights.
	// Radii stay near one cell edge: big radii at fine levels explode into
	// thousands of cover cells and the O(nm log nm) pairing — in either
	// implementation — is quadratic in them.
	regionize := func(d *model.Dataset) {
		for k := range d.Records {
			if k%7 == 0 {
				d.Records[k].RadiusKm = 0.3 + 0.2*float64(k%4)
			}
		}
	}
	regionize(&w.E)
	regionize(&w.I)
	return w.E, w.I
}

func paramVariants() map[string]Params {
	def := DefaultParams(15, 2)
	noMFN := def
	noMFN.UseMFN = false
	noIDF := def
	noIDF.UseIDF = false
	noNorm := def
	noNorm.UseNorm = false
	allPairs := def
	allPairs.Pairing = PairingAllPairs
	return map[string]Params{
		"default": def, "no-mfn": noMFN, "no-idf": noIDF,
		"no-norm": noNorm, "all-pairs": allPairs,
	}
}

// assertParity scores every cross pair with both implementations and
// requires exact (==) agreement of scores and work counters, the scorer's
// summed in one tally through ScoreOrd.
func assertParity(t *testing.T, variant string, e, i *history.Store, p Params) {
	t.Helper()
	s := NewScorer(e, i, p)
	var st Stats
	var ref refStats
	re, ri := newRefSide(e), newRefSide(i)
	for _, u := range e.Entities() {
		for _, v := range i.Entities() {
			got := scoreCounted(s, u, v, &st)
			if byID := s.Score(u, v); math.Float64bits(byID) != math.Float64bits(got) {
				t.Fatalf("%s: Score(%s,%s) = %v, ScoreOrd %v", variant, u, v, byID, got)
			}
			want := refScore(re, ri, p, u, v, &ref)
			if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
				t.Fatalf("%s: Score(%s,%s) = %v, reference %v", variant, u, v, got, want)
			}
		}
	}
	if st.BinComparisons != ref.binCmp || st.RecordComparisons != ref.recCmp ||
		st.AlibiBinPairs != ref.alibi {
		t.Fatalf("%s: stats %+v, reference %+v", variant, st, ref)
	}
}

func TestCompiledScoreParityDatagen(t *testing.T) {
	dsE, dsI := parityWorkload(t)
	for variant, p := range paramVariants() {
		e := history.Build(&dsE, wnd, 12)
		i := history.Build(&dsI, wnd, 12)
		assertParity(t, variant, e, i, p)
	}
}

// TestCompiledScoreParityIncremental interleaves incremental Store.Add
// batches — records into existing bins, new bins, brand-new entities, and
// region records — with full parity sweeps, exercising the epoch
// invalidation of the compiled read path.
func TestCompiledScoreParityIncremental(t *testing.T) {
	dsE, dsI := parityWorkload(t)
	e := history.Build(&dsE, wnd, 12)
	i := history.Build(&dsI, wnd, 12)
	p := DefaultParams(15, 2)

	batches := [][2][]model.Record{
		{{ // repeats of existing records: weight-only updates
			dsE.Records[3], dsE.Records[11],
		}, {
			dsI.Records[5],
		}},
		{{ // new bins for existing entities, including a region record
			{Entity: dsE.Records[0].Entity, LatLng: geo.LatLng{Lat: 37.9, Lng: -122.6}, Unix: dsE.Records[0].Unix + 90000},
			{Entity: dsE.Records[7].Entity, LatLng: geo.LatLng{Lat: 37.1, Lng: -122.1}, Unix: dsE.Records[7].Unix + 5000, RadiusKm: 2.5},
		}, {
			{Entity: dsI.Records[2].Entity, LatLng: geo.LatLng{Lat: 37.8, Lng: -122.3}, Unix: dsI.Records[2].Unix + 42000},
		}},
		{{ // a brand-new entity on each side
			{Entity: "fresh-e", LatLng: geo.LatLng{Lat: 37.75, Lng: -122.42}, Unix: 1211100000},
			{Entity: "fresh-e", LatLng: geo.LatLng{Lat: 37.76, Lng: -122.40}, Unix: 1211101000, RadiusKm: 1},
		}, {
			{Entity: "fresh-i", LatLng: geo.LatLng{Lat: 37.75, Lng: -122.42}, Unix: 1211100100},
		}},
	}
	for _, batch := range batches {
		for _, r := range batch[0] {
			e.Add(r)
		}
		for _, r := range batch[1] {
			i.Add(r)
		}
		assertParity(t, "incremental", e, i, p)
	}
}

func TestCompiledProbeRatioParity(t *testing.T) {
	dsE, dsI := parityWorkload(t)
	for _, level := range []int{8, 12, 14} {
		e := history.Build(&dsE, wnd, level)
		i := history.Build(&dsI, wnd, level)
		s := NewScorer(e, i, DefaultParams(15, 2))
		re, ri := newRefSide(e), newRefSide(i)
		for _, u := range e.Entities() {
			for _, v := range i.Entities() {
				got, gotOK := s.ProbeRatio(u, v)
				want, wantOK := refProbeRatio(re, ri, s.Par, u, v)
				if gotOK != wantOK || got != want {
					t.Fatalf("level %d: ProbeRatio(%s,%s) = %v,%v; reference %v,%v",
						level, u, v, got, gotOK, want, wantOK)
				}
			}
		}
	}
}

// TestScoreWarmZeroAllocs is the allocation-regression gate of the scoring
// kernel: once warm, neither Score nor a counted ScoreOrd may touch the
// heap at all.
func TestScoreWarmZeroAllocs(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("race-detector instrumentation allocates; gate runs in non-race CI")
	}
	s, u, v := warmWorkloadStores(t)
	_ = s.Score(u, v) // warm compiled views and scratch buffers
	if avg := testing.AllocsPerRun(200, func() { _ = s.Score(u, v) }); avg != 0 {
		t.Fatalf("warm Score allocates %v times per call, want 0", avg)
	}
	var tally Stats
	if avg := testing.AllocsPerRun(200, func() { _ = s.ScoreOrd(0, 0, &tally) }); avg != 0 {
		t.Fatalf("warm ScoreOrd with a tally allocates %v times per call, want 0", avg)
	}
}
