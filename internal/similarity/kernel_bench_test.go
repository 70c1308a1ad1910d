package similarity

import (
	"fmt"
	"math/rand"
	"testing"

	"slim/internal/geo"
	"slim/internal/model"
	"slim/internal/testenv"
)

// warmWorkloadStores builds two single-entity stores whose histories span
// many windows with a handful of cells each — the shape of a production
// pair — for the warm-scoring benchmarks.
func warmWorkloadStores(tb testing.TB) (*Scorer, model.EntityID, model.EntityID) {
	tb.Helper()
	var eRecs, iRecs []model.Record
	for k := 0; k < 500; k++ {
		unix := int64(900 * k)
		lat := 37.5 + float64(k%20)*0.01
		lng := -122.5 + float64(k%17)*0.01
		eRecs = append(eRecs, rec("u", geo.LatLng{Lat: lat, Lng: lng}, unix))
		iRecs = append(iRecs, rec("v", geo.LatLng{Lat: lat + 0.001, Lng: lng}, unix+60))
	}
	e, i := stores(12, eRecs, iRecs)
	return NewScorer(e, i, defParams()), "u", "v"
}

// BenchmarkScoreWarm measures a steady-state Scorer.Score call on one pair
// with one bin per window per side and 340 distinct cell pairs in all:
// compiled views and scratch state warmed by a first scoring pass. It is
// the small end of the kernel's range (allocs/op must stay at 0);
// BenchmarkScoreManyCells has the shape the brute-force workload has.
func BenchmarkScoreWarm(b *testing.B) {
	s, u, v := warmWorkloadStores(b)
	_ = s.Score(u, v) // warm compiled views and scratch buffers
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		_ = s.Score(u, v)
	}
}

// The sizes of manyCellsScorer's fixture: entities a side, windows each.
const manyCellsEntities, manyCellsWindows = 64, 400

// manyCellsScorer builds two sides of manyCellsEntities entities wandering
// over a 30 × 30 grid of level-12 cells for manyCellsWindows windows, one or
// two bins per window per side (≈ 3 bin pairs per common window): the shape
// measured on the brute-force cab input, where every entity pair meets
// mostly cell pairs no earlier entity pair had — ≈ 800k distinct ones over
// the 4,096 entity pairs.
func manyCellsScorer(tb testing.TB) *Scorer {
	tb.Helper()
	const entities, windows, grid = manyCellsEntities, manyCellsWindows, 30
	rng := rand.New(rand.NewSource(22))
	side := func(prefix string) []model.Record {
		var recs []model.Record
		for k := 0; k < entities; k++ {
			id := fmt.Sprintf("%s%02d", prefix, k)
			for w := 0; w < windows; w++ {
				n := 1
				if rng.Intn(10) < 7 {
					n = 2
				}
				for ; n > 0; n-- {
					ll := geo.LatLng{Lat: 37 + 0.03*float64(rng.Intn(grid)), Lng: -122.5 + 0.03*float64(rng.Intn(grid))}
					recs = append(recs, rec(id, ll, int64(900*w+rng.Intn(900))))
				}
			}
		}
		return recs
	}
	e, i := stores(12, side("u"), side("v"))
	e.Compile()
	i.Compile()
	return NewScorer(e, i, defParams())
}

// scoreManyCellsPair scores pair p of manyCellsScorer's cross product,
// adding its work to tally.
func scoreManyCellsPair(s *Scorer, p uint32, tally *Stats) float64 {
	return s.ScoreOrd(p/manyCellsEntities, p%manyCellsEntities, tally)
}

// BenchmarkScoreManyCells measures warm ScoreOrd calls cycling through all
// 4,096 pairs of manyCellsScorer, every pair scored once before the timer
// starts.
func BenchmarkScoreManyCells(b *testing.B) {
	const pairs = manyCellsEntities * manyCellsEntities
	s := manyCellsScorer(b)
	var tally Stats
	for p := uint32(0); p < pairs; p++ {
		_ = scoreManyCellsPair(s, p, &tally)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		_ = scoreManyCellsPair(s, uint32(n)%pairs, &tally)
	}
}

// TestScorerRetainsNothingPerCellPair scores every pair of manyCellsScorer
// on one goroutine and then weighs what the scorer and the scratch it
// pooled still hold: the scratch's buffers are sized by the largest window
// pair (here 2 × 2), so the figure must not grow with the ≈ 800k distinct
// cell pairs that went through the kernel. A memo keyed by cell pair
// retained ≈ 19 MB here; the arithmetic kernel reads 256 B. The scratch is
// taken out of the pool for the reading, because the two collections
// behind LiveHeap empty a sync.Pool.
func TestScorerRetainsNothingPerCellPair(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("heap budgets are meaningless under the race detector")
	}
	const pairs = manyCellsEntities * manyCellsEntities
	s := manyCellsScorer(t)
	var tally Stats
	before := testenv.LiveHeap()
	for p := uint32(0); p < pairs; p++ {
		_ = scoreManyCellsPair(s, p, &tally)
	}
	sc := s.pool.Get().(*scratch)
	retained := testenv.Retained(before)
	if cap(sc.dist) == 0 {
		t.Fatal("the pool handed out a fresh scratch: the one scoring used was not measured")
	}
	s.pool.Put(sc)
	// ≥ 2.5 bin pairs per common window, every window common to every pair.
	if tally.BinComparisons < 5*manyCellsWindows*pairs/2 {
		t.Fatalf("fixture lost its shape: %+v", tally)
	}
	const budget = 64 << 10
	if retained > budget {
		t.Fatalf("scorer and scratch retain %d B after %d entity pairs, budget %d B", retained, pairs, budget)
	}
}
