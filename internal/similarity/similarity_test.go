package similarity

import (
	"math"
	"testing"
	"testing/quick"

	"slim/internal/geo"
	"slim/internal/history"
	"slim/internal/model"
)

var (
	sf      = geo.LatLng{Lat: 37.7749, Lng: -122.4194}
	sfNear  = geo.LatLng{Lat: 37.7849, Lng: -122.4294} // ~1.4 km from sf
	oakland = geo.LatLng{Lat: 37.8044, Lng: -122.2712} // ~13 km from sf
	la      = geo.LatLng{Lat: 34.0522, Lng: -118.2437} // ~560 km from sf
	wnd     = model.Windowing{WidthSeconds: 900}
)

func rec(e string, ll geo.LatLng, unix int64) model.Record {
	return model.Record{Entity: model.EntityID(e), LatLng: ll, Unix: unix}
}

func stores(level int, eRecs, iRecs []model.Record) (*history.Store, *history.Store) {
	de := model.Dataset{Name: "E", Records: eRecs}
	di := model.Dataset{Name: "I", Records: iRecs}
	return history.Build(&de, wnd, level), history.Build(&di, wnd, level)
}

func defParams() Params { return DefaultParams(15, 2) } // R = 30 km

// fill returns a filler entity far away (Tokyo) so that test datasets have
// more than one entity and the bins under test get non-zero IDF weights.
func fill(e string) model.Record {
	return rec(e, geo.LatLng{Lat: 35.6762, Lng: 139.6503}, 100)
}

func TestProximityAnchorValues(t *testing.T) {
	R := 30.0
	if got := Proximity(0, R); got != 1 {
		t.Errorf("P(0) = %g, want 1", got)
	}
	if got := Proximity(R, R); got != 0 {
		t.Errorf("P(R) = %g, want 0", got)
	}
	if got := Proximity(1.5*R, R); got >= 0 || got < -2 {
		t.Errorf("P(1.5R) = %g, want in (-2, 0)", got)
	}
	// At and beyond 2R the clamp kicks in.
	want := math.Log2(logArgFloor)
	if got := Proximity(2*R, R); got != want {
		t.Errorf("P(2R) = %g, want clamp %g", got, want)
	}
	if got := Proximity(100*R, R); got != want {
		t.Errorf("P(100R) = %g, want clamp %g", got, want)
	}
}

func TestProximityMonotoneDecreasing(t *testing.T) {
	R := 30.0
	prev := math.Inf(1)
	for d := 0.0; d <= 2.2*R; d += 0.5 {
		p := Proximity(d, R)
		if p > prev {
			t.Fatalf("proximity increased at d=%g", d)
		}
		prev = p
	}
}

func TestProximityQuickBounds(t *testing.T) {
	f := func(dSeed, rSeed uint32) bool {
		d := float64(dSeed%100000) / 10
		r := float64(rSeed%10000)/10 + 0.1
		p := Proximity(d, r)
		return p <= 1 && p >= math.Log2(logArgFloor) && !math.IsNaN(p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestProximityZeroRunaway(t *testing.T) {
	if got := Proximity(0, 0); got != 1 {
		t.Errorf("P(0, R=0) = %g, want 1", got)
	}
	if got := Proximity(5, 0); got != math.Log2(logArgFloor) {
		t.Errorf("P(5, R=0) = %g, want clamp", got)
	}
}

// TestIsAlibiIsProximitySign pins the MFN sweep's shortcut to the function
// it shortcuts: isAlibi answers Proximity < 0 at every distance, the
// boundary ones (the neighbouring floats of R and 2R) included. It holds
// because Proximity's log clamp is a constant below 1.
func TestIsAlibiIsProximitySign(t *testing.T) {
	if logArgFloor >= 1 {
		t.Fatalf("log clamp %g: Proximity would never be negative", logArgFloor)
	}
	for _, r := range []float64{-1, 0, 1e-9, 0.3, 1, 7.5, 30, 1e6} {
		dists := []float64{0, math.SmallestNonzeroFloat64, 1e-12, 5, math.MaxFloat64, math.Inf(1)}
		for _, m := range []float64{0.5, 1, 1.5, 2, 2.5} {
			d := m * math.Abs(r)
			dists = append(dists, math.Nextafter(d, 0), d, math.Nextafter(d, math.Inf(1)))
		}
		for _, d := range dists {
			if got, want := isAlibi(d, r), Proximity(d, r) < 0; got != want {
				t.Errorf("isAlibi(%g, %g) = %v, Proximity < 0 is %v", d, r, got, want)
			}
		}
	}
}

func TestScoreIdenticalHistoriesPositive(t *testing.T) {
	recs := []model.Record{rec("u", sf, 100), rec("u", oakland, 1000), rec("u", sfNear, 2000), fill("zf")}
	recsV := []model.Record{rec("v", sf, 100), rec("v", oakland, 1000), rec("v", sfNear, 2000), fill("zf")}
	e, i := stores(12, recs, recsV)
	s := NewScorer(e, i, defParams())
	if got := s.Score("u", "v"); got <= 0 {
		t.Errorf("identical movement should score positive, got %g", got)
	}
	if got := s.Score("u", "missing"); got != 0 {
		t.Errorf("unknown entity should score 0, got %g", got)
	}
}

func TestScoreAlibiPenalized(t *testing.T) {
	// Same window, one in SF and one in LA: impossible movement (R=30km).
	e, i := stores(12,
		[]model.Record{rec("u", sf, 100), rec("u", sf, 1000), fill("zf")},
		[]model.Record{rec("v", la, 100), rec("v", sf, 1000), fill("zf")})
	s := NewScorer(e, i, defParams())
	score := s.Score("u", "v")
	if score >= 0 {
		t.Errorf("alibi pair should drag the score negative, got %g", score)
	}
	if s.Stats().AlibiBinPairs == 0 {
		t.Error("alibi counter should be non-zero")
	}
}

func TestTemporalAsynchronyNotPenalized(t *testing.T) {
	// v2 has an extra record in a window where u has none. With
	// normalization disabled the score must be unchanged (property 2).
	p := defParams()
	p.UseNorm = false
	uRecs := []model.Record{rec("u", sf, 100), fill("zf")}
	e1, i1 := stores(12, uRecs, []model.Record{rec("v", sf, 100), fill("zf")})
	e2, i2 := stores(12, uRecs, []model.Record{rec("v", sf, 100), rec("v", oakland, 5000), fill("zf")})
	s1 := NewScorer(e1, i1, p).Score("u", "v")
	s2 := NewScorer(e2, i2, p).Score("u", "v")
	if math.Abs(s1-s2) > 1e-12 {
		t.Errorf("asynchronous activity changed the score: %g vs %g", s1, s2)
	}
}

func TestMFNCapturesHiddenAlibi(t *testing.T) {
	// The paper's example: u has one bin, v has a close bin AND a far bin
	// in the same window. MNN alone pairs the close bins and misses the
	// alibi; the MFN pass must capture it.
	eRecs := []model.Record{rec("u", sf, 100), fill("zf")}
	iRecs := []model.Record{rec("v", sfNear, 100), rec("v", la, 200), fill("zf")} // same window
	pNoMFN := defParams()
	pNoMFN.UseMFN = false
	pMFN := defParams()

	e, i := stores(12, eRecs, iRecs)
	without := NewScorer(e, i, pNoMFN).Score("u", "v")
	with := NewScorer(e, i, pMFN).Score("u", "v")
	if with >= without {
		t.Errorf("MFN should lower the score of an alibi-carrying pair: with=%g without=%g", with, without)
	}
	if without <= 0 {
		t.Errorf("MNN-only score should be positive here, got %g", without)
	}
}

func TestMFNDoesNotDoubleCountSingletonAlibi(t *testing.T) {
	// One bin on each side, far apart: MNN already pairs them (and
	// penalizes); MFN would re-select the same pair and must skip it.
	eRecs := []model.Record{rec("u", sf, 100), fill("zf")}
	iRecs := []model.Record{rec("v", la, 100), fill("zf")}
	e, i := stores(12, eRecs, iRecs)
	pNoMFN := defParams()
	pNoMFN.UseMFN = false
	without := NewScorer(e, i, pNoMFN).Score("u", "v")
	with := NewScorer(e, i, defParams()).Score("u", "v")
	if math.Abs(with-without) > 1e-12 {
		t.Errorf("MFN double-counted the MNN alibi: with=%g without=%g", with, without)
	}
}

func TestIDFAwardsRareBins(t *testing.T) {
	// Entities u1/v1 meet in a cell crowded with other entities; u2/v2
	// meet in a cell only they visit. The rare meeting must score higher.
	crowd := func(prefix string, n int, ll geo.LatLng, unix int64) []model.Record {
		var out []model.Record
		for k := 0; k < n; k++ {
			out = append(out, rec(prefix+string(rune('a'+k)), ll, unix))
		}
		return out
	}
	eRecs := append([]model.Record{rec("u1", sf, 100), rec("u2", oakland, 100)},
		crowd("ex", 8, sf, 100)...)
	iRecs := append([]model.Record{rec("v1", sf, 100), rec("v2", oakland, 100)},
		crowd("ix", 8, sf, 100)...)
	e, i := stores(12, eRecs, iRecs)
	s := NewScorer(e, i, defParams())
	crowded := s.Score("u1", "v1")
	rare := s.Score("u2", "v2")
	if rare <= crowded {
		t.Errorf("rare-bin match should outscore crowded match: rare=%g crowded=%g", rare, crowded)
	}
}

func TestNoIDFRemovesUniquenessAward(t *testing.T) {
	eRecs := []model.Record{rec("u1", sf, 100), rec("u2", oakland, 100), rec("filler", sf, 100)}
	iRecs := []model.Record{rec("v1", sf, 100), rec("v2", oakland, 100), rec("filler", sf, 100)}
	e, i := stores(12, eRecs, iRecs)
	p := defParams()
	p.UseIDF = false
	p.UseNorm = false
	s := NewScorer(e, i, p)
	crowded := s.Score("u1", "v1")
	rare := s.Score("u2", "v2")
	if math.Abs(crowded-rare) > 1e-12 {
		t.Errorf("without IDF identical-distance matches must score equally: %g vs %g", crowded, rare)
	}
}

func TestNormalizationPenalizesLongHistories(t *testing.T) {
	// u2/v2 share the same matching window as u1/v1 but also have many
	// extra bins; with b=1 their match must be scaled down.
	var eRecs, iRecs []model.Record
	eRecs = append(eRecs, rec("u1", sf, 100))
	iRecs = append(iRecs, rec("v1", sf, 100))
	eRecs = append(eRecs, rec("u2", sf, 100))
	iRecs = append(iRecs, rec("v2", sf, 100))
	for k := 0; k < 20; k++ {
		unix := int64(10000 + 900*k)
		eRecs = append(eRecs, rec("u2", oakland, unix))
		iRecs = append(iRecs, rec("v2", la, unix+450000)) // disjoint windows
	}
	e, i := stores(12, eRecs, iRecs)
	p := defParams()
	p.B = 1
	p.UseIDF = false
	s := NewScorer(e, i, p)
	short := s.Score("u1", "v1")
	long := s.Score("u2", "v2")
	if long >= short {
		t.Errorf("long histories should be normalized down: long=%g short=%g", long, short)
	}
}

func TestAllPairsOvercounts(t *testing.T) {
	// u visits two nearby cells, v visits the same two: MNN pairs each
	// once; all-pairs also adds the two cross pairs, inflating the score.
	eRecs := []model.Record{rec("u", sf, 100), rec("u", sfNear, 200), fill("zf")}
	iRecs := []model.Record{rec("v", sf, 100), rec("v", sfNear, 200), fill("zf")}
	e, i := stores(16, eRecs, iRecs) // level 16 separates sf and sfNear
	pMNN := defParams()
	pAll := defParams()
	pAll.Pairing = PairingAllPairs
	mnn := NewScorer(e, i, pMNN).Score("u", "v")
	all := NewScorer(e, i, pAll).Score("u", "v")
	if all <= mnn {
		t.Errorf("all-pairs should overcount close pairs: all=%g mnn=%g", all, mnn)
	}
}

func TestMNNPairsExactlyMinCardinality(t *testing.T) {
	// u has 3 bins in one window, v has 2: exactly 2 MNN pairs are scored.
	// With IDF and norm off and all bins identical cells, score = 2 * P(0).
	eRecs := []model.Record{rec("u", sf, 10), rec("u", oakland, 20), rec("u", la, 30)}
	iRecs := []model.Record{rec("v", sf, 40), rec("v", oakland, 50)}
	e, i := stores(12, eRecs, iRecs)
	p := defParams()
	p.UseIDF = false
	p.UseNorm = false
	p.UseMFN = false
	got := NewScorer(e, i, p).Score("u", "v")
	// MNN pairs (sf,sf) and (oakland,oakland), both at distance 0 → P=1.
	if math.Abs(got-2) > 1e-9 {
		t.Errorf("score = %g, want 2 (two exact MNN matches)", got)
	}
}

func TestStatsCounters(t *testing.T) {
	eRecs := []model.Record{rec("u", sf, 100), rec("u", sfNear, 200)}
	iRecs := []model.Record{rec("v", sf, 100), rec("v", la, 200)}
	e, i := stores(14, eRecs, iRecs)
	s := NewScorer(e, i, defParams())
	_ = s.Score("u", "v")
	st := s.Stats()
	if st.PairsScored != 1 {
		t.Errorf("PairsScored = %d", st.PairsScored)
	}
	if st.BinComparisons != 4 { // 2x2 bins in the single common window
		t.Errorf("BinComparisons = %d, want 4", st.BinComparisons)
	}
	if st.RecordComparisons != 4 { // 2 records x 2 records
		t.Errorf("RecordComparisons = %d, want 4", st.RecordComparisons)
	}
	if st.AlibiBinPairs == 0 {
		t.Error("expected at least one alibi bin pair (sf vs la)")
	}
}

// TestObservedRunsLeaveStatsAlone holds what ScoreBreakdown and ProbeRatio
// document: they run the scoring kernel on the pooled scratch, and what
// that run counted must neither reach Stats() nor stay behind in the
// scratch for the next Score on this goroutine to flush.
func TestObservedRunsLeaveStatsAlone(t *testing.T) {
	eRecs := []model.Record{rec("u", sf, 100), rec("u", sfNear, 200), rec("u", oakland, 1000), fill("zf")}
	iRecs := []model.Record{rec("v", sf, 100), rec("v", la, 200), rec("v", oakland, 1000), fill("zf")}
	e, i := stores(14, eRecs, iRecs)
	for variant, p := range paramVariants() {
		s := NewScorer(e, i, p)
		_ = s.Score("u", "v")
		one := s.Stats()
		if one.PairsScored != 1 || one.BinComparisons == 0 || one.RecordComparisons == 0 || one.AlibiBinPairs == 0 {
			t.Fatalf("%s: fixture must move every counter, got %+v", variant, one)
		}
		for round := int64(1); round <= 3; round++ {
			before := s.Stats()
			if bd := s.ScoreBreakdown("u", "v"); !bd.Known || len(bd.Windows) == 0 {
				t.Fatalf("%s: breakdown saw no evidence", variant)
			}
			if got := s.Stats(); got != before {
				t.Fatalf("%s: ScoreBreakdown moved Stats: %+v -> %+v", variant, before, got)
			}
			if _, ok := s.ProbeRatio("u", "v"); !ok {
				t.Fatalf("%s: probe saw no evidence", variant)
			}
			if got := s.Stats(); got != before {
				t.Fatalf("%s: ProbeRatio moved Stats: %+v -> %+v", variant, before, got)
			}
			_ = s.Score("u", "v")
			want := Stats{
				BinComparisons:    (round + 1) * one.BinComparisons,
				RecordComparisons: (round + 1) * one.RecordComparisons,
				AlibiBinPairs:     (round + 1) * one.AlibiBinPairs,
				PairsScored:       round + 1,
			}
			if got := s.Stats(); got != want {
				t.Fatalf("%s: Score after observed runs added more than one pair: %+v, want %+v", variant, got, want)
			}
		}
	}
}

func TestSelfSimilarityIsMaximal(t *testing.T) {
	// An entity compared to itself (same store on both sides) should not
	// score below its comparison with a different entity — the property
	// the auto-tuner (Sec. 3.3) relies on.
	recs := []model.Record{
		rec("u", sf, 100), rec("u", oakland, 1000), rec("u", sfNear, 2000),
		rec("w", sf, 100), rec("w", la, 1000), rec("w", oakland, 2000),
	}
	d := model.Dataset{Name: "E", Records: recs}
	st := history.Build(&d, wnd, 12)
	s := NewScorer(st, st, defParams())
	self := s.Score("u", "u")
	cross := s.Score("u", "w")
	if self <= cross {
		t.Errorf("self-similarity %g should exceed cross similarity %g", self, cross)
	}
}

func TestConcurrentScoring(t *testing.T) {
	eRecs := []model.Record{rec("u", sf, 100), rec("u", oakland, 1000)}
	iRecs := []model.Record{rec("v", sf, 100), rec("v", oakland, 1000)}
	e, i := stores(12, eRecs, iRecs)
	s := NewScorer(e, i, defParams())
	want := s.Score("u", "v")
	done := make(chan float64, 16)
	for g := 0; g < 16; g++ {
		go func() { done <- s.Score("u", "v") }()
	}
	for g := 0; g < 16; g++ {
		if got := <-done; got != want {
			t.Fatalf("concurrent score %g != sequential %g", got, want)
		}
	}
}

func TestForEachCommonWindow(t *testing.T) {
	var got []int64
	forEachCommonWindow([]int64{1, 3, 5, 7}, []int64{2, 3, 4, 7, 9}, func(w int64) {
		got = append(got, w)
	})
	if len(got) != 2 || got[0] != 3 || got[1] != 7 {
		t.Errorf("common windows = %v, want [3 7]", got)
	}
	forEachCommonWindow(nil, []int64{1}, func(int64) { t.Error("no common windows expected") })
}

func BenchmarkScorePair(b *testing.B) {
	var eRecs, iRecs []model.Record
	for k := 0; k < 500; k++ {
		unix := int64(900 * k)
		lat := 37.5 + float64(k%20)*0.01
		lng := -122.5 + float64(k%17)*0.01
		eRecs = append(eRecs, rec("u", geo.LatLng{Lat: lat, Lng: lng}, unix))
		iRecs = append(iRecs, rec("v", geo.LatLng{Lat: lat + 0.001, Lng: lng}, unix+60))
	}
	e, i := stores(12, eRecs, iRecs)
	s := NewScorer(e, i, defParams())
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		_ = s.Score("u", "v")
	}
}
