package gm

import (
	"math"
	"testing"

	"slim/internal/datagen"
	"slim/internal/geo"
	"slim/internal/matching"
	"slim/internal/model"
)

func rec(e string, lat, lng float64, unix int64) model.Record {
	return model.Record{Entity: model.EntityID(e), LatLng: geo.LatLng{Lat: lat, Lng: lng}, Unix: unix}
}

// walker emits records orbiting a set of anchor points.
func walker(e string, anchors [][2]float64, n int, phase int64) []model.Record {
	var out []model.Record
	for k := 0; k < n; k++ {
		a := anchors[k%len(anchors)]
		jLat := float64((k*13)%7-3) * 0.0004
		jLng := float64((k*7)%5-2) * 0.0004
		out = append(out, rec(e, a[0]+jLat, a[1]+jLng, int64(k)*600+phase))
	}
	return out
}

func TestFitAndLikelihoodPreferOwner(t *testing.T) {
	anchorsA := [][2]float64{{37.77, -122.42}, {37.80, -122.40}}
	anchorsB := [][2]float64{{40.71, -74.00}, {40.75, -73.99}}
	recsA := walker("a", anchorsA, 60, 0)
	recsB := walker("b", anchorsB, 60, 0)
	p := DefaultParams()
	mA := Fit(recsA, p)
	llOwn := mA.LogLikelihood(recsA)
	llOther := mA.LogLikelihood(recsB)
	if llOwn <= llOther {
		t.Errorf("model must prefer its own records: own=%g other=%g", llOwn, llOther)
	}
	if math.IsNaN(llOwn) || math.IsInf(llOwn, 0) {
		t.Errorf("own likelihood degenerate: %g", llOwn)
	}
}

func TestLikelihoodPrefersSameHabits(t *testing.T) {
	anchors := [][2]float64{{37.77, -122.42}, {37.80, -122.40}, {37.75, -122.45}}
	other := [][2]float64{{37.70, -122.38}}
	mA := Fit(walker("a", anchors, 50, 0), DefaultParams())
	// A different sample of the same habits vs a nearby but different
	// routine: same habits must win.
	same := walker("a2", anchors, 30, 300)
	diff := walker("d", other, 30, 300)
	if mA.LogLikelihood(same) <= mA.LogLikelihood(diff) {
		t.Error("model must prefer records drawn from the same habits")
	}
}

func TestFitDegenerate(t *testing.T) {
	m := Fit(nil, DefaultParams())
	if !math.IsInf(m.LogLikelihood(nil), -1) {
		t.Error("empty model/records should give -Inf")
	}
	single := []model.Record{rec("s", 37.77, -122.42, 0)}
	m = Fit(single, DefaultParams())
	ll := m.LogLikelihood(single)
	if math.IsNaN(ll) || math.IsInf(ll, 0) {
		t.Errorf("single-record model degenerate: %g", ll)
	}
}

func TestFitDeterministic(t *testing.T) {
	recs := walker("a", [][2]float64{{37.77, -122.42}, {37.80, -122.40}}, 40, 0)
	probe := walker("p", [][2]float64{{37.78, -122.41}}, 10, 7)
	m1 := Fit(recs, DefaultParams())
	m2 := Fit(recs, DefaultParams())
	if m1.LogLikelihood(probe) != m2.LogLikelihood(probe) {
		t.Error("fitting is not deterministic")
	}
}

func TestLinkRecoversCleanPairs(t *testing.T) {
	var dsE, dsI model.Dataset
	cities := [][2]float64{
		{37.77, -122.42}, {40.71, -74.00}, {51.50, -0.12}, {35.67, 139.65}, {48.85, 2.35},
	}
	for e, c := range cities {
		anchors := [][2]float64{
			{c[0], c[1]}, {c[0] + 0.03, c[1] + 0.02}, {c[0] - 0.02, c[1] + 0.03},
		}
		eid := "e" + string(rune('a'+e))
		iid := "i" + string(rune('a'+e))
		dsE.Records = append(dsE.Records, walker(eid, anchors, 30, 0)...)
		dsI.Records = append(dsI.Records, walker(iid, anchors, 30, 120)...)
	}
	res := Link(&dsE, &dsI, DefaultParams())
	if !matching.Valid(res.Links) {
		t.Fatal("GM links are not a matching")
	}
	// The matching itself must recover the clean pairs. (The stop
	// threshold may legitimately trim an all-true-positive blob — there is
	// no FP cluster to separate — so correctness is asserted on Matched.)
	correct := 0
	for _, l := range res.Matched {
		if "i"+string(l.U[1]) == string(l.V) {
			correct++
		}
	}
	if correct < 4 {
		t.Errorf("GM matched %d/5 clean pairs (matched %v)", correct, res.Matched)
	}
	// Links must be a threshold-filtered subset of Matched.
	inMatched := make(map[matching.Edge]bool)
	for _, e := range res.Matched {
		inMatched[e] = true
	}
	for _, l := range res.Links {
		if !inMatched[l] {
			t.Errorf("link %v not in matched set", l)
		}
	}
	if res.RecordComparisons == 0 {
		t.Error("record comparisons not counted")
	}
	if len(res.PairScores) != 25 {
		t.Errorf("scored %d pairs, want 25 (all cross pairs)", len(res.PairScores))
	}
}

func TestLinkOnSampledCab(t *testing.T) {
	src := datagen.Cab(datagen.CabConfig{NumTaxis: 16, Days: 1, MeanRecordIntervalSec: 600, Seed: 31})
	s := datagen.Sample(&src, datagen.SampleConfig{IntersectionRatio: 0.6, InclusionProbE: 0.8, InclusionProbI: 0.8, Seed: 32})
	res := Link(&s.E, &s.I, DefaultParams())
	if !matching.Valid(res.Links) {
		t.Fatal("GM links are not a matching")
	}
	// Cab entities share one metro and GM is weak there (the paper's
	// point); just require the pipeline to run and produce sane output.
	for _, l := range res.Links {
		if math.IsNaN(l.Score) {
			t.Fatal("NaN link weight")
		}
	}
	if res.Threshold != 0 && len(res.Matched) > 0 {
		// Threshold must lie within the matched score range.
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, e := range res.Matched {
			lo = math.Min(lo, e.Score)
			hi = math.Max(hi, e.Score)
		}
		if res.Threshold < lo-1e-9 || res.Threshold > hi+1e-9 {
			t.Errorf("threshold %g outside matched range [%g, %g]", res.Threshold, lo, hi)
		}
	}
}

func TestLinkEmpty(t *testing.T) {
	var e, i model.Dataset
	res := Link(&e, &i, DefaultParams())
	if len(res.Links) != 0 {
		t.Error("empty inputs should produce no links")
	}
}
