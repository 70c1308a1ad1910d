package candidates

import (
	"fmt"
	"slices"
	"testing"

	"slim/internal/history"
	"slim/internal/model"
)

// regionHeavyRecords builds a side whose dominance is decided by exact
// ties between sums of fractional region weights: each entity reports the
// same center with several radii from different windows of one query
// step, so every cell inside the smallest region receives the same
// multiset of weights {1/n1, 1/n2, …}. The sums are equal only if every
// cell's weights are added in the same order; summed in a varying order
// they differ in the last ulp and the dominating cell — hence the
// signature — flips between runs.
func regionHeavyRecords(side string) []model.Record {
	var recs []model.Record
	for e := 0; e < 12; e++ {
		id := fmt.Sprintf("%s%02d", side, e)
		lat, lng := 37.60+0.03*float64(e%4), -122.40+0.03*float64(e/4)
		for q := 0; q < 6; q++ {
			for k, radius := range []float64{1.3, 1.9, 2.4, 3.1, 3.8} {
				r := rec(id, lat, lng, int64(900*(8*q+k)))
				r.RadiusKm = radius
				recs = append(recs, r)
			}
		}
	}
	return recs
}

// TestRegionSignaturesAreReproducible pins the fixed summation order of a
// row's bin weights: 50 builds of the same region-heavy stores must produce
// identical signatures and an identical candidate set.
func TestRegionSignaturesAreReproducible(t *testing.T) {
	p := Params{Threshold: 0.4, StepWindows: 8, SpatialLevel: level, NumBuckets: 64}
	build := func() (sigs []Signature, pairs []uint64) {
		se, si := sigStore("E", regionHeavyRecords("e"), p), sigStore("I", regionHeavyRecords("i"), p)
		x := New(se, si, p)
		x.Update(nil, nil)
		for _, s := range []*history.Store{se, si} {
			for _, id := range s.Entities() {
				sigs = append(sigs, AppendSignature(nil, s.History(id)))
			}
		}
		return sigs, x.Pairs()
	}
	wantSigs, wantPairs := build()
	if len(wantPairs) == 0 {
		t.Fatal("workload produced no candidates; the test must compare a non-empty set")
	}
	for run := 1; run < 50; run++ {
		sigs, pairs := build()
		for k := range wantSigs {
			if !slices.Equal(sigs[k], wantSigs[k]) {
				t.Fatalf("run %d: signature %d differs from the first build:\n  %v\n  %v", run, k, sigs[k], wantSigs[k])
			}
		}
		if !slices.Equal(pairs, wantPairs) {
			t.Fatalf("run %d: candidate set differs from the first build (%d vs %d pairs)", run, len(pairs), len(wantPairs))
		}
	}
}
