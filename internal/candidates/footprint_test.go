package candidates

import (
	"fmt"
	"runtime"
	"testing"

	"slim/internal/datagen"
	"slim/internal/history"
	"slim/internal/testenv"
)

// footprintStores builds the footprint tests' two 2k-user SM sides at the
// paper's record density, as signature stores for p.
func footprintStores(p Params) (se, si *history.Store) {
	ground := datagen.SM(datagen.SMConfig{NumUsers: 3070, Seed: 7})
	w := datagen.Sample(&ground, datagen.SampleConfig{
		IntersectionRatio: 0.5, InclusionProbE: 0.5, InclusionProbI: 0.5, Seed: 8,
	})
	ge, gi := w.E.GroupByEntity(-1), w.I.GroupByEntity(-1)
	se = history.BuildGrouped(&ge, wnd, 12, 1).SignatureStore(&ge, p.RowWindowing(wnd), 16, 1)
	si = history.BuildGrouped(&gi, wnd, 12, 1).SignatureStore(&gi, p.RowWindowing(wnd), 16, 1)
	return se, si
}

// TestCandidateIndexBytesPerPair budgets what the index retains per
// candidate pair after its first Update, on two 2k-user SM sides at the paper's LSH settings. The
// bucket count is scaled down with the entity count (256 for 2k entities
// a side where the paper-scale run has 4,096 for 30k), so buckets are as
// crowded as at paper scale and chance collisions, not per-entity state,
// make up the candidate set there as here.
//
// A pair costs nothing of its own: the candidate set is a function of the
// band hashes, held once as the postings, so no structure is keyed by pair
// and no list of pairs is kept. Band keys and postings add ≈ 200 B per
// entity, ≈ 10 B per pair at this density. Measured 9.7 B. With the
// enumerated pair list cached beside them (8 B a pair) it was 18.2 B, and
// on top of that list a bucket map in place of the postings made it
// 20.2 B, dense band columns over a grid relative to the data's first
// window 19.0 B, a map[uint64]int32 of band-collision counts 49.6 B, and
// keying by two entity-id strings, with signatures retained, 164 B.
func TestCandidateIndexBytesPerPair(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("heap budgets are meaningless under the race detector")
	}
	p := Params{Threshold: 0.6, StepWindows: 48, SpatialLevel: 16, NumBuckets: 256}
	se, si := footprintStores(p)
	before := testenv.LiveHeap()
	x := New(se, si, p)
	x.Update(nil, nil)
	retained := testenv.Retained(before)

	pairs := x.NumCandidates()
	if pairs < 50_000 {
		t.Fatalf("%d candidate pairs; the per-pair figure would measure per-entity state", pairs)
	}
	perPair := float64(retained) / float64(pairs)
	t.Logf("%d + %d entities, %d candidate pairs, %.1f B retained per pair", se.NumEntities(), si.NumEntities(), pairs, perPair)
	if perPair > 10.7 {
		t.Errorf("index retains %.1f B per candidate pair, budget 10.7", perPair)
	}
	runtime.KeepAlive(x)
}

// TestCandidateIndexBytesPerMembership budgets what the index retains per
// (entity, band key) membership after its first Update, at 256, 4,096 and 2^30 buckets per band: a 16 B band key, an
// 8 B posting and the per-entity span, whatever the bucket count. A
// bucket map with two member slices per bucket measured 32.3, 89.1 and
// 105.8 B here, growing with the number of buckets the memberships spread
// over; per-entity signed and history-version columns beside the spans
// 26.8–27.0 B.
func TestCandidateIndexBytesPerMembership(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("heap budgets are meaningless under the race detector")
	}
	p := Params{Threshold: 0.6, StepWindows: 48, SpatialLevel: 16}
	se, si := footprintStores(p)
	for _, buckets := range []int{256, 4096, 1 << 30} {
		t.Run(fmt.Sprint(buckets), func(t *testing.T) {
			p.NumBuckets = buckets
			before := testenv.LiveHeap()
			x := New(se, si, p)
			x.Update(nil, nil)
			retained := testenv.Retained(before)
			st := x.Stats()
			perMembership := float64(retained) / float64(st.Memberships)
			t.Logf("%d buckets, %d memberships, %.1f B retained per membership", st.Buckets, st.Memberships, perMembership)
			if perMembership > 26.5 {
				t.Errorf("index retains %.1f B per membership, budget 26.5", perMembership)
			}
			runtime.KeepAlive(x)
		})
	}
}

// TestResidentBytesMatchesLiveHeap holds Stats.ResidentBytes, summed from
// the index's column capacities, within 10 % of what a first Update
// leaves reachable on the heap.
func TestResidentBytesMatchesLiveHeap(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("heap budgets are meaningless under the race detector")
	}
	p := Params{Threshold: 0.6, StepWindows: 48, SpatialLevel: 16, NumBuckets: 4096}
	se, si := footprintStores(p)
	before := testenv.LiveHeap()
	x := New(se, si, p)
	x.Update(nil, nil)
	measured := float64(testenv.Retained(before))
	resident := float64(x.Stats().ResidentBytes)
	t.Logf("ResidentBytes %.0f, live heap %.0f", resident, measured)
	if resident < 0.9*measured || resident > 1.1*measured {
		t.Errorf("ResidentBytes %.0f is not within 10%% of the %.0f B the first Update retained", resident, measured)
	}
	runtime.KeepAlive(x)
}
