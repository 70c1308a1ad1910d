package candidates

import (
	"runtime"
	"testing"

	"slim/internal/datagen"
	"slim/internal/history"
	"slim/internal/testenv"
)

// TestCandidateIndexBytesPerPair budgets what the index retains per
// candidate pair after its first Update plus one materialisation of the
// sorted list, on two 2k-user SM sides at the paper's record density and
// LSH settings. The bucket count is scaled down with the entity count
// (256 for 2k entities a side where the paper-scale run has 4,096 for
// 30k), so buckets are as crowded as at paper scale and chance collisions,
// not per-entity state, make up the candidate set there as here.
//
// A pair costs its 8 B in the enumerated list and nothing else: the
// candidate set is a function of the band hashes, so no structure is keyed
// by pair. Band keys and bucket members add ≈ 200 B per entity, ≈ 12 B
// per pair at this density. Measured 20.2 B (19.0 B with dense band
// columns over a grid relative to the data's first window); a
// map[uint64]int32 of band-collision counts next to the same state made it
// 49.6 B, and keyed by two entity-id strings, with signatures retained,
// 164 B.
func TestCandidateIndexBytesPerPair(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("heap budgets are meaningless under the race detector")
	}
	ground := datagen.SM(datagen.SMConfig{NumUsers: 3070, Seed: 7})
	w := datagen.Sample(&ground, datagen.SampleConfig{
		IntersectionRatio: 0.5, InclusionProbE: 0.5, InclusionProbI: 0.5, Seed: 8,
	})
	p := Params{Threshold: 0.6, StepWindows: 48, SpatialLevel: 16, NumBuckets: 256}
	ge, gi := w.E.GroupByEntity(-1), w.I.GroupByEntity(-1)
	se := history.BuildGrouped(&ge, wnd, 12, 1).SignatureStore(&ge, p.RowWindowing(wnd), 16, 1)
	si := history.BuildGrouped(&gi, wnd, 12, 1).SignatureStore(&gi, p.RowWindowing(wnd), 16, 1)
	before := testenv.LiveHeap()
	x := New(se, si, p)
	x.Update(nil, nil)
	pairs := x.Pairs()
	after := testenv.LiveHeap()

	if len(pairs) < 50_000 {
		t.Fatalf("%d candidate pairs; the per-pair figure would measure per-entity state", len(pairs))
	}
	perPair := float64(after-before) / float64(len(pairs))
	t.Logf("%d + %d entities, %d candidate pairs, %.1f B retained per pair", se.NumEntities(), si.NumEntities(), len(pairs), perPair)
	if perPair > 24 {
		t.Errorf("index retains %.1f B per candidate pair, budget 24", perPair)
	}
	runtime.KeepAlive(x)
}
