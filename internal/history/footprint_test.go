package history_test

import (
	"runtime"
	"testing"

	"slim/internal/datagen"
	"slim/internal/history"
	"slim/internal/lsh"
	"slim/internal/testenv"
)

// TestStoreBytesPerBin budgets the retained heap of a 2k-user side at the
// paper's SM density (≈ 12 records per user, drawn the way the benchmark
// draws its sides): the scoring store at the similarity level, and the
// signature store at the LSH level after every signature has been built.
// Per bin the columns cost 16 B plus 12 B per window and the per-history
// headers ≈ 15 B at this density; the scoring store adds the bin→entity
// index, 28–57 B depending on where the map's load factor stands, which
// the signature store does not keep. Dominating-cell queries must leave
// nothing behind. Cached per-history aggregation levels once made this
// ≈ 1 KB per bin.
func TestStoreBytesPerBin(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("heap budgets are meaningless under the race detector")
	}
	ground := datagen.SM(datagen.SMConfig{NumUsers: 3070, Seed: 7})
	e := datagen.Sample(&ground, datagen.SampleConfig{
		IntersectionRatio: 0.5, InclusionProbE: 0.5, InclusionProbI: 0.5, Seed: 8,
	}).E
	g := e.GroupByEntity(-1)
	var sim *history.Store
	for _, tc := range []struct {
		name   string
		budget float64 // bytes per bin
		build  func() *history.Store
	}{
		{"scoring store, level 12", 96, func() *history.Store {
			sim = history.BuildGrouped(&g, refWindowing, 12, 1)
			return sim
		}},
		// Measured 42.3 B per bin (81.6 B with the bin→entity index), plus 25 %.
		{"signature store, level 16", 53, func() *history.Store {
			s := sim.SignatureStore(&g, 16, 1)
			minW, maxW, _ := s.WindowRange()
			if n := len(lsh.BuildSignatures(s, 48, minW, maxW)); n != s.NumEntities() {
				t.Fatalf("%d signatures for %d entities", n, s.NumEntities())
			}
			return s // the signatures are garbage by now; the store is not
		}},
	} {
		before := testenv.LiveHeap()
		s := tc.build()
		after := testenv.LiveHeap()
		bins := 0
		for _, id := range s.Entities() {
			bins += s.History(id).NumBins()
		}
		perBin := float64(after-before) / float64(bins)
		t.Logf("%s: %d entities, %d bins, %.1f B retained per bin", tc.name, s.NumEntities(), bins, perBin)
		if perBin > tc.budget {
			t.Errorf("%s: retains %.1f B per bin, budget %.0f", tc.name, perBin, tc.budget)
		}
		runtime.KeepAlive(s)
	}
	runtime.KeepAlive(g)
}
