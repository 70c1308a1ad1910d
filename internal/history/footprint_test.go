package history_test

import (
	"runtime"
	"testing"

	"slim/internal/candidates"
	"slim/internal/datagen"
	"slim/internal/history"
	"slim/internal/testenv"
)

// TestStoreBytesPerBin budgets the retained heap of a 2k-user side at the
// paper's SM density (≈ 12 records per user, drawn the way the benchmark
// draws its sides): the scoring store at the similarity level, the same
// store once every view is compiled, and the signature store at the LSH
// level after every signature has been built. Per bin the columns cost
// 16 B plus 12 B per window and the per-history headers ≈ 15 B at this
// density; the scoring store adds the frequency index — 12 B of sorted
// column per distinct bin plus two slice headers per window, which weigh
// more here (≈ 10 bins a window) than at paper scale (≈ 140) — which the
// signature store does not keep. A compiled view adds 12 B per bin
// (interned cell, IDF weight), 8 B per window and a 160 B header of its
// own, and points at the history's columns for the rest. Dominating-cell
// queries must leave nothing behind. Cached per-history aggregation levels once made this
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
		// Measured 64.4 B per bin; 83.9 B with a map[Bin]int32 as the index.
		{"scoring store, level 12", 75, func() *history.Store {
			sim = history.BuildGrouped(&g, refWindowing, 12, 1)
			return sim
		}},
		// Measured 103.2 B per bin, plus 15 %; 144.1 B when a view cloned the
		// window, offset and weight columns (and the index was a map).
		{"scoring store, compiled", 119, func() *history.Store {
			s := history.BuildGrouped(&g, refWindowing, 12, 1)
			s.Compile(1)
			return s
		}},
		// Measured 42.3 B per bin (81.6 B with the bin→entity index), plus 25 %.
		{"signature store, level 16", 53, func() *history.Store {
			s := sim.SignatureStore(&g, 16, 1)
			minW, maxW, _ := s.WindowRange()
			n := candidates.SignatureLength(minW, maxW, 48)
			for _, id := range s.Entities() {
				if sig := candidates.AppendSignature(nil, s.History(id), 48, minW, maxW, n); len(sig) != n {
					t.Fatalf("%s: signature of %d rows, want %d", id, len(sig), n)
				}
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
