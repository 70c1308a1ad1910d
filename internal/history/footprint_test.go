package history_test

import (
	"runtime"
	"testing"

	"slim/internal/datagen"
	"slim/internal/history"
	"slim/internal/lsh"
)

// TestStoreBytesPerBin budgets the retained heap of a 2k-user history
// store at the paper's SM density (≈ 12 records per user, drawn the way
// the benchmark draws its sides), at the similarity level and at the LSH
// level, after every signature has been built. Per bin the columns cost
// 16 B plus 12 B per window, the per-history headers ≈ 15 B at this
// density, and the bin→entity index 28–57 B depending on where the map's
// load factor stands; dominating-cell queries must leave nothing behind.
// Cached per-history aggregation levels once made this ≈ 1 KB per bin.
func TestStoreBytesPerBin(t *testing.T) {
	ground := datagen.SM(datagen.SMConfig{NumUsers: 3070, Seed: 7})
	e := datagen.Sample(&ground, datagen.SampleConfig{
		IntersectionRatio: 0.5, InclusionProbE: 0.5, InclusionProbI: 0.5, Seed: 8,
	}).E
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	for _, level := range []int{12, 16} {
		before := heap()
		s := history.Build(&e, refWindowing, level)
		minW, maxW, _ := s.WindowRange()
		if n := len(lsh.BuildSignatures(s, 48, minW, maxW)); n != s.NumEntities() {
			t.Fatalf("level %d: %d signatures for %d entities", level, n, s.NumEntities())
		}
		after := heap() // the signatures are garbage by now; the store is not
		bins := 0
		for _, id := range s.Entities() {
			bins += s.History(id).NumBins()
		}
		perBin := float64(after-before) / float64(bins)
		t.Logf("level %d: %d entities, %d bins, %.1f B retained per bin", level, s.NumEntities(), bins, perBin)
		if perBin > 96 {
			t.Errorf("level %d: store retains %.1f B per bin after signatures, budget 96", level, perBin)
		}
		runtime.KeepAlive(s)
	}
}
