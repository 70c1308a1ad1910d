package slim

import (
	"runtime"
	"testing"

	"slim/internal/candidates"
	"slim/internal/testenv"
)

// TestLinkerResidentBytesMatchesLiveHeap holds what the linker's history
// stores and candidate index report as resident, summed from their column
// capacities, within 10 % of what a compiled linker leaves reachable on the
// heap, on the serve workloads' seed: SM at 8,000 users, sampled as the
// benchmark samples it, with the filter at its defaults. Those two layers
// are what a linker holds before its first Run; what the measurement sees
// beyond them is the scorer and the empty edge store.
func TestLinkerResidentBytesMatchesLiveHeap(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("heap budgets are meaningless under the race detector")
	}
	ground := GenerateSM(SMOptions{NumUsers: 8000, Days: 26, AvgRecords: 24, Seed: 1})
	w := SampleWorkload(&ground, SampleOptions{
		IntersectionRatio: 0.5, InclusionProbE: 0.5, InclusionProbI: 0.5, Seed: 2,
	})
	cfg := Defaults()
	lsh := candidates.DefaultParams()
	cfg.LSH = &lsh
	before := testenv.LiveHeap()
	lk, err := NewLinker(w.E, w.I, cfg)
	if err != nil {
		t.Fatal(err)
	}
	lk.Precompile()
	measured := float64(testenv.LiveHeap() - before)
	h := lk.HistoryStats()
	resident := float64(h.ScoringE + h.ScoringI + h.SignatureE + h.SignatureI + h.OrdinalsE + h.OrdinalsI +
		lk.CandidateIndexStats().ResidentBytes)
	t.Logf("history stores %+v, candidate index %d B: resident %.0f B, live heap %.0f B",
		*h, lk.CandidateIndexStats().ResidentBytes, resident, measured)
	if resident < 0.9*measured || resident > 1.1*measured {
		t.Errorf("resident bytes %.0f are not within 10%% of the %.0f B the linker retained", resident, measured)
	}
	runtime.KeepAlive(lk)
	runtime.KeepAlive(w)
}
