package slim

import (
	"runtime"
	"testing"

	"slim/internal/candidates"
	"slim/internal/testenv"
)

// TestLinkerResidentBytesMatchesLiveHeap holds what the linker's layers
// report as resident, summed from their column capacities, within 10 % of
// what a linker leaves reachable on the heap, on the serve workloads'
// seed: SM at 8,000 users, sampled as the benchmark samples it, with the
// filter at its defaults. Two states are measured. After NewLinker and a
// compile, the history stores and the candidate index are what the linker
// holds; beyond them the measurement sees the scorer and the empty edge
// store. After the first Run the edge store — its pair map and greedy
// order — joins them; beyond the three the measurement sees the scorer
// and Publish's threshold fit cache.
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
	check := func(state string, edges int64) {
		t.Helper()
		measured := float64(testenv.LiveHeap() - before)
		h := lk.HistoryStats()
		idx := lk.CandidateIndexStats().ResidentBytes
		resident := float64(h.ScoringE + h.ScoringI + h.SignatureE + h.SignatureI + h.OrdinalsE + h.OrdinalsI +
			idx + edges)
		t.Logf("%s: history stores %+v, candidate index %d B, edge store %d B: resident %.0f B, live heap %.0f B",
			state, *h, idx, edges, resident, measured)
		if resident < 0.9*measured || resident > 1.1*measured {
			t.Errorf("%s: resident bytes %.0f are not within 10%% of the %.0f B the linker retained",
				state, resident, measured)
		}
	}
	lk.Precompile()
	check("after NewLinker and a compile", 0)
	lk.Run() // the published result is the caller's, not the linker's: dropped here
	check("after Run", lk.edges.statsSnapshot().ResidentBytes)
	runtime.KeepAlive(lk)
	runtime.KeepAlive(w)
}
