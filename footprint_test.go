package slim

import (
	"cmp"
	"math"
	"runtime"
	"slices"
	"testing"

	"slim/internal/candidates"
	"slim/internal/testenv"
)

// serveStream draws the serve workloads' shape at the given SM user count:
// the sampled workload, its two sides split into a boot seed and a stream
// of flushes of the latest records, perFlush a side per flush, in time
// order (ties by entity id), as the serve_fresh benchmark splits them.
func serveStream(users, flushes, perFlush int) (w SampledWorkload, seedE, seedI Dataset, stream [][2][]Record) {
	ground := GenerateSM(SMOptions{NumUsers: users, Days: 26, AvgRecords: 24, Seed: 1})
	w = SampleWorkload(&ground, SampleOptions{
		IntersectionRatio: 0.5, InclusionProbE: 0.5, InclusionProbI: 0.5, Seed: 2,
	})
	split := func(d Dataset) (Dataset, []Record) {
		recs := slices.Clone(d.Records)
		slices.SortStableFunc(recs, func(a, b Record) int {
			return cmp.Or(cmp.Compare(a.Unix, b.Unix), cmp.Compare(a.Entity, b.Entity))
		})
		cut := len(recs) - min(flushes*perFlush, len(recs)/2)
		return Dataset{Name: d.Name, Records: recs[:cut]}, recs[cut:]
	}
	seedE, tailE := split(w.E)
	seedI, tailI := split(w.I)
	for k := 0; (k+1)*perFlush <= min(len(tailE), len(tailI)); k++ {
		stream = append(stream, [2][]Record{tailE[k*perFlush : (k+1)*perFlush], tailI[k*perFlush : (k+1)*perFlush]})
	}
	return w, seedE, seedI, stream
}

// streamConfig is the serve workloads' linkage: the filter at its
// defaults, and no entity dropped at boot, since a streamed record
// bypasses the MinRecords filter (Linker.AddE) and a linker built over the
// same records must see the same entities.
func streamConfig() Config {
	cfg := Defaults()
	cfg.MinRecords = -1
	lsh := candidates.DefaultParams()
	cfg.LSH = &lsh
	return cfg
}

// residentBytes sums what the linker's layers report as resident: the
// history stores and entity tables, the candidate index and the edge
// store, each logged.
func residentBytes(t *testing.T, state string, lk *Linker) int64 {
	t.Helper()
	h := lk.HistoryStats()
	idx := lk.CandidateIndexStats().ResidentBytes
	edges := lk.edges.statsSnapshot().ResidentBytes
	total := h.ScoringE + h.ScoringI + h.SignatureE + h.SignatureI + h.OrdinalsE + h.OrdinalsI + idx + edges
	t.Logf("%s: history stores %+v, candidate index %d B, edge store %d B: resident %d B",
		state, *h, idx, edges, total)
	return total
}

// TestLinkerResidentBytesMatchesLiveHeap holds what the linker's layers
// report as resident, summed from their column capacities, within 10 % of
// what a linker leaves reachable on the heap, on the serve workloads'
// seed: SM at 8,000 users, sampled as the benchmark samples it and split
// as serve_fresh splits it, with the filter at its defaults. Three states
// are measured. After NewLinker over the boot seed and a compile, the
// history stores and the candidate index are what the linker holds;
// beyond them the measurement sees the scorer and the empty edge store.
// After the first Run the edge store — its one column of edges in greedy
// order — joins them; beyond the three the measurement sees the scorer and
// Publish's threshold fit cache. After the stream, a Run after each of its
// 26 flushes, the columns carry what streaming leaves: moved ranges, dead
// ones and spare capacity. Each state's resident bytes are budgeted too:
// they are column capacities, the same on every run.
func TestLinkerResidentBytesMatchesLiveHeap(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("heap budgets are meaningless under the race detector")
	}
	w, seedE, seedI, stream := serveStream(8000, 26, 350)
	before := testenv.LiveHeap()
	lk, err := NewLinker(seedE, seedI, streamConfig())
	if err != nil {
		t.Fatal(err)
	}
	check := func(state string, budget float64) {
		t.Helper()
		measured := float64(testenv.Retained(before))
		resident := float64(residentBytes(t, state, lk))
		t.Logf("%s: live heap %.0f B", state, measured)
		if resident < 0.9*measured || resident > 1.1*measured {
			t.Errorf("%s: resident bytes %.0f are not within 10%% of the %.0f B the linker retained",
				state, resident, measured)
		}
		if resident > budget {
			t.Errorf("%s: resident bytes %.0f, budget %.0f", state, resident, budget)
		}
	}
	lk.Precompile()
	// Measured 7.78 MB; 8.27 MB when a scoring store kept a frequency
	// index (per window, the cells held and their df) beside its columns,
	// 8.57 MB when a segment carried its own fill stamp (24 B, not 12) and
	// a compile listed the stale ordinals, 10.48 MB when a history store
	// kept a per-window family (window, bin offset) beside its per-bin
	// one.
	check("after NewLinker and a compile", 7.9e6)
	lk.Run() // the published result is the caller's, not the linker's: dropped here
	// Measured 7.88 MB, 8.37 with the frequency index, 8.66 with the
	// per-segment stamp, 10.58 with the per-window family.
	check("after Run", 8.0e6)
	for _, f := range stream {
		lk.AddE(f[0]...)
		lk.AddI(f[1]...)
		lk.Run()
	}
	// Measured 10.31 MB, 10.97 with the frequency index, 11.26 with the
	// per-segment stamp, 13.94 with the per-window family.
	check("after the stream", 10.5e6)
	runtime.KeepAlive(lk)
	runtime.KeepAlive(w)
	runtime.KeepAlive(seedE)
	runtime.KeepAlive(seedI)
	runtime.KeepAlive(stream)
}

// TestStreamedLinkerKeepsWhatABuildKeeps replays a serve_fresh-shaped
// stream — the latest records of a 2,000-user SM sample, time-sorted, in
// 26 flushes a side with a Run after each — into a linker booted on the
// rest. Every flush opens windows and bins, so segments and band-key
// lists move again and again; the dead ranges and spare capacity that
// leaves keep the streamed linker within 1.2 times the resident bytes of
// one built over the same records, and its links are bit-identical to
// LinkDatasets'. Resident bytes are column capacities, so the bound holds
// under the race detector too.
func TestStreamedLinkerKeepsWhatABuildKeeps(t *testing.T) {
	w, seedE, seedI, stream := serveStream(2000, 26, 90)
	cfg := streamConfig()
	lk, err := NewLinker(seedE, seedI, cfg)
	if err != nil {
		t.Fatal(err)
	}
	lk.Run()
	var got Result
	for _, f := range stream {
		lk.AddE(f[0]...)
		lk.AddI(f[1]...)
		got = lk.Run()
	}
	want, err := LinkDatasets(w.E, w.I, cfg)
	if err != nil {
		t.Fatal(err)
	}
	built, err := NewLinker(w.E, w.I, cfg)
	if err != nil {
		t.Fatal(err)
	}
	built.Run() // its edge store counts too
	streamed, fresh := residentBytes(t, "streamed", lk), residentBytes(t, "built", built)
	ratio := float64(streamed) / float64(fresh)
	t.Logf("the streamed linker keeps %.3fx what a built one keeps", ratio)
	if ratio > 1.2 {
		t.Errorf("the streamed linker keeps %.3fx the resident bytes of one built over the same records, budget 1.2x", ratio)
	}
	bits := func(a, b Link) bool {
		return a.U == b.U && a.V == b.V && math.Float64bits(a.Score) == math.Float64bits(b.Score)
	}
	if !slices.EqualFunc(got.Links, want.Links, bits) {
		t.Fatalf("the streamed linker publishes %d links that differ from LinkDatasets' %d", len(got.Links), len(want.Links))
	}
	if len(want.Links) == 0 {
		t.Fatal("fixture links nothing")
	}
}
