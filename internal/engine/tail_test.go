package engine

import (
	"math"
	"testing"
	"time"

	"slim"
	"slim/internal/fault"
)

// requireBitIdenticalLinks fails unless got and want are identical link
// for link with Float64bits-equal scores.
func requireBitIdenticalLinks(t *testing.T, step string, got, want []slim.Link) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d links, want %d", step, len(got), len(want))
	}
	for i := range got {
		if got[i].U != want[i].U || got[i].V != want[i].V ||
			math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			t.Fatalf("%s: link %d = %+v, want %+v", step, i, got[i], want[i])
		}
	}
}

// TestEnginePublishTailReuseAndPanicRecovery pins the engine's publish
// tail discipline: a weight-only ingest burst (re-observations of
// existing records, which rescore dirty pairs to identical scores) must
// flow through the delta path — whole matched prefix reused, threshold
// fit reused, no full rebuild — while a panicked run must poison the
// tail so the next run full-rebuilds it, both publishing links
// bit-identical to the pre-burst result.
func TestEnginePublishTailReuseAndPanicRecovery(t *testing.T) {
	w := standardWorkload(16)
	inj := fault.New()
	eng, err := New(w.E, w.I, Config{
		Link: slim.Defaults(), Debounce: time.Hour, Fault: inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	base := eng.Run()
	if len(base.Links) == 0 {
		t.Fatal("baseline run produced no links")
	}
	st := eng.Stats()
	if st.PublishTail == nil || st.PublishTail.Rebuilds == 0 || !st.PublishTail.LastFull {
		t.Fatalf("first run must full-build the tail: %+v", st.PublishTail)
	}

	// Weight-only burst: re-ingesting existing records dirties their
	// entities but moves no IDF epoch, so every rescored pair keeps its
	// exact score and the edge delta is empty.
	eng.AddE(w.E.Records[:8]...)
	res := eng.Run()
	requireBitIdenticalLinks(t, "weight-only burst", res.Links, base.Links)
	ts := eng.Stats().PublishTail
	if ts == nil || ts.LastFull || ts.Applies == 0 ||
		ts.ReusedPrefix != len(res.Matched) || ts.SuffixWalked != 0 {
		t.Fatalf("weight-only burst did not ride the delta path: %+v", ts)
	}
	if ts.Reuses == 0 {
		t.Fatalf("identical matched scores must reuse the threshold fit: %+v", ts)
	}
	recs, _ := eng.Runs(1, 0)
	if len(recs) != 1 || recs[0].TailFullRebuild ||
		recs[0].TailReusedPrefix != len(res.Matched) {
		t.Fatalf("journal tail fields wrong: %+v", recs[0])
	}

	// The panicked run rescored but never published, so the tail missed
	// its delta; the recovery run (a forced full rescore) must rebuild the
	// tail in full and still publish the exact links.
	eng.AddE(w.E.Records[8:16]...)
	inj.Arm(FaultRelink, fault.Rule{Panic: "injected relink", Count: 1})
	eng.Run() // contained failure: previous result republished
	rec := eng.Run()
	requireBitIdenticalLinks(t, "post-panic recovery", rec.Links, base.Links)
	ts = eng.Stats().PublishTail
	if ts == nil || !ts.LastFull {
		t.Fatalf("recovery run must full-rebuild the tail: %+v", ts)
	}
	recs, _ = eng.Runs(1, 0)
	if len(recs) != 1 || !recs[0].TailFullRebuild {
		t.Fatalf("recovery journal record must flag the tail rebuild: %+v", recs[0])
	}
	// The rebuild materialised the whole edge set for the tail; the reported
	// layers are still the run's own snapshots.
	requireLayersAreTheRunsStats(t, eng, rec)
}

// requireLayersAreTheRunsStats fails unless the state fields (sizes and
// epochs) of Stats' candidate-index and edge-store blocks are those of the
// published run's own Result.Stats snapshots.
func requireLayersAreTheRunsStats(t *testing.T, eng *Engine, res slim.Result) {
	t.Helper()
	st := eng.Stats()
	idxState := func(s *slim.CandidateIndexStats) *slim.CandidateIndexStats {
		if s == nil {
			return nil
		}
		c := *s
		c.LastDirty, c.LastUpdate = 0, 0
		return &c
	}
	got, want := idxState(st.CandidateIndex), idxState(res.Stats.LSH)
	if (got == nil) != (want == nil) || got != nil && *got != *want {
		t.Fatalf("candidate_index state %+v, the run's %+v", got, want)
	}
	es, wes := st.EdgeStore, res.Stats.EdgeStore
	if es == nil || wes == nil || es.Pairs != wes.Pairs || es.Epoch != wes.Epoch ||
		es.ResidentBytes != wes.ResidentBytes || es.ResidentBytes <= 0 {
		t.Fatalf("edge_store state %+v, the run's %+v", es, wes)
	}
}
