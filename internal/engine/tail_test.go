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
// discipline: a weight-only ingest burst (re-observations of existing
// records, which rescore dirty pairs to identical scores) must flow
// through the delta path — no full rescore, threshold fit reused — while
// a panicked run forces the next run to rescore, and so re-sort, the
// whole edge store, both publishing links bit-identical to the pre-burst
// result. The journal's harness-only tail fields follow: a tail rebuild
// is a full rescore, and no prefix is reused.
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

	requireRecord := func(step string, full bool) {
		t.Helper()
		recs, _ := eng.Runs(1, 0)
		if len(recs) != 1 || recs[0].FullRescore != full || recs[0].TailFullRebuild != full ||
			recs[0].TailReusedPrefix != 0 {
			t.Fatalf("%s: journal record %+v, want full rescore and tail rebuild %v", step, recs, full)
		}
	}
	base := eng.Run()
	if len(base.Links) == 0 {
		t.Fatal("baseline run produced no links")
	}
	st := eng.Stats()
	if st.PublishTail == nil || st.PublishTail.Matched != len(base.Matched) || st.PublishTail.Fits == 0 {
		t.Fatalf("first run's publish stats: %+v (matched %d)", st.PublishTail, len(base.Matched))
	}
	requireRecord("first run", true)

	// Weight-only burst: re-ingesting existing records dirties their
	// entities but moves no IDF epoch, so every rescored pair keeps its
	// exact score and the edge store's order does not change.
	eng.AddE(w.E.Records[:8]...)
	res := eng.Run()
	requireBitIdenticalLinks(t, "weight-only burst", res.Links, base.Links)
	ts := eng.Stats().PublishTail
	if ts == nil || ts.Matched != len(res.Matched) || ts.Reuses == 0 {
		t.Fatalf("identical matched scores must reuse the threshold fit: %+v", ts)
	}
	requireRecord("weight-only burst", false)

	// The panicked run rescored but never published; the recovery run (a
	// forced full rescore) re-sorts the edge store and still publishes the
	// exact links.
	eng.AddE(w.E.Records[8:16]...)
	inj.Arm(FaultRelink, fault.Rule{Panic: "injected relink", Count: 1})
	eng.Run() // contained failure: previous result republished
	rec := eng.Run()
	requireBitIdenticalLinks(t, "post-panic recovery", rec.Links, base.Links)
	requireRecord("recovery run", true)
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
