package engine

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"slim"
	"slim/internal/testenv"
)

// TestRunJournalRecordsEveryRun drives manual and clean runs through a
// small engine and checks the flight recorder: every run attempt lands
// in the ring (including zero-work short circuits), records come back
// newest first, triggers and decisions are recorded, successful
// lineage-relevant fields line up with the published version, and the
// compile stage is timed inside the rescore stage.
func TestRunJournalRecordsEveryRun(t *testing.T) {
	ground := slim.GenerateCab(slim.CabOptions{NumTaxis: 10, Days: 2, MeanRecordIntervalSec: 360, Seed: 99})
	w := slim.SampleWorkload(&ground, slim.SampleOptions{
		IntersectionRatio: 0.5, InclusionProbE: 0.5, InclusionProbI: 0.5, Seed: 100,
	})
	eng, err := New(w.E, w.I, Config{Link: slim.Defaults(), Debounce: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	eng.Run()        // full first link
	eng.Run()        // fully clean: short circuit
	res := eng.Run() // still clean
	if len(res.Links) == 0 {
		t.Fatal("workload produced no links")
	}

	recs, total := eng.Runs(0, 0)
	if total != 3 || len(recs) != 3 {
		t.Fatalf("journal has %d records, total %d, want 3/3", len(recs), total)
	}
	for i := 1; i < len(recs); i++ {
		if recs[i-1].Seq <= recs[i].Seq {
			t.Fatalf("records not newest first: seq %d before %d", recs[i-1].Seq, recs[i].Seq)
		}
	}
	first, second := recs[2], recs[1]
	if first.Trigger != "manual" || first.ShortCircuit || !first.FullRescore {
		t.Fatalf("first run record %+v, want manual full rescore", first)
	}
	if first.Version != 1 || first.Rescored == 0 || first.Rescored != first.CandidatePairs {
		t.Fatalf("first run record %+v, want version 1 with every candidate rescored", first)
	}
	// The first run compiles both scoring stores from nothing, inside its
	// rescore stage.
	if first.CompileDur <= 0 || first.CompileDur > first.RescoreDur {
		t.Fatalf("first run compiled in %v of a %v rescore, want a positive part of it", first.CompileDur, first.RescoreDur)
	}
	if !second.ShortCircuit || second.Version != 1 || second.Rescored != 0 {
		t.Fatalf("second run record %+v, want short circuit at version 1", second)
	}
	if second.Links != int64(len(res.Links)) {
		t.Fatalf("short-circuit record links %d, want %d", second.Links, len(res.Links))
	}

	// Pagination: limit/offset walk the same newest-first order.
	page, _ := eng.Runs(1, 1)
	if len(page) != 1 || page[0].Seq != recs[1].Seq {
		t.Fatalf("Runs(1, 1) = %+v, want the second-newest record", page)
	}
}

// TestRunJournalBoundedUnderHammer is the ring's bound gate: a small
// journal hammered by concurrent ingest, manual runs, and journal reads
// (run with -race in CI) must never retain more than its configured
// capacity, while the total run count keeps counting every attempt.
func TestRunJournalBoundedUnderHammer(t *testing.T) {
	ground := slim.GenerateCab(slim.CabOptions{NumTaxis: 8, Days: 1, MeanRecordIntervalSec: 600, Seed: 11})
	w := slim.SampleWorkload(&ground, slim.SampleOptions{
		IntersectionRatio: 0.5, InclusionProbE: 0.5, InclusionProbI: 0.5, Seed: 12,
	})
	const journalSize = 4
	eng, err := New(w.E, w.I, Config{
		Link: slim.Defaults(), Debounce: time.Millisecond, RunJournal: journalSize,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	eng.Start()

	lo, hi, _ := w.E.TimeRange()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Ingest churn keeps the background scheduler firing alongside the
	// manual runs below.
	wg.Add(1)
	go func() {
		defer wg.Done()
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			i++
			rec := slim.NewRecord(slim.EntityID(fmt.Sprintf("hammer-%d", i%5)),
				37.2+float64(i%7)*0.01, -121.9, lo+int64(i)%(hi-lo))
			eng.AddE(rec)
			time.Sleep(200 * time.Microsecond)
		}
	}()
	// Concurrent journal readers race the writers.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				recs, _ := eng.Runs(0, 0)
				if len(recs) > journalSize {
					panic(fmt.Sprintf("journal exceeded its bound: %d > %d", len(recs), journalSize))
				}
			}
		}()
	}
	for i := 0; i < 30; i++ {
		eng.Run()
		if n := eng.RunJournal().Records; n > journalSize {
			t.Fatalf("journal retains %d records, bound is %d", n, journalSize)
		}
	}
	close(stop)
	wg.Wait()

	recs, total := eng.Runs(0, 0)
	if len(recs) > journalSize {
		t.Fatalf("journal retains %d records, bound is %d", len(recs), journalSize)
	}
	if total < 30 {
		t.Fatalf("total runs %d, want at least the 30 manual ones", total)
	}
	if eng.RunJournal().Capacity != journalSize {
		t.Fatalf("journal capacity %d, want %d", eng.RunJournal().Capacity, journalSize)
	}
}

// TestRunJournalGrowsToItsBound checks that a journal holds what it has
// recorded, not its bound — a 16,384-run ring retains almost nothing
// before its first run — and still wraps at exactly its size, newest
// first. The heap reading skips itself under -race. It is the least of
// three: one reading also counts whatever another goroutine of the test
// binary allocated between its two collections, while a journal that
// reserved its bound would show in all three.
func TestRunJournalGrowsToItsBound(t *testing.T) {
	if !testenv.RaceEnabled {
		retained := int64(math.MaxInt64)
		for range 3 {
			before := testenv.LiveHeap()
			j := newJournal(16384)
			retained = min(retained, testenv.Retained(before))
			runtime.KeepAlive(&j)
		}
		if retained >= 4<<10 {
			t.Fatalf("an empty 16384-run journal retains %d B, budget 4 KB", retained)
		}
	}
	j := newJournal(3)
	for seq := uint64(1); seq <= 5; seq++ {
		j.add(RunRecord{Seq: seq})
	}
	var got []uint64
	for _, r := range j.snapshot(0, 0) {
		got = append(got, r.Seq)
	}
	if len(j.buf) != 3 || !slices.Equal(got, []uint64{5, 4, 3}) {
		t.Fatalf("3-run journal after 5 runs holds %d records %v, want [5 4 3]", len(j.buf), got)
	}
}

// TestEngineExplainJoinsJournal checks the engine-level provenance join:
// a published link explains with lineage whose run seq equals the
// version that produced it, and the joined journal entry is that run.
func TestEngineExplainJoinsJournal(t *testing.T) {
	ground := slim.GenerateCab(slim.CabOptions{NumTaxis: 10, Days: 2, MeanRecordIntervalSec: 360, Seed: 21})
	w := slim.SampleWorkload(&ground, slim.SampleOptions{
		IntersectionRatio: 0.6, InclusionProbE: 0.6, InclusionProbI: 0.6, Seed: 22,
	})
	eng, err := New(w.E, w.I, Config{Link: slim.Defaults(), Debounce: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	res := eng.Run()
	if len(res.Links) == 0 {
		t.Fatal("workload produced no links")
	}
	_, version, _ := eng.Result()

	for _, l := range res.Links {
		ex := eng.Explain(l.U, l.V)
		if !ex.Edge.Linked || ex.Edge.Score != l.Score {
			t.Fatalf("link (%s, %s): edge lineage %+v does not match link score %v",
				l.U, l.V, ex.Edge, l.Score)
		}
		if ex.Edge.RescoredSeq > ex.Version {
			t.Fatalf("link (%s, %s): lineage seq %d > published version %d",
				l.U, l.V, ex.Edge.RescoredSeq, ex.Version)
		}
		if ex.Version != version {
			t.Fatalf("explain version %d, want %d", ex.Version, version)
		}
		if ex.Run == nil {
			t.Fatalf("link (%s, %s): no journal join for lineage seq %d", l.U, l.V, ex.Edge.RescoredSeq)
		}
		if ex.Run.Version != ex.Edge.RescoredSeq || ex.Run.Panicked {
			t.Fatalf("link (%s, %s): joined run %+v does not match lineage seq %d",
				l.U, l.V, ex.Run, ex.Edge.RescoredSeq)
		}
	}
}

// TestExplainNeverJoinsShortCircuit is the regression test for the journal
// join: short circuits are journaled with the version they left standing,
// so once the ring wraps a version lookup could land on one of them. The
// join must return the run that published the edge, or nothing.
func TestExplainNeverJoinsShortCircuit(t *testing.T) {
	w := standardWorkload(12)
	eng, err := New(w.E, w.I, Config{Link: slim.Defaults(), Debounce: time.Hour, RunJournal: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	eng.Run()
	// Re-observing every E record dirties every pair, so run #2 rescores
	// (and stamps its version on) every published link.
	eng.AddE(w.E.Records...)
	res := eng.Run()
	if len(res.Links) == 0 {
		t.Fatal("workload produced no links")
	}
	u, v := res.Links[0].U, res.Links[0].V
	if ex := eng.Explain(u, v); ex.Edge.RescoredSeq != 2 {
		t.Fatalf("link lineage seq %d, want 2 (rescored by run #2)", ex.Edge.RescoredSeq)
	}

	eng.Run() // short circuit; the ring now holds run #2 and the short circuit
	ex := eng.Explain(u, v)
	if ex.Run == nil || ex.Run.Seq != 2 || ex.Run.ShortCircuit {
		t.Fatalf("explain joined %+v, want run #2", ex.Run)
	}
	eng.Run() // a second short circuit evicts run #2
	if ex := eng.Explain(u, v); ex.Run != nil {
		t.Fatalf("explain joined %+v after the producing run aged out, want nil", ex.Run)
	}
}

// TestIndexTimeIsTheRunsOwn: a run's candidate_index_ms and index dirty
// count are its own Rescore's index update. The boot link of an -lsh
// engine updates nothing (NewLinker built the index), so it reads 0 in
// its record and in Stats; a later delta run re-signs its one dirty
// entity in a positive time inside its rescore stage.
func TestIndexTimeIsTheRunsOwn(t *testing.T) {
	w := standardWorkload(16)
	cfg := slim.Defaults()
	cfg.LSH = &slim.LSHConfig{Threshold: 0.01, StepWindows: 48, SpatialLevel: 12, NumBuckets: 1 << 14}
	eng, err := New(w.E, w.I, Config{Link: cfg, Debounce: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	newest := func() RunRecord {
		recs, _ := eng.Runs(1, 0)
		return recs[0]
	}

	eng.Run()
	if boot := newest(); boot.IndexDur != 0 || boot.indexDirty != 0 {
		t.Fatalf("boot link reports index work %v over %d entities, want none", boot.IndexDur, boot.indexDirty)
	}
	if ci := eng.Stats().CandidateIndex; ci == nil || ci.LastDirty != 0 || ci.LastUpdate != 0 {
		t.Fatalf("stats after the boot link report index work: %+v", ci)
	}

	eng.AddE(w.E.Records[0]) // a re-observation: one dirty entity, no epoch move
	eng.Run()
	delta := newest()
	if delta.FullRescore || delta.indexDirty != 1 || delta.IndexDur <= 0 || delta.IndexDur > delta.RescoreDur {
		t.Fatalf("delta run: full %v, index %v over %d entities in a %v rescore; want a delta re-signing one entity inside it",
			delta.FullRescore, delta.IndexDur, delta.indexDirty, delta.RescoreDur)
	}
}
