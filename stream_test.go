package slim

import (
	"sort"
	"testing"
)

// splitByTime divides a dataset's records at a unix timestamp.
func splitByTime(d Dataset, cut int64) (before, after []Record) {
	for _, r := range d.Records {
		if r.Unix < cut {
			before = append(before, r)
		} else {
			after = append(after, r)
		}
	}
	return before, after
}

// TestIncrementalRunMatchesBatch streams the tail of a workload into a
// prepared linker and verifies the re-link result is identical to linking
// the full data in one batch.
func TestIncrementalRunMatchesBatch(t *testing.T) {
	ground := GenerateCab(CabOptions{NumTaxis: 20, Days: 2, MeanRecordIntervalSec: 420, Seed: 61})
	w := SampleWorkload(&ground, SampleOptions{
		IntersectionRatio: 0.5, InclusionProbE: 0.7, InclusionProbI: 0.7, Seed: 62,
	})
	lo, _, _ := w.E.TimeRange()
	cut := lo + 130000 // ~1.5 days in: every entity already has many records

	beforeE, afterE := splitByTime(w.E, cut)
	beforeI, afterI := splitByTime(w.I, cut)

	cfg := Defaults()
	lk, err := NewLinker(
		Dataset{Name: "E", Records: beforeE},
		Dataset{Name: "I", Records: beforeI},
		cfg,
	)
	if err != nil {
		t.Fatal(err)
	}
	first := lk.Run()

	lk.AddE(afterE...)
	lk.AddI(afterI...)
	second := lk.Run()

	batch, err := LinkDatasets(w.E, w.I, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(second.Links) != len(batch.Links) {
		t.Fatalf("incremental links = %d, batch links = %d", len(second.Links), len(batch.Links))
	}
	sortLinks := func(ls []Link) {
		sort.Slice(ls, func(i, j int) bool { return ls[i].U < ls[j].U })
	}
	sortLinks(second.Links)
	sortLinks(batch.Links)
	for i := range batch.Links {
		if second.Links[i] != batch.Links[i] {
			t.Fatalf("link %d differs: %+v vs %+v", i, second.Links[i], batch.Links[i])
		}
	}
	// More evidence should not have made the linkage worse.
	mFirst := Evaluate(first.Links, w.Truth)
	mSecond := Evaluate(second.Links, w.Truth)
	if mSecond.F1+0.1 < mFirst.F1 {
		t.Errorf("F1 dropped after streaming more data: %.3f -> %.3f", mFirst.F1, mSecond.F1)
	}
	// Per-run stats: the second run must report its own work, not the
	// cumulative counters.
	if second.Stats.RecordComparisons <= 0 {
		t.Error("second run reported no work")
	}
}

// TestIncrementalRunWithLSH verifies that streamed records invalidate and
// refresh the LSH candidate set.
func TestIncrementalRunWithLSH(t *testing.T) {
	ground := GenerateCab(CabOptions{NumTaxis: 20, Days: 2, MeanRecordIntervalSec: 420, Seed: 63})
	w := SampleWorkload(&ground, SampleOptions{
		IntersectionRatio: 0.5, InclusionProbE: 0.7, InclusionProbI: 0.7, Seed: 64,
	})
	lo, _, _ := w.E.TimeRange()
	// Cut at one day; the streamed tail adds a second day of rows.
	beforeE, afterE := splitByTime(w.E, lo+86400)
	beforeI, afterI := splitByTime(w.I, lo+86400)

	cfg := Defaults()
	cfg.LSH = &LSHConfig{Threshold: 0.01, StepWindows: 48, SpatialLevel: 12, NumBuckets: 1 << 14}
	lk, err := NewLinker(
		Dataset{Name: "E", Records: beforeE},
		Dataset{Name: "I", Records: beforeI},
		cfg,
	)
	if err != nil {
		t.Fatal(err)
	}
	first := lk.Run()
	if first.Stats.LSH == nil {
		t.Fatal("LSH stats missing on first run")
	}

	lk.AddE(afterE...)
	lk.AddI(afterI...)
	second := lk.Run()
	if second.Stats.LSH == nil {
		t.Fatal("LSH stats missing on second run")
	}
	// The streamed tail extends the time range: the entities it touched
	// are re-signed, and no one else.
	if n, most := second.Stats.LSH.LastDirty, len(lk.EntitiesE())+len(lk.EntitiesI()); n == 0 || n > most {
		t.Errorf("streaming re-signed %d entities, want between 1 and %d", n, most)
	}
	batch, err := LinkDatasets(w.E, w.I, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(second.Links) != len(batch.Links) {
		t.Fatalf("incremental LSH links = %d, batch = %d", len(second.Links), len(batch.Links))
	}
}

// TestIncrementalNewEntityAppears streams records of a brand-new entity
// and verifies it becomes linkable.
func TestIncrementalNewEntityAppears(t *testing.T) {
	// Base: two established pairs; then a third pair arrives as a stream.
	mk := func(e string, latOff float64, n int, startUnix int64) []Record {
		var out []Record
		for k := 0; k < n; k++ {
			out = append(out, NewRecord(EntityID(e), 37.5+latOff+float64(k%4)*0.06, -122.3, startUnix+int64(k)*900))
		}
		return out
	}
	var eRecs, iRecs []Record
	eRecs = append(eRecs, mk("e1", 0, 20, 0)...)
	eRecs = append(eRecs, mk("e2", 0.8, 20, 0)...)
	iRecs = append(iRecs, mk("i1", 0, 20, 30)...)
	iRecs = append(iRecs, mk("i2", 0.8, 20, 30)...)

	cfg := Defaults()
	cfg.Threshold = ThresholdNone // tiny instance: keep the full matching
	lk, err := NewLinker(Dataset{Name: "E", Records: eRecs}, Dataset{Name: "I", Records: iRecs}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	first := lk.Run()

	lk.AddE(mk("e3", 1.6, 20, 0)...)
	lk.AddI(mk("i3", 1.6, 20, 30)...)
	second := lk.Run()

	if len(second.Links) != len(first.Links)+1 {
		t.Fatalf("links after new pair: %d, want %d", len(second.Links), len(first.Links)+1)
	}
	found := false
	for _, l := range second.Links {
		if l.U == "e3" && l.V == "i3" {
			found = true
		}
	}
	if !found {
		t.Errorf("streamed pair e3-i3 not linked: %v", second.Links)
	}
}

// TestCandidateIndexIncrementalOnLinker verifies the Linker maintains its
// LSH candidate set through the incremental index: churn inside the time
// range and a record far past it both re-sign only the touched entity, and
// LSH-disabled linkers report no index at all.
func TestCandidateIndexIncrementalOnLinker(t *testing.T) {
	ground := GenerateCab(CabOptions{NumTaxis: 20, Days: 2, MeanRecordIntervalSec: 420, Seed: 65})
	w := SampleWorkload(&ground, SampleOptions{
		IntersectionRatio: 0.5, InclusionProbE: 0.7, InclusionProbI: 0.7, Seed: 66,
	})
	cfg := Defaults()
	cfg.LSH = &LSHConfig{Threshold: 0.01, StepWindows: 48, SpatialLevel: 12, NumBuckets: 1 << 14}
	lk, err := NewLinker(w.E, w.I, cfg)
	if err != nil {
		t.Fatal(err)
	}
	lk.Run()
	ix := lk.CandidateIndexStats()
	if ix == nil {
		t.Fatal("no candidate-index stats with LSH enabled")
	}
	if ix.SignaturesE == 0 || ix.SignaturesI == 0 {
		t.Fatalf("index after construction: %+v", ix)
	}

	// Re-observe one entity inside the existing time range: a delta update.
	target := w.E.Records[len(w.E.Records)/2]
	target.Unix += 30
	lk.AddE(target)
	lk.Run()
	ix = lk.CandidateIndexStats()
	if ix.LastDirty != 1 {
		t.Fatalf("LastDirty = %d after a one-entity burst, want 1", ix.LastDirty)
	}

	// A record far past the range opens new rows: still one re-signed entity.
	_, hi, _ := w.E.TimeRange()
	late := w.E.Records[0]
	late.Unix = hi + 6*86400
	lk.AddE(late)
	lk.Run()
	ix = lk.CandidateIndexStats()
	if ix.LastDirty != 1 {
		t.Fatalf("range growth re-signed %d entities, want 1: %+v", ix.LastDirty, ix)
	}

	plain, err := NewLinker(w.E, w.I, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	if plain.CandidateIndexStats() != nil {
		t.Fatal("LSH-disabled linker reported candidate-index stats")
	}
}
