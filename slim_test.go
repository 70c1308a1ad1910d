package slim

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// cabWorkload builds a small sampled Cab linkage problem with truth.
func cabWorkload(t testing.TB, taxis int, seed int64) SampledWorkload {
	t.Helper()
	src := GenerateCab(CabOptions{NumTaxis: taxis, Days: 2, MeanRecordIntervalSec: 360, Seed: seed})
	return SampleWorkload(&src, SampleOptions{
		IntersectionRatio: 0.5,
		InclusionProbE:    0.5,
		InclusionProbI:    0.5,
		Seed:              seed + 1,
	})
}

func TestLinkCabEndToEnd(t *testing.T) {
	w := cabWorkload(t, 30, 1)
	res, err := LinkDatasets(w.E, w.I, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	m := Evaluate(res.Links, w.Truth)
	if m.F1 < 0.75 {
		t.Errorf("Cab default F1 = %.3f (P=%.3f R=%.3f, %d links, thr=%.1f/%s), want >= 0.75",
			m.F1, m.Precision, m.Recall, len(res.Links), res.Threshold, res.ThresholdMethod)
	}
	if res.Stats.RecordComparisons == 0 || res.Stats.CandidatePairs == 0 {
		t.Error("work counters not populated")
	}
	if res.Elapsed <= 0 {
		t.Error("elapsed not measured")
	}
	// Links are sorted by descending score and are a subset of Matched.
	for i := 1; i < len(res.Links); i++ {
		if res.Links[i].Score > res.Links[i-1].Score {
			t.Fatal("links not sorted by descending score")
		}
	}
	if len(res.Links) > len(res.Matched) {
		t.Fatal("links exceed matched set")
	}
}

func TestLinkDeterministic(t *testing.T) {
	w := cabWorkload(t, 16, 2)
	cfg := Defaults()
	first, err := LinkDatasets(w.E, w.I, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 2; trial++ {
		again, err := LinkDatasets(w.E, w.I, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(again.Links) != len(first.Links) {
			t.Fatalf("link count varies: %d vs %d", len(again.Links), len(first.Links))
		}
		for i := range first.Links {
			if first.Links[i] != again.Links[i] {
				t.Fatalf("links vary across runs: %v vs %v", first.Links[i], again.Links[i])
			}
		}
		if again.Threshold != first.Threshold {
			t.Fatalf("threshold varies: %g vs %g", again.Threshold, first.Threshold)
		}
	}
}

func TestLinkWithLSHPreservesQuality(t *testing.T) {
	w := cabWorkload(t, 30, 3)
	base, err := LinkDatasets(w.E, w.I, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	cfg := Defaults()
	cfg.LSH = &LSHConfig{Threshold: 0.01, StepWindows: 48, SpatialLevel: 12, NumBuckets: 1 << 14}
	fast, err := LinkDatasets(w.E, w.I, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fast.Stats.LSH == nil {
		t.Fatal("LSH stats missing")
	}
	if fast.Stats.CandidatePairs >= base.Stats.CandidatePairs {
		t.Errorf("LSH did not reduce candidates: %d vs %d",
			fast.Stats.CandidatePairs, base.Stats.CandidatePairs)
	}
	if fast.Stats.RecordComparisons >= base.Stats.RecordComparisons {
		t.Errorf("LSH did not reduce record comparisons: %d vs %d",
			fast.Stats.RecordComparisons, base.Stats.RecordComparisons)
	}
	mBase := Evaluate(base.Links, w.Truth)
	mFast := Evaluate(fast.Links, w.Truth)
	if mBase.F1 > 0 && mFast.F1 < 0.7*mBase.F1 {
		t.Errorf("LSH relative F1 = %.3f (%.3f vs %.3f), want >= 0.7",
			mFast.F1/mBase.F1, mFast.F1, mBase.F1)
	}
}

func TestLinkAblationsRun(t *testing.T) {
	w := cabWorkload(t, 12, 5)
	for _, abl := range []Ablation{
		{DisableMFN: true},
		{AllPairs: true},
		{DisableIDF: true},
		{DisableNorm: true},
	} {
		cfg := Defaults()
		cfg.Ablation = abl
		if _, err := LinkDatasets(w.E, w.I, cfg); err != nil {
			t.Errorf("ablation %+v failed: %v", abl, err)
		}
	}
}

func TestLinkThresholdMethods(t *testing.T) {
	w := cabWorkload(t, 16, 6)
	for _, th := range []ThresholdMethod{ThresholdGMM, ThresholdOtsu, ThresholdKMeans, ThresholdNone} {
		cfg := Defaults()
		cfg.Threshold = th
		res, err := LinkDatasets(w.E, w.I, cfg)
		if err != nil {
			t.Fatalf("threshold %s failed: %v", th, err)
		}
		if th == ThresholdNone && len(res.Links) != len(res.Matched) {
			t.Error("ThresholdNone must keep the full matching")
		}
	}
}

func TestConfigValidation(t *testing.T) {
	w := cabWorkload(t, 8, 7)
	bad := []Config{
		{WindowMinutes: -5},
		{SpatialLevel: 35},
		{MaxSpeedKmPerMin: -1},
		{B: 1.5},
		{Matcher: "quantum"},
		{Threshold: "magic"},
		{LSH: &LSHConfig{Threshold: 1.5}},
		{LSH: &LSHConfig{SpatialLevel: 31}},
		{LSH: &LSHConfig{NumBuckets: 1<<32 + 1}},
	}
	for _, cfg := range bad {
		if _, err := LinkDatasets(w.E, w.I, cfg); err == nil {
			t.Errorf("config %+v should be rejected", cfg)
		}
	}
}

func TestLinkerScoreAPI(t *testing.T) {
	w := cabWorkload(t, 12, 8)
	lk, err := NewLinker(w.E, w.I, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	// A true pair should outscore a random wrong pair on average; at
	// minimum the API must return deterministic finite values.
	es := lk.EntitiesE()
	is := lk.EntitiesI()
	if len(es) == 0 || len(is) == 0 {
		t.Fatal("no entities after filtering")
	}
	s1 := lk.Score(es[0], is[0])
	s2 := lk.Score(es[0], is[0])
	if s1 != s2 {
		t.Error("Score is not deterministic")
	}
	if math.IsNaN(s1) || math.IsInf(s1, 0) {
		t.Errorf("degenerate score %g", s1)
	}
	if lk.SpatialLevel() != 12 {
		t.Errorf("spatial level = %d, want default 12", lk.SpatialLevel())
	}
	if lk.Windowing().WidthSeconds != 900 {
		t.Errorf("window width = %d, want 900", lk.Windowing().WidthSeconds)
	}
}

// TestRunCountsItsOwnWork: a run's work counters are its own scoring,
// summed over its workers. A full rescore counts the same work at one and
// at three workers as LinkDatasets over the same records, and a
// Linker.Score call between two delta runs is charged to neither: of two
// linkers over the same records, only one asked for scores in between, the
// second runs report equal counters.
func TestRunCountsItsOwnWork(t *testing.T) {
	w := cabWorkload(t, 30, 1)
	cfg := Defaults()
	cfg.LSH = &LSHConfig{Threshold: 0.01, StepWindows: 48, SpatialLevel: 13, NumBuckets: 1 << 14}
	work := func(st Stats) [3]int64 { return [3]int64{st.BinComparisons, st.RecordComparisons, st.AlibiBinPairs} }
	ref, err := LinkDatasets(w.E, w.I, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := work(ref.Stats); want[0] == 0 || want[1] == 0 || want[2] == 0 || len(ref.Links) == 0 {
		t.Fatalf("fixture must move every counter and link, got %v and %d links", want, len(ref.Links))
	}
	for _, workers := range []int{1, 3} {
		c := cfg
		c.Workers = workers
		var quiet, asked *Linker
		for _, lk := range []**Linker{&quiet, &asked} {
			if *lk, err = NewLinker(w.E, w.I, c); err != nil {
				t.Fatal(err)
			}
			if got := (*lk).Run().Stats; work(got) != work(ref.Stats) {
				t.Fatalf("workers %d: full rescore counted %v, LinkDatasets %v", workers, work(got), work(ref.Stats))
			}
		}
		for k := 0; k < len(w.E.Records); k += 4 {
			quiet.AddE(w.E.Records[k])
			asked.AddE(w.E.Records[k])
		}
		for _, l := range ref.Links {
			if s := asked.Score(l.U, l.V); s <= 0 {
				t.Fatalf("linked pair (%s, %s) scores %g", l.U, l.V, s)
			}
		}
		q, a := quiet.Rescore(2), asked.Rescore(2)
		if q.EdgeStore.FullRescore || q.RecordComparisons == 0 {
			t.Fatalf("workers %d: the second run must be a delta that scores something: %+v", workers, *q.EdgeStore)
		}
		if work(a) != work(q) {
			t.Fatalf("workers %d: a run after Linker.Score calls counted %v, without them %v", workers, work(a), work(q))
		}
	}
}

func TestAutoTuneSpatialLevelAPI(t *testing.T) {
	w := cabWorkload(t, 16, 9)
	cfg := Defaults()
	level, c1, c2, err := AutoTuneSpatialLevel(w.E, w.I, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if level < 4 || level > 20 {
		t.Errorf("auto-tuned level = %d, want within probe range", level)
	}
	if len(c1.Levels) == 0 || len(c2.Levels) == 0 {
		t.Error("curves not populated")
	}
	if level != c1.Level() && level != c2.Level() {
		t.Error("chosen level must come from one curve")
	}
	// And the auto-tuned pipeline must run.
	cfg.SpatialLevel = 0
	res, err := LinkDatasets(w.E, w.I, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.SpatialLevel == 0 {
		t.Error("auto-tuned run must report the level it used")
	}
}

func TestEvaluateMetrics(t *testing.T) {
	truth := map[EntityID]EntityID{"e1": "i1", "e2": "i2", "e3": "i3", "e4": "i4"}
	links := []Link{
		{U: "e1", V: "i1"}, // TP
		{U: "e2", V: "i9"}, // FP
		{U: "e3", V: "i3"}, // TP
	}
	m := Evaluate(links, truth)
	if m.TP != 2 || m.FP != 1 || m.FN != 2 {
		t.Fatalf("counts TP=%d FP=%d FN=%d", m.TP, m.FP, m.FN)
	}
	if math.Abs(m.Precision-2.0/3) > 1e-12 {
		t.Errorf("precision = %g", m.Precision)
	}
	if math.Abs(m.Recall-0.5) > 1e-12 {
		t.Errorf("recall = %g", m.Recall)
	}
	wantF1 := 2 * (2.0 / 3) * 0.5 / (2.0/3 + 0.5)
	if math.Abs(m.F1-wantF1) > 1e-12 {
		t.Errorf("f1 = %g, want %g", m.F1, wantF1)
	}
	empty := Evaluate(nil, truth)
	if empty.Precision != 0 || empty.Recall != 0 || empty.F1 != 0 {
		t.Error("no links should score all zeros")
	}
}

func TestCSVRoundTripPublicAPI(t *testing.T) {
	d := Dataset{Name: "x"}
	d.Records = append(d.Records, NewRecord("a", 37.7, -122.4, 1000))
	d.Records = append(d.Records, NewRecord("b", 40.7, -74.0, 2000))
	var buf bytes.Buffer
	if err := WriteDatasetCSV(&buf, &d); err != nil {
		t.Fatal(err)
	}
	got, err := ReadDatasetCSV(strings.NewReader(buf.String()), "x")
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Records) != 2 {
		t.Fatalf("round trip lost records")
	}
	if _, err := ReadDatasetCSV(strings.NewReader("garbage"), "x"); err == nil {
		t.Error("garbage CSV should error")
	}
}

func TestNewRecordClamps(t *testing.T) {
	r := NewRecord("a", 95, 200, 5)
	if !r.LatLng.IsValid() {
		t.Error("NewRecord must clamp to valid coordinates")
	}
}

func TestLinkEmptyDatasets(t *testing.T) {
	var e, i Dataset
	res, err := LinkDatasets(e, i, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Links) != 0 {
		t.Error("empty datasets must give no links")
	}
	// With LSH enabled too.
	cfg := Defaults()
	cfg.LSH = &LSHConfig{}
	res, err = LinkDatasets(e, i, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Links) != 0 {
		t.Error("empty datasets must give no links (LSH)")
	}
}

func TestLinkRejectsInvalidRecords(t *testing.T) {
	bad := Dataset{Name: "bad", Records: []Record{{Entity: "", Unix: 0}}}
	good := Dataset{Name: "good"}
	if _, err := LinkDatasets(bad, good, Defaults()); err == nil {
		t.Error("invalid dataset should be rejected")
	}
	if _, err := LinkDatasets(good, bad, Defaults()); err == nil {
		t.Error("invalid dataset should be rejected (I side)")
	}
}

func TestIntersectionRatioAffectsFalsePositives(t *testing.T) {
	// With a low intersection ratio many entities have no true match; the
	// stop threshold exists to protect precision there (Sec. 3.2). Verify
	// the full matching (no threshold) has strictly more false positives
	// than the thresholded links on such a workload.
	src := GenerateCab(CabOptions{NumTaxis: 40, Days: 2, MeanRecordIntervalSec: 360, Seed: 10})
	w := SampleWorkload(&src, SampleOptions{IntersectionRatio: 0.3, InclusionProbE: 0.5, InclusionProbI: 0.5, Seed: 11})
	res, err := LinkDatasets(w.E, w.I, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	mAll := Evaluate(res.Matched, w.Truth)
	mThr := Evaluate(res.Links, w.Truth)
	if mThr.FP > mAll.FP {
		t.Errorf("threshold increased FPs: %d > %d", mThr.FP, mAll.FP)
	}
	if mAll.FP > 0 && mThr.Precision < mAll.Precision {
		t.Errorf("threshold reduced precision: %.3f < %.3f", mThr.Precision, mAll.Precision)
	}
}

func BenchmarkLinkCabSmall(b *testing.B) {
	w := cabWorkload(b, 16, 12)
	cfg := Defaults()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := LinkDatasets(w.E, w.I, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
