package experiments

import (
	"fmt"
	"testing"
)

// Experiment smoke tests run every figure at tiny scale with skinny grids
// and assert the paper's qualitative shapes with generous tolerances (the
// workloads are small and statistical).

func TestFig2GMMFit(t *testing.T) {
	r, err := Fig2GMMFit(TinyScale())
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for i := range r.TPCount {
		total += r.TPCount[i] + r.FPCount[i]
	}
	if total == 0 {
		t.Fatal("histogram empty: no matched pairs at tiny scale")
	}
	if r.Method == "" {
		t.Error("threshold method not recorded")
	}
	if len(r.BinLo) != len(r.TPCount) || len(r.BinHi) != len(r.TPCount) {
		t.Error("histogram shape mismatch")
	}
	if r.Table().Render() == "" {
		t.Error("table did not render")
	}
}

func TestFig4ShapeCab(t *testing.T) {
	sc := TinyScale()
	opt := SpatioTemporalOptions{Levels: []int{4, 12, 16}, WindowsMin: []float64{15, 180}}
	r, err := Fig4SpatioTemporal(sc, "cab", opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Cells) != 6 {
		t.Fatalf("cells = %d, want 6", len(r.Cells))
	}
	get := func(level int, win float64) Cell {
		c, ok := r.At(fmt.Sprintf("%gmin", win), fmt.Sprint(level))
		if !ok {
			t.Fatalf("missing cell (%d, %g)", level, win)
		}
		return c
	}
	// Paper shape 1: accuracy rises with spatial detail (level 4 is
	// useless, ≥12 plateaus high) at the default window.
	if f1Lo, f1Hi := get(4, 15).Metrics.F1, get(12, 15).Metrics.F1; f1Hi < f1Lo {
		t.Errorf("F1 did not improve with spatial detail: level4=%.3f level12=%.3f", f1Lo, f1Hi)
	}
	if get(12, 15).Metrics.F1 < 0.6 {
		t.Errorf("level-12/15min F1 = %.3f, want decent", get(12, 15).Metrics.F1)
	}
	// Paper shape 2: record comparisons grow with window width.
	if get(12, 180).Res.Stats.RecordComparisons <= get(12, 15).Res.Stats.RecordComparisons {
		t.Errorf("comparisons did not grow with window width: %d vs %d",
			get(12, 180).Res.Stats.RecordComparisons, get(12, 15).Res.Stats.RecordComparisons)
	}
	// Paper shape 3 (Fig. 4d): pairing work grows with spatial detail.
	if get(16, 15).Res.Stats.BinComparisons < get(4, 15).Res.Stats.BinComparisons {
		t.Errorf("bin comparisons shrank with spatial detail: %d vs %d",
			get(16, 15).Res.Stats.BinComparisons, get(4, 15).Res.Stats.BinComparisons)
	}
	// Rendering sanity.
	if tables := r.Tables(); len(tables) != 4 {
		t.Errorf("expected 4 panels, got %d", len(tables))
	}
}

func TestFig5ShapeSM(t *testing.T) {
	sc := TinyScale()
	opt := SpatioTemporalOptions{Levels: []int{4, 12}, WindowsMin: []float64{15}}
	r, err := Fig4SpatioTemporal(sc, "sm", opt)
	if err != nil {
		t.Fatal(err)
	}
	lo, _ := r.At("15min", "4")
	hi, _ := r.At("15min", "12")
	if hi.Metrics.F1 < lo.Metrics.F1 {
		t.Errorf("SM F1 did not improve with detail: level4=%.3f level12=%.3f", lo.Metrics.F1, hi.Metrics.F1)
	}
}

func TestFig6SeparationSharpensWithDetail(t *testing.T) {
	r, err := Fig6ScoreHistograms(TinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(r) != 4 {
		t.Fatalf("expected 4 fits, got %d", len(r))
	}
	// The paper's claim: grouping TPs and FPs becomes more accurate with
	// spatial detail. Compare the coarsest fit against the best
	// fine-level fit (individual levels are noisy at tiny scale).
	accCoarse := r[0].ThresholdAccuracy()
	accFineBest := 0.0
	for _, fit := range r[1:] {
		if a := fit.ThresholdAccuracy(); a > accFineBest {
			accFineBest = a
		}
	}
	if accFineBest < accCoarse {
		t.Errorf("threshold accuracy did not sharpen: coarse=%.2f bestFine=%.2f", accCoarse, accFineBest)
	}
}

func TestFig7WorkloadCabShape(t *testing.T) {
	sc := TinyScale()
	opt := WorkloadOptions{InclusionProbs: []float64{0.3, 0.9}, Ratios: []float64{0.5}}
	r, err := Fig7Workload(sc, "cab", opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Cells) != 2 {
		t.Fatalf("cells = %d", len(r.Cells))
	}
	// Cab is dense: even at inclusion 0.3 the F1 should be solid, and at
	// 0.9 near-perfect (paper: all close to 1).
	for _, c := range r.Cells {
		if c.Col == "0.9" && c.Metrics.F1 < 0.7 {
			t.Errorf("cab F1 at inclusion 0.9 = %.3f, want high", c.Metrics.F1)
		}
		if c.Elapsed <= 0 {
			t.Error("runtime not measured")
		}
	}
	if tables := r.Tables(); len(tables) != 2 {
		t.Errorf("expected 2 panels, got %d", len(tables))
	}
}

func TestFig7WorkloadSMDensityEffect(t *testing.T) {
	sc := TinyScale()
	sc.SMAvgRecords = 30
	opt := WorkloadOptions{InclusionProbs: []float64{0.2, 0.9}, Ratios: []float64{0.5}}
	r, err := Fig7Workload(sc, "sm", opt)
	if err != nil {
		t.Fatal(err)
	}
	lo, _ := r.At("0.5", "0.2")
	hi, _ := r.At("0.5", "0.9")
	// Paper shape: SM F1 degrades at low record counts.
	if hi.Metrics.F1 < lo.Metrics.F1 {
		t.Errorf("SM F1 should improve with density: %.3f (p=.2) vs %.3f (p=.9)", lo.Metrics.F1, hi.Metrics.F1)
	}
}

func TestFig8LSHShapeCab(t *testing.T) {
	sc := TinyScale()
	opt := LSHLevelOptions{
		SigLevels: []int{4, 12},
		Steps:     []int{48},
		Threshold: cabThreshold,
		Buckets:   1 << 14,
	}
	r, err := Fig8LSHLevels(sc, "cab", opt)
	if err != nil {
		t.Fatal(err)
	}
	coarse, _ := r.At("48", "4")
	fine, _ := r.At("48", "12")
	// Paper shape: at coarse signature levels Cab is too dense — no
	// speedup; finer levels filter.
	if r.SpeedUp(coarse) > r.SpeedUp(fine) {
		t.Errorf("speed-up should grow with signature detail: level4=%.1fx level12=%.1fx",
			r.SpeedUp(coarse), r.SpeedUp(fine))
	}
	if r.SpeedUp(fine) <= 1 {
		t.Errorf("level-12 speed-up = %.2fx, want > 1", r.SpeedUp(fine))
	}
	if r.RelativeF1(fine) < 0.5 {
		t.Errorf("level-12 relative F1 = %.2f, want reasonable", r.RelativeF1(fine))
	}
	if tables := r.Tables(); len(tables) != 2 {
		t.Errorf("expected 2 panels")
	}
}

func TestFig9BucketsShape(t *testing.T) {
	sc := TinyScale()
	opt := LSHBucketOptions{
		BucketExponents: []int{2, 14},
		Thresholds:      []float64{0.2},
		SigLevel:        12,
		Step:            48,
	}
	r, err := Fig9LSHBuckets(sc, "cab", opt)
	if err != nil {
		t.Fatal(err)
	}
	small, _ := r.At("0.2", "2^2")
	large, _ := r.At("0.2", "2^14")
	// Paper shape: more buckets → fewer hash collisions → fewer candidate
	// pairs → at least as much speed-up.
	if large.Res.Stats.CandidatePairs > small.Res.Stats.CandidatePairs {
		t.Errorf("more buckets should not increase candidates: 2^2=%d 2^14=%d",
			small.Res.Stats.CandidatePairs, large.Res.Stats.CandidatePairs)
	}
	if r.SpeedUp(large) < r.SpeedUp(small) {
		t.Errorf("more buckets should not reduce speed-up: %.2f vs %.2f",
			r.SpeedUp(small), r.SpeedUp(large))
	}
}

func TestFig10AblationShapes(t *testing.T) {
	sc := TinyScale()
	opt := AblationOptions{WindowsMin: []float64{15, 360}}
	_, r, err := Fig10Ablation(sc, opt)
	if err != nil {
		t.Fatal(err)
	}
	orig360, ok1 := r.At("original", "360")
	all360, ok2 := r.At("all-pairs", "360")
	if !ok1 || !ok2 {
		t.Fatal("missing variants")
	}
	// Paper shape: all-pairs collapses at wide windows relative to MNN
	// pairing (generous tolerance at tiny scale).
	if all360.Metrics.F1 > orig360.Metrics.F1+0.1 {
		t.Errorf("all-pairs should not beat original at wide windows: %.3f vs %.3f", all360.Metrics.F1, orig360.Metrics.F1)
	}
	if r.Tables()[0].Render() == "" {
		t.Error("table did not render")
	}
}

func TestFig10AblationSpatialRuns(t *testing.T) {
	sc := TinyScale()
	opt := AblationOptions{Levels: []int{12, 20}}
	r, _, err := Fig10Ablation(sc, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Cells) != len(ablationVariants)*2 {
		t.Fatalf("cells = %d, want %d", len(r.Cells), len(ablationVariants)*2)
	}
	orig, _ := r.At("original", "20")
	noNorm, _ := r.At("no-normalization", "20")
	if noNorm.Metrics.F1 > orig.Metrics.F1+0.15 {
		t.Errorf("no-normalization should not clearly beat original at high detail: %.3f vs %.3f", noNorm.Metrics.F1, orig.Metrics.F1)
	}
}

func TestFig11ComparisonShape(t *testing.T) {
	sc := TinyScale()
	opt := DefaultComparisonOptions()
	opt.TargetAvgRecords = []float64{120}
	opt.Ratios = []float64{0.5}
	opt.IncludeGM = true
	opt.GMMaxAvgRecords = 0
	r, err := Fig11Comparison(sc, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Cells) != 1 {
		t.Fatalf("cells = %d", len(r.Cells))
	}
	c := r.Cells[0]
	slimM, ok1 := c.Method("slim")
	bfM, ok2 := c.Method("slim-nolsh")
	stM, ok3 := c.Method("st-link")
	gmM, ok4 := c.Method("gm")
	if !ok1 || !ok2 || !ok3 || !ok4 {
		t.Fatalf("missing methods: %v %v %v %v", ok1, ok2, ok3, ok4)
	}
	// Paper shapes: SLIM's F1 at least matches ST-Link and GM; SLIM+LSH
	// does fewer record comparisons than ST-Link; GM is the slowest.
	if bfM.F1+0.1 < stM.F1 {
		t.Errorf("SLIM F1 %.3f clearly below ST-Link %.3f", bfM.F1, stM.F1)
	}
	if bfM.F1+0.1 < gmM.F1 {
		t.Errorf("SLIM F1 %.3f clearly below GM %.3f", bfM.F1, gmM.F1)
	}
	if slimM.RecordComparisons >= stM.RecordComparisons {
		t.Errorf("SLIM+LSH comparisons %d should undercut ST-Link %d",
			slimM.RecordComparisons, stM.RecordComparisons)
	}
	if gmM.Runtime < slimM.Runtime {
		t.Errorf("GM (%v) should be slower than SLIM+LSH (%v)", gmM.Runtime, slimM.Runtime)
	}
	if tables := r.Tables(); len(tables) != 4 {
		t.Errorf("expected 4 panels")
	}
}

func TestThresholdMethodsAgree(t *testing.T) {
	r, err := ThresholdMethods(TinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Cells) != 6 {
		t.Fatalf("cells = %d, want 6 (3 methods x 2 datasets)", len(r.Cells))
	}
	// The paper's remark: the three detectors behave similarly. Allow a
	// generous spread at tiny scale, but they must not diverge wildly.
	for _, ds := range []string{"cab", "sm"} {
		if spread := r.F1Spread(ds); spread > 0.4 {
			t.Errorf("%s: F1 spread across threshold methods = %.3f, want similar behavior", ds, spread)
		}
	}
	if r.Table().Render() == "" {
		t.Error("table did not render")
	}
}

func TestTuningRunners(t *testing.T) {
	sc := TinyScale()
	rc, err := Tuning(sc, "cab")
	if err != nil {
		t.Fatal(err)
	}
	if rc.ChosenLevel < 4 || rc.ChosenLevel > 20 {
		t.Errorf("cab chosen level = %d, want in probe range", rc.ChosenLevel)
	}
	if len(rc.Levels) == 0 || len(rc.RatiosE) != len(rc.Levels) {
		t.Error("cab curves malformed")
	}
	rs, err := Tuning(sc, "sm")
	if err != nil {
		t.Fatal(err)
	}
	if rs.ChosenLevel < 4 || rs.ChosenLevel > 20 {
		t.Errorf("sm chosen level = %d", rs.ChosenLevel)
	}
	if rc.Table().Render() == "" || rs.Table().Render() == "" {
		t.Error("tables did not render")
	}
}
