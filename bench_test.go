// Benchmarks regenerating every table and figure of the paper's evaluation
// (Sec. 5), one Benchmark per artifact, plus micro-benchmarks of the
// pipeline stages. Each figure bench runs its experiment at smoke scale
// and reports the headline quantity of that figure via b.ReportMetric, so
// `go test -bench=. -benchmem` doubles as a reproduction summary. Use
// cmd/slim-experiments for full-scale tables.
package slim_test

import (
	"testing"

	"slim"
	"slim/internal/experiments"
)

func benchScale() experiments.Scale {
	sc := experiments.TinyScale()
	sc.Workers = 0
	return sc
}

// BenchmarkFig2GMMFit regenerates Fig. 2: GMM fit over matched similarity
// scores with the automated stop threshold. Reports the threshold's
// TP/FP separation accuracy.
func BenchmarkFig2GMMFit(b *testing.B) {
	var acc float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig2GMMFit(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		acc = r.ThresholdAccuracy()
	}
	b.ReportMetric(acc, "sep-accuracy")
}

// BenchmarkFig4SpatioTemporalCab regenerates Fig. 4 (Cab precision/recall/
// alibis/comparisons vs spatio-temporal level). Reports F1 at the paper's
// default operating point (level 12, 15-minute windows).
func BenchmarkFig4SpatioTemporalCab(b *testing.B) {
	opt := experiments.SpatioTemporalOptions{Levels: []int{4, 12, 20}, WindowsMin: []float64{15, 180}}
	var f1 float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig4SpatioTemporal(benchScale(), "cab", opt)
		if err != nil {
			b.Fatal(err)
		}
		c, _ := r.At("15min", "12")
		f1 = c.Metrics.F1
	}
	b.ReportMetric(f1, "F1@12/15min")
}

// BenchmarkFig5SpatioTemporalSM regenerates Fig. 5 (same sweep on SM).
func BenchmarkFig5SpatioTemporalSM(b *testing.B) {
	opt := experiments.SpatioTemporalOptions{Levels: []int{4, 12, 20}, WindowsMin: []float64{15, 180}}
	var f1 float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig4SpatioTemporal(benchScale(), "sm", opt)
		if err != nil {
			b.Fatal(err)
		}
		c, _ := r.At("15min", "12")
		f1 = c.Metrics.F1
	}
	b.ReportMetric(f1, "F1@12/15min")
}

// BenchmarkFig6ScoreHistograms regenerates Fig. 6 (score histograms + GMM
// fits across spatial details at 90-minute windows). Reports the threshold
// accuracy at the finest detail.
func BenchmarkFig6ScoreHistograms(b *testing.B) {
	var acc float64
	for i := 0; i < b.N; i++ {
		rs, err := experiments.Fig6ScoreHistograms(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		acc = rs[len(rs)-1].ThresholdAccuracy()
	}
	b.ReportMetric(acc, "sep-accuracy@16")
}

// BenchmarkFig7WorkloadCab regenerates Fig. 7a/b (F1 and runtime vs record
// inclusion probability on Cab). Reports F1 at the default (.5, .5) point.
func BenchmarkFig7WorkloadCab(b *testing.B) {
	opt := experiments.WorkloadOptions{InclusionProbs: []float64{0.3, 0.5, 0.9}, Ratios: []float64{0.5}}
	var f1 float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig7Workload(benchScale(), "cab", opt)
		if err != nil {
			b.Fatal(err)
		}
		c, _ := r.At("0.5", "0.5")
		f1 = c.Metrics.F1
	}
	b.ReportMetric(f1, "F1@.5/.5")
}

// BenchmarkFig7WorkloadSM regenerates Fig. 7c/d on SM.
func BenchmarkFig7WorkloadSM(b *testing.B) {
	opt := experiments.WorkloadOptions{InclusionProbs: []float64{0.3, 0.9}, Ratios: []float64{0.5}}
	var f1 float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig7Workload(benchScale(), "sm", opt)
		if err != nil {
			b.Fatal(err)
		}
		c, _ := r.At("0.5", "0.9")
		f1 = c.Metrics.F1
	}
	b.ReportMetric(f1, "F1@.9")
}

// BenchmarkFig8LSHLevelsCab regenerates Fig. 8a/b (LSH relative F1 and
// speed-up vs signature level x temporal step on Cab). Reports the
// speed-up at the best-quality operating point found.
func BenchmarkFig8LSHLevelsCab(b *testing.B) {
	opt := experiments.LSHLevelOptions{
		SigLevels: []int{4, 12},
		Steps:     []int{48},
		Threshold: 0.01,
		Buckets:   1 << 14,
	}
	var speedup, rel float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig8LSHLevels(benchScale(), "cab", opt)
		if err != nil {
			b.Fatal(err)
		}
		c, _ := r.At("48", "12")
		speedup, rel = r.SpeedUp(c), r.RelativeF1(c)
	}
	b.ReportMetric(speedup, "speedup@12")
	b.ReportMetric(rel, "relF1@12")
}

// BenchmarkFig8LSHLevelsSM regenerates Fig. 8c/d on SM.
func BenchmarkFig8LSHLevelsSM(b *testing.B) {
	opt := experiments.LSHLevelOptions{
		SigLevels: []int{4, 12},
		Steps:     []int{16},
		Threshold: 0.6,
		Buckets:   1 << 14,
	}
	var speedup float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig8LSHLevels(benchScale(), "sm", opt)
		if err != nil {
			b.Fatal(err)
		}
		c, _ := r.At("16", "12")
		speedup = r.SpeedUp(c)
	}
	b.ReportMetric(speedup, "speedup@12")
}

// BenchmarkFig9LSHBucketsCab regenerates Fig. 9a (speed-up vs bucket-array
// size on Cab). Reports the large-array speed-up.
func BenchmarkFig9LSHBucketsCab(b *testing.B) {
	opt := experiments.LSHBucketOptions{
		BucketExponents: []int{8, 18},
		Thresholds:      []float64{0.2},
		SigLevel:        12,
		Step:            48,
	}
	var speedup float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig9LSHBuckets(benchScale(), "cab", opt)
		if err != nil {
			b.Fatal(err)
		}
		c, _ := r.At("0.2", "2^18")
		speedup = r.SpeedUp(c)
	}
	b.ReportMetric(speedup, "speedup@2^18")
}

// BenchmarkFig9LSHBucketsSM regenerates Fig. 9b on SM.
func BenchmarkFig9LSHBucketsSM(b *testing.B) {
	opt := experiments.LSHBucketOptions{
		BucketExponents: []int{8, 18},
		Thresholds:      []float64{0.6},
		SigLevel:        16,
		Step:            16,
	}
	var speedup float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig9LSHBuckets(benchScale(), "sm", opt)
		if err != nil {
			b.Fatal(err)
		}
		c, _ := r.At("0.6", "2^18")
		speedup = r.SpeedUp(c)
	}
	b.ReportMetric(speedup, "speedup@2^18")
}

// BenchmarkFig10Ablation regenerates Fig. 10 (component ablations).
// Reports the F1 gap between full SLIM and the all-pairs variant at the
// widest window — the paper's headline ablation finding.
func BenchmarkFig10Ablation(b *testing.B) {
	opt := experiments.AblationOptions{WindowsMin: []float64{15, 360}}
	var gap float64
	for i := 0; i < b.N; i++ {
		_, r, err := experiments.Fig10Ablation(benchScale(), opt)
		if err != nil {
			b.Fatal(err)
		}
		orig, _ := r.At("original", "360")
		all, _ := r.At("all-pairs", "360")
		gap = orig.Metrics.F1 - all.Metrics.F1
	}
	b.ReportMetric(gap, "F1gap@360min")
}

// BenchmarkFig11Comparison regenerates Fig. 11 (SLIM vs ST-Link vs GM).
// Reports SLIM's F1 advantage over ST-Link and the comparison-count ratio.
func BenchmarkFig11Comparison(b *testing.B) {
	opt := experiments.DefaultComparisonOptions()
	opt.TargetAvgRecords = []float64{120}
	opt.Ratios = []float64{0.5}
	opt.IncludeGM = true
	opt.GMMaxAvgRecords = 0
	var f1Gap, cmpRatio float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig11Comparison(benchScale(), opt)
		if err != nil {
			b.Fatal(err)
		}
		c := r.Cells[0]
		slimM, _ := c.Method("slim-nolsh")
		lshM, _ := c.Method("st-link")
		f1Gap = slimM.F1 - lshM.F1
		slimLSH, _ := c.Method("slim")
		if slimLSH.RecordComparisons > 0 {
			cmpRatio = float64(lshM.RecordComparisons) / float64(slimLSH.RecordComparisons)
		}
	}
	b.ReportMetric(f1Gap, "F1-vs-stlink")
	b.ReportMetric(cmpRatio, "cmp-ratio-stlink/slim")
}

// BenchmarkTuningElbow regenerates the Sec. 3.3 auto-tuning experiment.
// Reports the chosen Cab spatial level (paper: ~12 at 15-minute windows).
func BenchmarkTuningElbow(b *testing.B) {
	var level float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Tuning(benchScale(), "cab")
		if err != nil {
			b.Fatal(err)
		}
		level = float64(r.ChosenLevel)
	}
	b.ReportMetric(level, "chosen-level")
}

// BenchmarkThresholdMethods regenerates the Sec. 5.2.1 remark that GMM,
// Otsu and 2-means stop thresholds behave similarly. Reports the F1 spread
// across methods on Cab (paper: "similar results").
func BenchmarkThresholdMethods(b *testing.B) {
	var spread float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.ThresholdMethods(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		spread = r.F1Spread("cab")
	}
	b.ReportMetric(spread, "F1-spread")
}

// ---- pipeline micro-benchmarks ----

func benchWorkload(b *testing.B, taxis int) slim.SampledWorkload {
	b.Helper()
	ground := slim.GenerateCab(slim.CabOptions{
		NumTaxis: taxis, Days: 2, MeanRecordIntervalSec: 360, Seed: 99,
	})
	return slim.SampleWorkload(&ground, slim.SampleOptions{
		IntersectionRatio: 0.5, InclusionProbE: 0.5, InclusionProbI: 0.5, Seed: 100,
	})
}

// BenchmarkPipelineBruteForce measures the full pipeline without LSH.
func BenchmarkPipelineBruteForce(b *testing.B) {
	w := benchWorkload(b, 24)
	cfg := slim.Defaults()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := slim.LinkDatasets(w.E, w.I, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipelineLSH measures the full pipeline with the LSH filter.
func BenchmarkPipelineLSH(b *testing.B) {
	w := benchWorkload(b, 24)
	cfg := slim.Defaults()
	cfg.LSH = &slim.LSHConfig{Threshold: 0.01, StepWindows: 48, SpatialLevel: 12, NumBuckets: 1 << 14}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := slim.LinkDatasets(w.E, w.I, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLinkerScorePair measures one similarity evaluation.
func BenchmarkLinkerScorePair(b *testing.B) {
	w := benchWorkload(b, 24)
	lk, err := slim.NewLinker(w.E, w.I, slim.Defaults())
	if err != nil {
		b.Fatal(err)
	}
	es, is := lk.EntitiesE(), lk.EntitiesI()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = lk.Score(es[i%len(es)], is[i%len(is)])
	}
}

// BenchmarkLinkerBuildLSH measures NewLinker with the LSH filter on a
// 2k-user SM sample at the benchmark's linkage settings: the four history
// builds plus the candidate index's first (epoch) build — the layers that
// dominate link_sm_lsh. B/op tracks what construction allocates per
// linker.
func BenchmarkLinkerBuildLSH(b *testing.B) {
	ground := slim.GenerateSM(slim.SMOptions{NumUsers: 2000, Seed: 99})
	w := slim.SampleWorkload(&ground, slim.SampleOptions{
		IntersectionRatio: 0.5, InclusionProbE: 0.5, InclusionProbI: 0.5, Seed: 100,
	})
	cfg := slim.Defaults()
	cfg.LSH = &slim.LSHConfig{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := slim.NewLinker(w.E, w.I, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAutoTune measures the spatial-level elbow probe.
func BenchmarkAutoTune(b *testing.B) {
	w := benchWorkload(b, 20)
	cfg := slim.Defaults()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := slim.AutoTuneSpatialLevel(w.E, w.I, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
