package experiments

import (
	"fmt"

	"slim"
	"slim/internal/candidates"
	"slim/internal/eval"
)

// LSHLevelOptions sets the Fig. 8 grid: LSH relative F1 and speed-up as a
// function of the signature spatial level and temporal step size.
type LSHLevelOptions struct {
	SigLevels []int
	Steps     []int
	Threshold float64
	Buckets   int
}

// DefaultLSHLevelOptions mirrors the paper's axes, subsampled, at the
// paper's filter threshold and bucket count.
func DefaultLSHLevelOptions() LSHLevelOptions {
	p := candidates.DefaultParams()
	return LSHLevelOptions{
		SigLevels: []int{4, 8, 12, 16, 20},
		Steps:     []int{8, 16, 48, 96},
		Threshold: p.Threshold,
		Buckets:   p.NumBuckets,
	}
}

// LSHCell is one (level, step) measurement.
type LSHCell struct {
	SigLevel   int
	Step       int
	RelativeF1 float64
	SpeedUp    float64
	Candidates int64
}

// LSHLevelResult is the Fig. 8 sweep for one dataset.
type LSHLevelResult struct {
	Dataset    string
	BaselineF1 float64
	// BaselineComparisons is the brute-force record comparison count.
	BaselineComparisons int64
	Cells               []LSHCell
}

// Tables renders the relative-F1 and speed-up panels: rows are temporal
// steps, columns signature levels.
func (r LSHLevelResult) Tables() []eval.Table {
	return grid(r.Cells, "step\\level",
		func(c LSHCell) string { return fmt.Sprintf("%d", c.Step) },
		func(c LSHCell) string { return fmt.Sprintf("%d", c.SigLevel) },
		panel[LSHCell]{fmt.Sprintf("%s: relative F1 vs (signature level x temporal step), baseline F1=%.3f", r.Dataset, r.BaselineF1),
			func(c LSHCell) string { return fmt.Sprintf("%.3f", c.RelativeF1) }},
		panel[LSHCell]{fmt.Sprintf("%s: speed-up vs (signature level x temporal step)", r.Dataset),
			func(c LSHCell) string { return fmt.Sprintf("%.1fx", c.SpeedUp) }},
	)
}

// Fig8LSHLevelsCab reproduces Fig. 8a/8b on Cab.
func Fig8LSHLevelsCab(sc Scale, opt LSHLevelOptions) (LSHLevelResult, error) {
	ground := cabGround(sc)
	w := workload(&ground, 0.5, 0.5, 0.5, sc.Seed+40)
	return lshLevelSweep("cab", w, sc, opt)
}

// Fig8LSHLevelsSM reproduces Fig. 8c/8d on SM.
func Fig8LSHLevelsSM(sc Scale, opt LSHLevelOptions) (LSHLevelResult, error) {
	ground := smGround(sc)
	w := workload(&ground, 0.5, 0.5, 0.5, sc.Seed+41)
	return lshLevelSweep("sm", w, sc, opt)
}

func lshLevelSweep(name string, w slim.SampledWorkload, sc Scale, opt LSHLevelOptions) (LSHLevelResult, error) {
	base, err := run(w, baseConfig(15, 12, sc.Workers))
	if err != nil {
		return LSHLevelResult{}, err
	}
	res := LSHLevelResult{
		Dataset:             name,
		BaselineF1:          base.Metrics.F1,
		BaselineComparisons: base.Res.Stats.RecordComparisons,
	}
	for _, level := range opt.SigLevels {
		for _, step := range opt.Steps {
			cfg := baseConfig(15, 12, sc.Workers)
			cfg.LSH = &slim.LSHConfig{
				Threshold:    opt.Threshold,
				StepWindows:  step,
				SpatialLevel: level,
				NumBuckets:   opt.Buckets,
			}
			rr, err := run(w, cfg)
			if err != nil {
				return LSHLevelResult{}, err
			}
			res.Cells = append(res.Cells, LSHCell{
				SigLevel:   level,
				Step:       step,
				RelativeF1: eval.RelativeF1(rr.Metrics.F1, base.Metrics.F1),
				SpeedUp:    eval.SpeedUp(base.Res.Stats.RecordComparisons, rr.Res.Stats.RecordComparisons),
				Candidates: rr.Res.Stats.CandidatePairs,
			})
		}
	}
	return res, nil
}

// LSHBucketOptions sets the Fig. 9 grid: speed-up as a function of the
// bucket-array size, one series per LSH similarity threshold.
type LSHBucketOptions struct {
	BucketExponents []int // bucket counts 2^e
	Thresholds      []float64
	SigLevel        int
	Step            int
}

// DefaultLSHBucketOptions mirrors the paper (buckets 2^8..2^20, t .4-.8),
// subsampled, at the paper's signature level and step.
func DefaultLSHBucketOptions() LSHBucketOptions {
	p := candidates.DefaultParams()
	return LSHBucketOptions{
		BucketExponents: []int{8, 10, 12, 14, 16, 18, 20},
		Thresholds:      []float64{0.4, 0.6, 0.8},
		SigLevel:        p.SpatialLevel,
		Step:            p.StepWindows,
	}
}

// LSHBucketCell is one (buckets, threshold) measurement.
type LSHBucketCell struct {
	BucketExp  int
	Threshold  float64
	SpeedUp    float64
	RelativeF1 float64
	Candidates int64
}

// LSHBucketResult is the Fig. 9 sweep for one dataset.
type LSHBucketResult struct {
	Dataset    string
	BaselineF1 float64
	Cells      []LSHBucketCell
}

// Table renders the speed-up panel (relative F1 in parentheses): rows are
// LSH thresholds, columns bucket counts.
func (r LSHBucketResult) Table() eval.Table {
	return grid(r.Cells, "t\\buckets",
		func(c LSHBucketCell) string { return fmt.Sprintf("%g", c.Threshold) },
		func(c LSHBucketCell) string { return fmt.Sprintf("2^%d", c.BucketExp) },
		panel[LSHBucketCell]{fmt.Sprintf("%s: speed-up (relF1) vs number of buckets, series = LSH threshold", r.Dataset),
			func(c LSHBucketCell) string { return fmt.Sprintf("%.1fx (%.2f)", c.SpeedUp, c.RelativeF1) }},
	)[0]
}

// Fig9LSHBucketsCab reproduces Fig. 9a on Cab.
func Fig9LSHBucketsCab(sc Scale, opt LSHBucketOptions) (LSHBucketResult, error) {
	ground := cabGround(sc)
	w := workload(&ground, 0.5, 0.5, 0.5, sc.Seed+50)
	return lshBucketSweep("cab", w, sc, opt)
}

// Fig9LSHBucketsSM reproduces Fig. 9b on SM.
func Fig9LSHBucketsSM(sc Scale, opt LSHBucketOptions) (LSHBucketResult, error) {
	ground := smGround(sc)
	w := workload(&ground, 0.5, 0.5, 0.5, sc.Seed+51)
	return lshBucketSweep("sm", w, sc, opt)
}

func lshBucketSweep(name string, w slim.SampledWorkload, sc Scale, opt LSHBucketOptions) (LSHBucketResult, error) {
	base, err := run(w, baseConfig(15, 12, sc.Workers))
	if err != nil {
		return LSHBucketResult{}, err
	}
	res := LSHBucketResult{Dataset: name, BaselineF1: base.Metrics.F1}
	for _, thr := range opt.Thresholds {
		for _, e := range opt.BucketExponents {
			cfg := baseConfig(15, 12, sc.Workers)
			cfg.LSH = &slim.LSHConfig{
				Threshold:    thr,
				StepWindows:  opt.Step,
				SpatialLevel: opt.SigLevel,
				NumBuckets:   1 << uint(e),
			}
			rr, err := run(w, cfg)
			if err != nil {
				return LSHBucketResult{}, err
			}
			res.Cells = append(res.Cells, LSHBucketCell{
				BucketExp:  e,
				Threshold:  thr,
				SpeedUp:    eval.SpeedUp(base.Res.Stats.RecordComparisons, rr.Res.Stats.RecordComparisons),
				RelativeF1: eval.RelativeF1(rr.Metrics.F1, base.Metrics.F1),
				Candidates: rr.Res.Stats.CandidatePairs,
			})
		}
	}
	return res, nil
}
