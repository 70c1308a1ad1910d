package experiments

import (
	"fmt"
	"time"

	"slim"
	"slim/internal/eval"
)

// WorkloadOptions sets the Fig. 7 grid: F1 and runtime as a function of
// the record inclusion probability, one series per intersection ratio.
type WorkloadOptions struct {
	InclusionProbs []float64
	Ratios         []float64
}

// DefaultWorkloadOptions mirrors the paper's axes.
func DefaultWorkloadOptions() WorkloadOptions {
	return WorkloadOptions{
		InclusionProbs: []float64{0.1, 0.3, 0.5, 0.7, 0.9},
		Ratios:         []float64{0.3, 0.5, 0.7, 0.9},
	}
}

// WorkloadCell is one (ratio, inclusion) measurement.
type WorkloadCell struct {
	Ratio         float64
	InclusionProb float64
	F1            float64
	Precision     float64
	Recall        float64
	Runtime       time.Duration
	AvgRecords    float64
}

// WorkloadResult is the Fig. 7 sweep for one dataset.
type WorkloadResult struct {
	Dataset string
	Cells   []WorkloadCell
}

// Tables renders the F1 and runtime panels: rows are intersection ratios,
// columns inclusion probabilities.
func (r WorkloadResult) Tables() []eval.Table {
	title := func(quantity string) string {
		return fmt.Sprintf("%s: %s vs inclusion probability (series = intersection ratio)", r.Dataset, quantity)
	}
	return grid(r.Cells, "ratio\\incl",
		func(c WorkloadCell) string { return fmt.Sprintf("%g", c.Ratio) },
		func(c WorkloadCell) string { return fmt.Sprintf("%g", c.InclusionProb) },
		panel[WorkloadCell]{title("F1"), func(c WorkloadCell) string { return fmt.Sprintf("%.3f", c.F1) }},
		panel[WorkloadCell]{title("runtime (ms)"), func(c WorkloadCell) string { return fmt.Sprintf("%d", c.Runtime.Milliseconds()) }},
	)
}

// Fig7WorkloadCab reproduces Fig. 7a/7b on the Cab workload.
func Fig7WorkloadCab(sc Scale, opt WorkloadOptions) (WorkloadResult, error) {
	ground := cabGround(sc)
	return workloadSweep("cab", &ground, sc, opt)
}

// Fig7WorkloadSM reproduces Fig. 7c/7d on the SM workload.
func Fig7WorkloadSM(sc Scale, opt WorkloadOptions) (WorkloadResult, error) {
	ground := smGround(sc)
	return workloadSweep("sm", &ground, sc, opt)
}

func workloadSweep(name string, ground *slim.Dataset, sc Scale, opt WorkloadOptions) (WorkloadResult, error) {
	res := WorkloadResult{Dataset: name}
	seed := sc.Seed + 30
	for _, ratio := range opt.Ratios {
		for _, prob := range opt.InclusionProbs {
			seed++
			w := workload(ground, ratio, prob, prob, seed)
			cfg := baseConfig(15, 12, sc.Workers)
			rr, err := run(w, cfg)
			if err != nil {
				return WorkloadResult{}, err
			}
			avgE := avgRecords(&w.E)
			res.Cells = append(res.Cells, WorkloadCell{
				Ratio:         ratio,
				InclusionProb: prob,
				F1:            rr.Metrics.F1,
				Precision:     rr.Metrics.Precision,
				Recall:        rr.Metrics.Recall,
				Runtime:       rr.Elapsed,
				AvgRecords:    avgE,
			})
		}
	}
	return res, nil
}
