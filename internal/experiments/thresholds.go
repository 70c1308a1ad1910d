package experiments

import (
	"fmt"

	"slim"
	"slim/internal/eval"
)

// ThresholdMethodCell is one (method, dataset) measurement.
type ThresholdMethodCell struct {
	Method    string
	Dataset   string
	F1        float64
	Precision float64
	Recall    float64
	Threshold float64
}

// ThresholdMethodsResult reproduces the Sec. 5.2.1 remark that the GMM
// stop-threshold detector, Otsu's method and 2-means clustering behave
// similarly on the default workloads.
type ThresholdMethodsResult struct {
	Cells []ThresholdMethodCell
}

// Table renders one row per (dataset, method).
func (r ThresholdMethodsResult) Table() eval.Table {
	t := eval.Table{
		Title:  "stop-threshold detectors compared (Sec. 5.2.1 remark)",
		Header: []string{"dataset", "method", "threshold", "precision", "recall", "F1"},
	}
	for _, c := range r.Cells {
		t.AddRow(c.Dataset, c.Method, fmt.Sprintf("%.4g", c.Threshold),
			fmt.Sprintf("%.3f", c.Precision), fmt.Sprintf("%.3f", c.Recall), fmt.Sprintf("%.3f", c.F1))
	}
	return t
}

// F1Spread returns max-min F1 across methods for the given dataset — the
// quantity that should be small if the methods agree.
func (r ThresholdMethodsResult) F1Spread(dataset string) float64 {
	lo, hi := 2.0, -1.0
	for _, c := range r.Cells {
		if c.Dataset != dataset {
			continue
		}
		if c.F1 < lo {
			lo = c.F1
		}
		if c.F1 > hi {
			hi = c.F1
		}
	}
	if hi < lo {
		return 0
	}
	return hi - lo
}

// ThresholdMethods links the default Cab and SM workloads once each and
// cuts that one matching with each detector: the matching does not depend
// on the stop threshold.
func ThresholdMethods(sc Scale) (ThresholdMethodsResult, error) {
	var res ThresholdMethodsResult
	methods := []slim.ThresholdMethod{slim.ThresholdGMM, slim.ThresholdOtsu, slim.ThresholdKMeans}

	for _, dataset := range []string{"cab", "sm"} {
		w := defaultSample(sc, dataset, 90)
		rr, err := run(w, baseConfig(15, 12, sc.Workers))
		if err != nil {
			return ThresholdMethodsResult{}, err
		}
		scores := slim.LinkScores(rr.Res.Matched)
		for _, m := range methods {
			thr := slim.SelectStopThreshold(m, scores)
			metrics := slim.Evaluate(slim.FilterLinks(rr.Res.Matched, thr.Threshold), w.Truth)
			res.Cells = append(res.Cells, ThresholdMethodCell{
				Method:    string(m),
				Dataset:   dataset,
				F1:        metrics.F1,
				Precision: metrics.Precision,
				Recall:    metrics.Recall,
				Threshold: thr.Threshold,
			})
		}
	}
	return res, nil
}
