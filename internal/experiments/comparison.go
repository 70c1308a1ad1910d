package experiments

import (
	"fmt"
	"time"

	"slim"
	"slim/internal/baseline/gm"
	"slim/internal/baseline/stlink"
	"slim/internal/candidates"
	"slim/internal/datagen"
	"slim/internal/eval"
	"slim/internal/model"
)

// ComparisonOptions sets the Fig. 11 study: SLIM vs ST-Link vs GM across
// record densities and intersection ratios.
type ComparisonOptions struct {
	// TargetAvgRecords are the I-side densities to sweep (records per
	// entity); the E side stays at PivotInclusion (the paper's "pivot").
	TargetAvgRecords []float64
	// PivotInclusion is the E-side record inclusion probability.
	PivotInclusion float64
	// Ratios are the entity intersection ratios of panels c/d.
	Ratios []float64
	// IncludeGM runs the GM baseline (two orders of magnitude slower; the
	// paper drops it from the denser data points too).
	IncludeGM bool
	// GMMaxAvgRecords skips GM beyond this density (0 = no cap).
	GMMaxAvgRecords float64
	// HitK is the k of hit-precision@k (the paper uses 40).
	HitK int
	// LSH configures SLIM's filter.
	LSH slim.LSHConfig
}

// cabThreshold is the permissive LSH threshold the synthetic cab trace
// needs (see EXPERIMENTS.md "LSH calibration"): one row per band, which at
// the nominal signature length of candidates.Bands means t ≤ 1/52.
const cabThreshold = 0.01

// DefaultComparisonOptions mirrors the paper's setup scaled down. The
// filter is the paper's on the real traces except for a more permissive
// threshold and a coarser signature level, which the synthetic cab trace
// needs (see EXPERIMENTS.md "LSH calibration").
func DefaultComparisonOptions() ComparisonOptions {
	lsh := candidates.DefaultParams()
	lsh.Threshold, lsh.SpatialLevel = cabThreshold, 12
	return ComparisonOptions{
		TargetAvgRecords: []float64{20, 60, 150, 300, 600},
		PivotInclusion:   0.9,
		Ratios:           []float64{0.3, 0.7},
		IncludeGM:        true,
		GMMaxAvgRecords:  200,
		HitK:             40,
		LSH:              lsh,
	}
}

// MethodMeasurement is one method's numbers at one data point.
type MethodMeasurement struct {
	Method            string
	F1                float64
	Precision         float64
	Recall            float64
	HitPrecision      float64
	Runtime           time.Duration
	RecordComparisons int64
	Ran               bool
}

// ComparisonCell is one (ratio, density) data point across methods.
type ComparisonCell struct {
	Ratio      float64
	TargetAvg  float64
	ActualAvgI float64
	Methods    []MethodMeasurement
}

// ComparisonResult is the full Fig. 11 study.
type ComparisonResult struct {
	Dataset string
	Cells   []ComparisonCell
}

// Method returns a method's measurement in a cell (ok=false if absent).
func (c ComparisonCell) Method(name string) (MethodMeasurement, bool) {
	for _, m := range c.Methods {
		if m.Method == name && m.Ran {
			return m, true
		}
	}
	return MethodMeasurement{}, false
}

// Tables renders the four panels of Fig. 11.
func (r ComparisonResult) Tables() []eval.Table {
	panels := []struct {
		name string
		get  func(MethodMeasurement) string
	}{
		{"hit-precision@k", func(m MethodMeasurement) string { return fmt.Sprintf("%.3f", m.HitPrecision) }},
		{"F1", func(m MethodMeasurement) string { return fmt.Sprintf("%.3f", m.F1) }},
		{"runtime-ms", func(m MethodMeasurement) string { return fmt.Sprintf("%d", m.Runtime.Milliseconds()) }},
		{"record-comparisons", func(m MethodMeasurement) string { return fmt.Sprintf("%d", m.RecordComparisons) }},
	}
	var tables []eval.Table
	for _, p := range panels {
		t := eval.Table{
			Title:  fmt.Sprintf("%s: %s per method", r.Dataset, p.name),
			Header: []string{"ratio", "avg-records", "slim", "slim-nolsh", "st-link", "gm"},
		}
		for _, c := range r.Cells {
			row := []string{fmt.Sprintf("%g", c.Ratio), fmt.Sprintf("%.0f", c.ActualAvgI)}
			for _, name := range []string{"slim", "slim-nolsh", "st-link", "gm"} {
				if m, ok := c.Method(name); ok {
					row = append(row, p.get(m))
				} else {
					row = append(row, "-")
				}
			}
			t.Rows = append(t.Rows, row)
		}
		tables = append(tables, t)
	}
	return tables
}

// Fig11Comparison reproduces Fig. 11 on the Cab workload.
func Fig11Comparison(sc Scale, opt ComparisonOptions) (ComparisonResult, error) {
	g := ground(sc, "cab")
	srcAvg := datagen.AvgRecordsPerEntity(&g)
	res := ComparisonResult{Dataset: "cab"}
	seed := sc.Seed + 70
	for _, ratio := range opt.Ratios {
		for _, target := range opt.TargetAvgRecords {
			seed++
			inclI := target / srcAvg
			if inclI > 1 {
				inclI = 1
			}
			w := workload(&g, ratio, opt.PivotInclusion, inclI, seed)
			cell, err := comparisonCell(w, sc, opt, ratio, target)
			if err != nil {
				return ComparisonResult{}, err
			}
			res.Cells = append(res.Cells, cell)
		}
	}
	return res, nil
}

func comparisonCell(w slim.SampledWorkload, sc Scale, opt ComparisonOptions, ratio, target float64) (ComparisonCell, error) {
	cell := ComparisonCell{Ratio: ratio, TargetAvg: target, ActualAvgI: datagen.AvgRecordsPerEntity(&w.I)}
	truth := eval.Truth(w.Truth)

	// SLIM with LSH.
	cfgLSH := baseConfig(15, 12, sc.Workers)
	cfgLSH.LSH = &opt.LSH
	rrLSH, err := run(w, cfgLSH)
	if err != nil {
		return cell, err
	}
	cell.Methods = append(cell.Methods, MethodMeasurement{
		Method: "slim", Ran: true,
		F1: rrLSH.Metrics.F1, Precision: rrLSH.Metrics.Precision, Recall: rrLSH.Metrics.Recall,
		Runtime:           rrLSH.Elapsed,
		RecordComparisons: rrLSH.Res.Stats.RecordComparisons,
		HitPrecision:      0, // filled by the brute-force ranking below
	})

	// SLIM without LSH (brute force) + rankings for hit-precision.
	cfgBF := baseConfig(15, 12, sc.Workers)
	startBF := time.Now()
	lk, err := slim.NewLinker(w.E, w.I, cfgBF)
	if err != nil {
		return cell, err
	}
	resBF := lk.Run()
	elapsedBF := time.Since(startBF)
	mBF := slim.Evaluate(resBF.Links, w.Truth)
	rankings := slimRankings(lk)
	hit := eval.HitPrecisionAtK(rankings, truth, opt.HitK)
	cell.Methods[0].HitPrecision = hit // SLIM scores identically ranked
	cell.Methods = append(cell.Methods, MethodMeasurement{
		Method: "slim-nolsh", Ran: true,
		F1: mBF.F1, Precision: mBF.Precision, Recall: mBF.Recall,
		HitPrecision:      hit,
		Runtime:           elapsedBF,
		RecordComparisons: resBF.Stats.RecordComparisons,
	})

	// ST-Link.
	wnd := lk.Windowing()
	startST := time.Now()
	stRes := stlink.Link(&w.E, &w.I, stlink.DefaultParams(wnd, 12))
	elapsedST := time.Since(startST)
	stPRF := eval.Score(stRes.Links, truth)
	stRank := make(map[model.EntityID][]eval.RankedCandidate)
	for _, ps := range stRes.Candidates {
		stRank[ps.U] = append(stRank[ps.U], eval.RankedCandidate{
			V:     ps.V,
			Score: float64(ps.Cooccurrences) + float64(ps.DiverseLocations)/1000,
		})
	}
	cell.Methods = append(cell.Methods, MethodMeasurement{
		Method: "st-link", Ran: true,
		F1: stPRF.F1, Precision: stPRF.Precision, Recall: stPRF.Recall,
		HitPrecision:      eval.HitPrecisionAtK(stRank, truth, opt.HitK),
		Runtime:           elapsedST,
		RecordComparisons: stRes.RecordComparisons,
	})

	// GM (optional, slow).
	if opt.IncludeGM && (opt.GMMaxAvgRecords == 0 || cell.ActualAvgI <= opt.GMMaxAvgRecords) {
		startGM := time.Now()
		gmRes := gm.Link(&w.E, &w.I, gm.DefaultParams())
		elapsedGM := time.Since(startGM)
		gmPRF := eval.Score(gmRes.Links, truth)
		gmRank := make(map[model.EntityID][]eval.RankedCandidate)
		for _, e := range gmRes.PairScores {
			gmRank[e.U] = append(gmRank[e.U], eval.RankedCandidate{V: e.V, Score: e.Score})
		}
		cell.Methods = append(cell.Methods, MethodMeasurement{
			Method: "gm", Ran: true,
			F1: gmPRF.F1, Precision: gmPRF.Precision, Recall: gmPRF.Recall,
			HitPrecision:      eval.HitPrecisionAtK(gmRank, truth, opt.HitK),
			Runtime:           elapsedGM,
			RecordComparisons: gmRes.RecordComparisons,
		})
	}
	return cell, nil
}
