package experiments

import (
	"fmt"

	"slim"
	"slim/internal/eval"
	"slim/internal/threshold"
)

// GMMFitResult reproduces Fig. 2 / Fig. 6: the distribution of matched
// similarity scores, split into true/false positives using ground truth
// (illustrative only, as in the paper), with the fitted mixture and the
// detected stop threshold.
type GMMFitResult struct {
	Dataset   string
	Level     int
	WindowMin float64
	// Histogram of matched edge weights.
	BinLo, BinHi []float64
	TPCount      []int
	FPCount      []int
	// Fitted mixture (nil when the fit degenerated).
	Model     *threshold.GMM
	Threshold float64
	Method    string
	// Separation quality: (mean2-mean1)/(std1+std2); higher = cleaner.
	Separation float64
}

// Table renders the histogram and fit summary.
func (r GMMFitResult) Table() eval.Table {
	t := eval.Table{
		Title: fmt.Sprintf("%s level=%d window=%gmin: score histogram, threshold=%.4g (%s), separation=%.2f",
			r.Dataset, r.Level, r.WindowMin, r.Threshold, r.Method, r.Separation),
		Header: []string{"score-lo", "score-hi", "true-pos", "false-pos"},
	}
	for i := range r.TPCount {
		t.AddRowf(r.BinLo[i], r.BinHi[i], r.TPCount[i], r.FPCount[i])
	}
	if r.Model != nil {
		t.AddRow("gmm", fmt.Sprintf("w=[%.2f %.2f]", r.Model.Weight[0], r.Model.Weight[1]),
			fmt.Sprintf("mu=[%.4g %.4g]", r.Model.Mean[0], r.Model.Mean[1]),
			fmt.Sprintf("sd=[%.4g %.4g]", r.Model.Std[0], r.Model.Std[1]))
	}
	return t
}

// ThresholdAccuracy measures how well the detected stop threshold
// separates true from false positives: the balanced fraction of TPs kept
// above it and FPs cut below it (computed at histogram-bin granularity).
// This is the Fig. 6 claim — "grouping true positive links and false
// positive links in two clusters becomes more accurate" with detail —
// in a single number.
func (r GMMFitResult) ThresholdAccuracy() float64 {
	var tpAbove, tpTotal, fpBelow, fpTotal float64
	for i := range r.TPCount {
		mid := (r.BinLo[i] + r.BinHi[i]) / 2
		tpTotal += float64(r.TPCount[i])
		fpTotal += float64(r.FPCount[i])
		if mid > r.Threshold {
			tpAbove += float64(r.TPCount[i])
		} else {
			fpBelow += float64(r.FPCount[i])
		}
	}
	switch {
	case tpTotal == 0 && fpTotal == 0:
		return 0
	case tpTotal == 0:
		return fpBelow / fpTotal
	case fpTotal == 0:
		return tpAbove / tpTotal
	}
	return (tpAbove/tpTotal + fpBelow/fpTotal) / 2
}

// Fig2GMMFit reproduces Fig. 2: one GMM fit over the matched scores of the
// default Cab workload.
func Fig2GMMFit(sc Scale) (GMMFitResult, error) {
	return gmmFit("cab", defaultSample(sc, "cab", 20), sc, 15, 12, 20)
}

// Fig6ScoreHistograms reproduces Fig. 6: fits for spatial details 4, 8,
// 12, 16 at a 90-minute window, showing how separation (and therefore the
// stop threshold) sharpens with spatial detail.
func Fig6ScoreHistograms(sc Scale) ([]GMMFitResult, error) {
	w := defaultSample(sc, "cab", 21)
	var out []GMMFitResult
	for _, level := range []int{4, 8, 12, 16} {
		r, err := gmmFit("cab", w, sc, 90, level, 20)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

func gmmFit(name string, w slim.SampledWorkload, sc Scale, windowMin float64, level, bins int) (GMMFitResult, error) {
	cfg := baseConfig(windowMin, level, sc.Workers)
	rr, err := run(w, cfg)
	if err != nil {
		return GMMFitResult{}, err
	}
	out := GMMFitResult{
		Dataset:   name,
		Level:     level,
		WindowMin: windowMin,
		Threshold: rr.Res.Threshold,
		Method:    rr.Res.ThresholdMethod,
	}
	weights := make([]float64, len(rr.Res.Matched))
	for i, l := range rr.Res.Matched {
		weights[i] = l.Score
	}
	edges, _ := threshold.Histogram(weights, bins)
	out.BinLo = edges[:len(edges)-1]
	out.BinHi = edges[1:]
	out.TPCount = make([]int, bins)
	out.FPCount = make([]int, bins)
	width := edges[1] - edges[0]
	for _, l := range rr.Res.Matched {
		b := 0
		if width > 0 {
			b = int((l.Score - edges[0]) / width)
		}
		if b >= bins {
			b = bins - 1
		}
		if b < 0 {
			b = 0
		}
		if w.Truth[l.U] == l.V {
			out.TPCount[b]++
		} else {
			out.FPCount[b]++
		}
	}
	if g, ok := threshold.FitGMM2(weights); ok {
		gg := g
		out.Model = &gg
		if g.Std[0]+g.Std[1] > 0 {
			out.Separation = (g.Mean[1] - g.Mean[0]) / (g.Std[0] + g.Std[1])
		}
	}
	return out, nil
}
