// Package threshold implements SLIM's automated linkage stop-threshold
// detection (Sec. 3.2): a two-component 1-D Gaussian mixture model is fit
// over the edge weights selected by the bipartite matching; the component
// with the larger mean models true-positive links and the other models
// false positives. Expected precision, recall and F1 are derived from the
// component CDFs as functions of a candidate threshold s, and the
// F1-maximizing s* is returned.
//
// The paper notes Otsu's method and 2-means clustering yield similar
// results; both are provided as alternatives and as fallbacks for
// degenerate mixtures.
package threshold

import (
	"math"

	"slim/internal/mathx"
)

// GMM is a two-component univariate Gaussian mixture. Component 1 models
// false-positive link weights, component 2 (larger mean) true positives.
type GMM struct {
	Weight [2]float64 // mixing weights c1, c2 (sum to 1)
	Mean   [2]float64 // component means, Mean[0] <= Mean[1]
	Std    [2]float64 // component standard deviations
}

// Method names a threshold detection strategy. MethodGMM, MethodOtsu,
// MethodKMeans and MethodNone are the detectors a caller selects (Select);
// MethodMidpoint only ever reports the GMM detector's last fallback.
type Method string

const (
	MethodGMM      Method = "gmm"
	MethodOtsu     Method = "otsu"
	MethodKMeans   Method = "2means"
	MethodMidpoint Method = "midpoint"
	MethodNone     Method = "none"
)

// Select applies the detector a method names to the matched weights:
// MethodNone keeps every matched edge, MethodOtsu and MethodKMeans are the
// paper's alternatives, and any other method is the GMM detector with its
// fallbacks (SelectThreshold).
func Select(method Method, weights []float64) Result {
	switch method {
	case MethodNone:
		// Edges only exist for positive scores, so any negative threshold
		// is a no-op filter.
		return Result{Threshold: -1, Method: MethodNone}
	case MethodOtsu:
		return SelectThresholdOtsu(weights)
	case MethodKMeans:
		return SelectThresholdKMeans(weights)
	default:
		return SelectThreshold(weights)
	}
}

// Result is a threshold decision together with the model that produced it.
type Result struct {
	Threshold float64
	Method    Method
	// Model is the fitted mixture when Method == MethodGMM.
	Model *GMM
}

const (
	emMaxIter     = 200
	emTol         = 1e-9
	minGMMSamples = 8
	gridSteps     = 512
)

// FitGMM2 fits a two-component Gaussian mixture to xs with EM, initialized
// from a 1-D 2-means split. ok is false when the data is too small or the
// fit degenerates (empty component, collapsed variance).
func FitGMM2(xs []float64) (GMM, bool) {
	n := len(xs)
	if n < minGMMSamples {
		return GMM{}, false
	}
	lo, hi := mathx.MinMax(xs)
	if hi <= lo {
		return GMM{}, false
	}
	span := hi - lo
	minStd := 1e-3 * span

	centers, assign := mathx.KMeans1D(xs, 2, 100)
	if len(centers) < 2 || centers[0] == centers[1] {
		return GMM{}, false
	}
	var g GMM
	// Initialize from the k-means split.
	var sums, sqs [2]float64
	var counts [2]int
	for i, v := range xs {
		c := assign[i]
		sums[c] += v
		counts[c]++
	}
	if counts[0] == 0 || counts[1] == 0 {
		return GMM{}, false
	}
	for c := 0; c < 2; c++ {
		g.Mean[c] = sums[c] / float64(counts[c])
		g.Weight[c] = float64(counts[c]) / float64(n)
	}
	for i, v := range xs {
		c := assign[i]
		d := v - g.Mean[c]
		sqs[c] += d * d
	}
	for c := 0; c < 2; c++ {
		g.Std[c] = math.Max(math.Sqrt(sqs[c]/float64(counts[c])), minStd)
	}

	resp := make([]float64, n) // responsibility of component 1 (index 1)
	prevLL := math.Inf(-1)
	for iter := 0; iter < emMaxIter; iter++ {
		// E-step.
		var ll float64
		for i, v := range xs {
			p0 := g.Weight[0] * mathx.NormalPDF(v, g.Mean[0], g.Std[0])
			p1 := g.Weight[1] * mathx.NormalPDF(v, g.Mean[1], g.Std[1])
			sum := p0 + p1
			if sum <= 0 || math.IsNaN(sum) {
				// Point in the far tails of both: split evenly.
				resp[i] = 0.5
				ll += -745 // log of smallest double, effectively
				continue
			}
			resp[i] = p1 / sum
			ll += math.Log(sum)
		}
		// M-step.
		var w1, m0, m1 float64
		for i, v := range xs {
			w1 += resp[i]
			m1 += resp[i] * v
			m0 += (1 - resp[i]) * v
		}
		w0 := float64(n) - w1
		if w0 < 1e-9 || w1 < 1e-9 {
			return GMM{}, false
		}
		g.Weight[0], g.Weight[1] = w0/float64(n), w1/float64(n)
		g.Mean[0], g.Mean[1] = m0/w0, m1/w1
		var v0, v1 float64
		for i, v := range xs {
			d0 := v - g.Mean[0]
			d1 := v - g.Mean[1]
			v0 += (1 - resp[i]) * d0 * d0
			v1 += resp[i] * d1 * d1
		}
		g.Std[0] = math.Max(math.Sqrt(v0/w0), minStd)
		g.Std[1] = math.Max(math.Sqrt(v1/w1), minStd)

		if math.Abs(ll-prevLL) < emTol*(1+math.Abs(ll)) {
			break
		}
		prevLL = ll
	}
	// Order components by mean: index 1 is the true-positive model.
	if g.Mean[0] > g.Mean[1] {
		g.Mean[0], g.Mean[1] = g.Mean[1], g.Mean[0]
		g.Std[0], g.Std[1] = g.Std[1], g.Std[0]
		g.Weight[0], g.Weight[1] = g.Weight[1], g.Weight[0]
	}
	if math.IsNaN(g.Mean[0]) || math.IsNaN(g.Mean[1]) {
		return GMM{}, false
	}
	return g, true
}

// ExpectedPRF1 evaluates the expected precision, recall and F1 of keeping
// links with weight above s, under the fitted mixture:
//
//	R(s)  = c2·(1 − F_m2(s))
//	P(s)  = R(s) / (R(s) + c1·(1 − F_m1(s)))
//	F1(s) = 2·P·R / (P + R)
func (g GMM) ExpectedPRF1(s float64) (p, r, f1 float64) {
	tp := g.Weight[1] * (1 - mathx.NormalCDF(s, g.Mean[1], g.Std[1]))
	fp := g.Weight[0] * (1 - mathx.NormalCDF(s, g.Mean[0], g.Std[0]))
	r = tp / g.Weight[1] // normalize: recall is the fraction of TPs kept
	if tp+fp > 0 {
		p = tp / (tp + fp)
	}
	if p+r > 0 {
		f1 = 2 * p * r / (p + r)
	}
	return p, r, f1
}

// SelectThreshold returns the F1-maximizing threshold s* on a grid spanning
// the observed weights. If the mixture cannot be fit it falls back to
// Otsu's method, then to the midpoint of the range (Design decision 8).
func SelectThreshold(weights []float64) Result {
	if len(weights) == 0 {
		return Result{Threshold: 0, Method: MethodMidpoint}
	}
	lo, hi := mathx.MinMax(weights)
	if g, ok := FitGMM2(weights); ok {
		// The two components must be meaningfully separated, otherwise the
		// mixture is modelling one blob and its F1 argmax is noise.
		if g.Mean[1]-g.Mean[0] > (g.Std[0]+g.Std[1])/4 {
			best, bestF1 := lo, -1.0
			step := (hi - lo) / gridSteps
			if step <= 0 {
				step = 1
			}
			for s := lo; s <= hi; s += step {
				if _, _, f1 := g.ExpectedPRF1(s); f1 > bestF1 {
					best, bestF1 = s, f1
				}
			}
			gg := g
			return Result{Threshold: best, Method: MethodGMM, Model: &gg}
		}
	}
	if len(weights) >= 4 && hi > lo {
		return Result{Threshold: mathx.Otsu(weights, 64), Method: MethodOtsu}
	}
	return Result{Threshold: lo + (hi-lo)/2, Method: MethodMidpoint}
}

// SelectThresholdKMeans is the paper's 2-means alternative: the threshold
// is the midpoint between the two cluster centers.
func SelectThresholdKMeans(weights []float64) Result {
	if len(weights) == 0 {
		return Result{Method: MethodKMeans}
	}
	centers, _ := mathx.KMeans1D(weights, 2, 100)
	if len(centers) < 2 {
		return Result{Threshold: centers[0], Method: MethodKMeans}
	}
	return Result{Threshold: (centers[0] + centers[1]) / 2, Method: MethodKMeans}
}

// SelectThresholdOtsu is the paper's Otsu alternative.
func SelectThresholdOtsu(weights []float64) Result {
	return Result{Threshold: mathx.Otsu(weights, 64), Method: MethodOtsu}
}

// Histogram bins values for reporting (Fig. 2 / Fig. 6 rendering). It
// returns the bin edges (len bins+1) and counts (len bins).
func Histogram(values []float64, bins int) (edges []float64, counts []int) {
	if bins <= 0 {
		bins = 1
	}
	lo, hi := mathx.MinMax(values)
	if hi == lo {
		hi = lo + 1
	}
	edges = make([]float64, bins+1)
	counts = make([]int, bins)
	width := (hi - lo) / float64(bins)
	for i := 0; i <= bins; i++ {
		edges[i] = lo + float64(i)*width
	}
	for _, v := range values {
		b := int((v - lo) / width)
		if b >= bins {
			b = bins - 1
		}
		if b < 0 {
			b = 0
		}
		counts[b]++
	}
	return edges, counts
}
