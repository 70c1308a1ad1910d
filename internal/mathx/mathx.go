// Package mathx provides the numeric building blocks SLIM needs beyond the
// standard library: the Lambert W function (LSH band-count solve), kneedle
// elbow detection (spatial-level auto-tuning and ST-Link's k/l selection),
// 1-D k-means and Otsu thresholding (alternative stop-threshold detectors),
// and Gaussian distribution helpers (GMM-based threshold selection).
package mathx

import (
	"errors"
	"math"
	"sort"
)

// LambertW0 evaluates the principal branch of the Lambert W function,
// the inverse of f(w) = w·e^w, for x >= -1/e. It is used to solve
// b = exp(W(-s·ln t)) for the LSH band count (Sec. 4 of the paper).
//
// Implemented with Halley's iteration from a piecewise initial guess;
// converges to ~1e-12 in a handful of steps for all arguments SLIM uses.
func LambertW0(x float64) (float64, error) {
	const minArg = -1.0 / math.E
	if x < minArg-1e-12 || math.IsNaN(x) {
		return 0, errors.New("mathx: LambertW0 argument below -1/e")
	}
	if x < minArg {
		x = minArg
	}
	if x == 0 {
		return 0, nil
	}
	// Initial guess.
	var w float64
	switch {
	case x < -0.25:
		// Series around the branch point -1/e.
		p := math.Sqrt(2 * (math.E*x + 1))
		w = -1 + p - p*p/3
	case x < 3:
		w = x * (1 - x) // crude, fixed by iteration
		if w < -0.9 {
			w = -0.9
		}
	default:
		lx := math.Log(x)
		w = lx - math.Log(lx)
	}
	for i := 0; i < 64; i++ {
		ew := math.Exp(w)
		f := w*ew - x
		denom := ew*(w+1) - (w+2)*f/(2*w+2)
		if denom == 0 {
			break
		}
		d := f / denom
		w -= d
		if math.Abs(d) < 1e-13*(1+math.Abs(w)) {
			break
		}
	}
	return w, nil
}

// NormalCDF returns the cumulative distribution function of the normal
// distribution with the given mean and standard deviation.
func NormalCDF(x, mean, std float64) float64 {
	if std <= 0 {
		if x < mean {
			return 0
		}
		return 1
	}
	return 0.5 * (1 + math.Erf((x-mean)/(std*math.Sqrt2)))
}

// NormalPDF returns the density of the normal distribution at x.
func NormalPDF(x, mean, std float64) float64 {
	if std <= 0 {
		return 0
	}
	z := (x - mean) / std
	return math.Exp(-0.5*z*z) / (std * math.Sqrt(2*math.Pi))
}

// KMeans1D clusters values into k clusters by Lloyd's algorithm on a line.
// It returns the sorted cluster centers and the per-value assignment
// indices (into the sorted centers). The input is not modified.
func KMeans1D(values []float64, k, maxIter int) (centers []float64, assign []int) {
	n := len(values)
	if n == 0 || k <= 0 {
		return nil, nil
	}
	if k > n {
		k = n
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	// Initialize centers at evenly spaced quantiles.
	centers = make([]float64, k)
	for i := 0; i < k; i++ {
		q := (float64(i) + 0.5) / float64(k)
		centers[i] = sorted[int(q*float64(n-1))]
	}
	assign = make([]int, n)
	for iter := 0; iter < maxIter; iter++ {
		changed := false
		sums := make([]float64, k)
		counts := make([]int, k)
		for i, v := range values {
			best, bestD := 0, math.Inf(1)
			for c, m := range centers {
				if d := math.Abs(v - m); d < bestD {
					best, bestD = c, d
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
			sums[best] += v
			counts[best]++
		}
		for c := range centers {
			if counts[c] > 0 {
				centers[c] = sums[c] / float64(counts[c])
			}
		}
		if !changed && iter > 0 {
			break
		}
	}
	// Sort centers and remap assignments.
	type cidx struct {
		center float64
		old    int
	}
	cs := make([]cidx, k)
	for i, c := range centers {
		cs[i] = cidx{c, i}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].center < cs[j].center })
	remap := make([]int, k)
	for newIdx, c := range cs {
		centers[newIdx] = c.center
		remap[c.old] = newIdx
	}
	for i := range assign {
		assign[i] = remap[assign[i]]
	}
	return centers, assign
}

// Otsu computes Otsu's threshold over continuous values by histogramming
// them into the given number of bins and maximizing between-class variance.
// The paper cites Otsu as an alternative stop-threshold detector (Sec. 5.2).
func Otsu(values []float64, bins int) float64 {
	if len(values) == 0 {
		return 0
	}
	if bins < 2 {
		bins = 2
	}
	lo, hi := MinMax(values)
	if hi == lo {
		return lo
	}
	hist := make([]int, bins)
	width := (hi - lo) / float64(bins)
	for _, v := range values {
		b := int((v - lo) / width)
		if b >= bins {
			b = bins - 1
		}
		hist[b]++
	}
	total := len(values)
	var sumAll float64
	for i, c := range hist {
		sumAll += (lo + (float64(i)+0.5)*width) * float64(c)
	}
	// Maximize between-class variance. With well-separated clusters every
	// cut through the empty gap achieves the same variance, so track the
	// whole argmax plateau and return its midpoint (the classic Otsu
	// refinement), which keeps the threshold centered in the gap.
	var wB, sumB, bestVar float64
	firstBest, lastBest := -1, -1
	for i := 0; i < bins-1; i++ {
		mid := lo + (float64(i)+0.5)*width
		wB += float64(hist[i])
		if wB == 0 {
			continue
		}
		wF := float64(total) - wB
		if wF == 0 {
			break
		}
		sumB += mid * float64(hist[i])
		mB := sumB / wB
		mF := (sumAll - sumB) / wF
		between := wB * wF * (mB - mF) * (mB - mF)
		switch {
		case between > bestVar*(1+1e-12):
			bestVar = between
			firstBest, lastBest = i, i
		case between >= bestVar*(1-1e-12) && firstBest >= 0:
			lastBest = i
		}
	}
	if firstBest < 0 {
		return lo + (hi-lo)/2
	}
	cut := float64(firstBest+lastBest)/2 + 1
	return lo + cut*width
}

// Kneedle finds the index of the knee/elbow point of a curve y(x) using the
// normalized-difference method of Satopaa et al. ("Finding a 'Kneedle' in a
// Haystack", ICDCS 2011), which the paper uses for both spatial-level
// auto-tuning (Sec. 3.3) and, in our ST-Link baseline, k/l selection.
//
// The xs must be strictly increasing. decreasing indicates whether the curve
// decreases with x (an "elbow" of diminishing returns) or increases (a
// "knee"). Returns the index into xs of the detected point; if the curve is
// degenerate the last index is returned (no elbow: take the max detail).
func Kneedle(xs, ys []float64, decreasing bool) int {
	n := len(xs)
	if n != len(ys) || n == 0 {
		return -1
	}
	if n <= 2 {
		return n - 1
	}
	minX, maxX := xs[0], xs[n-1]
	minY, maxY := MinMax(ys)
	if maxX == minX || maxY == minY {
		return n - 1
	}
	// Normalize to the unit square; for decreasing curves flip y so the
	// problem is always "find the knee of an increasing concave curve".
	diff := make([]float64, n)
	for i := 0; i < n; i++ {
		xn := (xs[i] - minX) / (maxX - minX)
		yn := (ys[i] - minY) / (maxY - minY)
		if decreasing {
			yn = 1 - yn
		}
		diff[i] = yn - xn
	}
	best, bestVal := n-1, math.Inf(-1)
	for i := 1; i < n-1; i++ {
		if diff[i] > bestVal {
			best, bestVal = i, diff[i]
		}
	}
	return best
}

// MinMax returns the minimum and maximum of a non-empty slice; it returns
// (0, 0) for an empty slice.
func MinMax(values []float64) (lo, hi float64) {
	if len(values) == 0 {
		return 0, 0
	}
	lo, hi = values[0], values[0]
	for _, v := range values[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// Clamp limits v to the interval [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
