package threshold

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// bimodal draws n1 samples around m1 and n2 around m2.
func bimodal(seed int64, n1 int, m1, s1 float64, n2 int, m2, s2 float64) []float64 {
	r := rand.New(rand.NewSource(seed))
	out := make([]float64, 0, n1+n2)
	for i := 0; i < n1; i++ {
		out = append(out, m1+s1*r.NormFloat64())
	}
	for i := 0; i < n2; i++ {
		out = append(out, m2+s2*r.NormFloat64())
	}
	return out
}

func TestFitGMM2RecoversComponents(t *testing.T) {
	xs := bimodal(1, 300, 100, 10, 200, 500, 30)
	g, ok := FitGMM2(xs)
	if !ok {
		t.Fatal("fit failed on clean bimodal data")
	}
	if math.Abs(g.Mean[0]-100) > 8 {
		t.Errorf("Mean[0] = %g, want ~100", g.Mean[0])
	}
	if math.Abs(g.Mean[1]-500) > 15 {
		t.Errorf("Mean[1] = %g, want ~500", g.Mean[1])
	}
	if math.Abs(g.Weight[0]-0.6) > 0.05 || math.Abs(g.Weight[1]-0.4) > 0.05 {
		t.Errorf("weights = %v, want ~[0.6 0.4]", g.Weight)
	}
	if g.Std[0] > g.Std[1] {
		t.Logf("note: stds = %v (acceptable, components sorted by mean)", g.Std)
	}
	if g.Mean[0] > g.Mean[1] {
		t.Error("components must be ordered by mean")
	}
}

func TestFitGMM2Degenerate(t *testing.T) {
	if _, ok := FitGMM2([]float64{1, 2, 3}); ok {
		t.Error("too-small sample should fail")
	}
	same := make([]float64, 50)
	for i := range same {
		same[i] = 7
	}
	if _, ok := FitGMM2(same); ok {
		t.Error("constant sample should fail")
	}
}

func TestExpectedPRF1Behaviour(t *testing.T) {
	g := GMM{Weight: [2]float64{0.5, 0.5}, Mean: [2]float64{0, 100}, Std: [2]float64{5, 5}}
	// Far below both components: recall 1, precision ~0.5.
	p, r, f1 := g.ExpectedPRF1(-1000)
	if math.Abs(r-1) > 1e-9 || math.Abs(p-0.5) > 1e-6 {
		t.Errorf("low threshold: p=%g r=%g", p, r)
	}
	if f1 <= 0 {
		t.Error("f1 must be positive at low threshold")
	}
	// Between the components: precision ~1, recall ~1 → F1 near 1.
	_, _, f1Mid := g.ExpectedPRF1(50)
	if f1Mid < 0.99 {
		t.Errorf("midpoint F1 = %g, want ~1", f1Mid)
	}
	// Far above both: recall ~0.
	_, r, _ = g.ExpectedPRF1(1000)
	if r > 1e-6 {
		t.Errorf("high threshold recall = %g, want ~0", r)
	}
}

func TestSelectThresholdSeparatesClusters(t *testing.T) {
	xs := bimodal(2, 400, 50, 8, 150, 300, 20)
	res := SelectThreshold(xs)
	if res.Method != MethodGMM {
		t.Fatalf("expected GMM method, got %s", res.Method)
	}
	if res.Model == nil {
		t.Fatal("GMM result must carry the model")
	}
	if res.Threshold < 80 || res.Threshold > 280 {
		t.Errorf("threshold = %g, want between the clusters (80..280)", res.Threshold)
	}
	// Virtually all cluster-2 points above, cluster-1 points below.
	var below, above int
	for _, v := range xs {
		if v > res.Threshold {
			above++
		} else {
			below++
		}
	}
	if above < 120 || above > 180 {
		t.Errorf("%d points above threshold, want ~150", above)
	}
	_ = below
}

func TestSelectThresholdFallbacks(t *testing.T) {
	// Tiny sample → midpoint or otsu fallback, never a panic.
	res := SelectThreshold([]float64{1, 2})
	if res.Method == MethodGMM {
		t.Error("tiny sample should not claim a GMM fit")
	}
	if res.Threshold < 1 || res.Threshold > 2 {
		t.Errorf("fallback threshold %g outside data range", res.Threshold)
	}
	// Empty sample.
	res = SelectThreshold(nil)
	if res.Threshold != 0 {
		t.Errorf("empty sample threshold = %g", res.Threshold)
	}
	// Unimodal blob: GMM components overlap → fallback to Otsu.
	r := rand.New(rand.NewSource(3))
	blob := make([]float64, 200)
	for i := range blob {
		blob[i] = 100 + r.NormFloat64()
	}
	res = SelectThreshold(blob)
	lo, hi := 90.0, 110.0
	if res.Threshold < lo || res.Threshold > hi {
		t.Errorf("unimodal threshold %g escaped the data range", res.Threshold)
	}
}

func TestThresholdWithinRangeQuick(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(200)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.Float64() * 1000
		}
		res := SelectThreshold(xs)
		lo, hi := xs[0], xs[0]
		for _, v := range xs {
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
		return res.Threshold >= lo-1e-9 && res.Threshold <= hi+1e-9 &&
			!math.IsNaN(res.Threshold)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSelectThresholdKMeans(t *testing.T) {
	xs := bimodal(4, 100, 10, 1, 100, 90, 2)
	res := SelectThresholdKMeans(xs)
	if res.Threshold < 20 || res.Threshold > 80 {
		t.Errorf("2-means threshold = %g, want mid-gap", res.Threshold)
	}
	if res.Method != MethodKMeans {
		t.Errorf("method = %s", res.Method)
	}
	if SelectThresholdKMeans(nil).Threshold != 0 {
		t.Error("empty input should give zero threshold")
	}
}

func TestSelectThresholdOtsu(t *testing.T) {
	xs := bimodal(5, 100, 10, 1, 100, 90, 2)
	res := SelectThresholdOtsu(xs)
	if res.Threshold < 20 || res.Threshold > 80 {
		t.Errorf("otsu threshold = %g, want mid-gap", res.Threshold)
	}
}

func TestThresholdMethodsAgreeOnCleanData(t *testing.T) {
	// The paper observes GMM, Otsu and 2-means behave similarly; on
	// cleanly separated clusters all three must land in the gap.
	xs := bimodal(6, 300, 100, 5, 300, 900, 25)
	gmm := SelectThreshold(xs)
	otsu := SelectThresholdOtsu(xs)
	km := SelectThresholdKMeans(xs)
	for _, res := range []Result{gmm, otsu, km} {
		// The invariant: every threshold cleanly separates the clusters
		// (all cluster-1 weight below, all cluster-2 weight above). The
		// exact position within the gap is method-specific and F1-flat.
		if res.Threshold < 130 || res.Threshold > 820 {
			t.Errorf("method %s threshold %g does not separate the clusters", res.Method, res.Threshold)
		}
	}
}

func TestHistogram(t *testing.T) {
	edges, counts := Histogram([]float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, 5)
	if len(edges) != 6 || len(counts) != 5 {
		t.Fatalf("histogram shape: %d edges, %d counts", len(edges), len(counts))
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != 10 {
		t.Errorf("histogram total = %d, want 10", total)
	}
	// Degenerate inputs must not panic.
	_, _ = Histogram(nil, 4)
	_, _ = Histogram([]float64{5, 5, 5}, 0)
}

func BenchmarkFitGMM2(b *testing.B) {
	xs := bimodal(7, 500, 100, 10, 500, 400, 30)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = FitGMM2(xs)
	}
}

func BenchmarkSelectThreshold(b *testing.B) {
	xs := bimodal(8, 500, 100, 10, 500, 400, 30)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = SelectThreshold(xs)
	}
}
