package mathx

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLambertW0KnownValues(t *testing.T) {
	cases := []struct{ x, want float64 }{
		{0, 0},
		{math.E, 1},                // W(e) = 1
		{2 * math.E * math.E, 2},   // W(2e^2) = 2
		{-1 / math.E, -1},          // branch point
		{1, 0.5671432904097838730}, // omega constant
		{10, 1.7455280027406994},
		{100, 3.3856301402900502},
	}
	for _, c := range cases {
		got, err := LambertW0(c.x)
		if err != nil {
			t.Fatalf("W(%g): %v", c.x, err)
		}
		if math.Abs(got-c.want) > 1e-9 {
			t.Errorf("W(%g) = %.15g, want %.15g", c.x, got, c.want)
		}
	}
}

func TestLambertW0InverseProperty(t *testing.T) {
	f := func(seed uint32) bool {
		x := float64(seed%1000000)/1000 + 0.001 // (0, 1000]
		w, err := LambertW0(x)
		if err != nil {
			return false
		}
		return math.Abs(w*math.Exp(w)-x) < 1e-8*(1+x)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestLambertW0OutOfDomain(t *testing.T) {
	if _, err := LambertW0(-1); err == nil {
		t.Error("expected error for x < -1/e")
	}
	if _, err := LambertW0(math.NaN()); err == nil {
		t.Error("expected error for NaN")
	}
}

func TestNormalCDF(t *testing.T) {
	if got := NormalCDF(0, 0, 1); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("Phi(0) = %g, want 0.5", got)
	}
	if got := NormalCDF(1.96, 0, 1); math.Abs(got-0.975) > 1e-3 {
		t.Errorf("Phi(1.96) = %g, want ~0.975", got)
	}
	if got := NormalCDF(5, 10, 2); got >= 0.5 {
		t.Errorf("CDF below the mean should be < 0.5, got %g", got)
	}
	// Degenerate std behaves like a step function.
	if NormalCDF(1, 2, 0) != 0 || NormalCDF(3, 2, 0) != 1 {
		t.Error("zero-std CDF should be a step at the mean")
	}
}

func TestNormalPDFSymmetry(t *testing.T) {
	for _, d := range []float64{0.1, 0.5, 1, 2} {
		if math.Abs(NormalPDF(3+d, 3, 1.5)-NormalPDF(3-d, 3, 1.5)) > 1e-12 {
			t.Errorf("pdf not symmetric at +/- %g", d)
		}
	}
	if NormalPDF(0, 0, 0) != 0 {
		t.Error("zero-std pdf should be 0")
	}
	if NormalPDF(0, 0, 1) <= NormalPDF(1, 0, 1) {
		t.Error("pdf must peak at the mean")
	}
}

func TestKMeans1DTwoClusters(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var values []float64
	for i := 0; i < 100; i++ {
		values = append(values, 10+r.NormFloat64())
	}
	for i := 0; i < 100; i++ {
		values = append(values, 50+r.NormFloat64())
	}
	centers, assign := KMeans1D(values, 2, 50)
	if len(centers) != 2 {
		t.Fatalf("got %d centers", len(centers))
	}
	if math.Abs(centers[0]-10) > 1 || math.Abs(centers[1]-50) > 1 {
		t.Errorf("centers = %v, want ~[10, 50]", centers)
	}
	for i, v := range values {
		want := 0
		if v > 30 {
			want = 1
		}
		if assign[i] != want {
			t.Fatalf("value %g assigned to cluster %d", v, assign[i])
		}
	}
}

func TestKMeans1DEdgeCases(t *testing.T) {
	if c, a := KMeans1D(nil, 2, 10); c != nil || a != nil {
		t.Error("empty input should return nil")
	}
	c, a := KMeans1D([]float64{5}, 3, 10)
	if len(c) != 1 || a[0] != 0 {
		t.Errorf("k>n should clamp: centers=%v assign=%v", c, a)
	}
	// Identical values must not panic and must produce one effective center.
	c, _ = KMeans1D([]float64{7, 7, 7, 7}, 2, 10)
	for _, v := range c {
		if v != 7 {
			t.Errorf("degenerate centers = %v", c)
		}
	}
}

func TestOtsuSeparatesBimodal(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	var values []float64
	for i := 0; i < 500; i++ {
		values = append(values, 5+r.NormFloat64())
	}
	for i := 0; i < 500; i++ {
		values = append(values, 20+r.NormFloat64())
	}
	thr := Otsu(values, 64)
	if thr < 8 || thr > 17 {
		t.Errorf("Otsu threshold = %g, want between the modes (8..17)", thr)
	}
}

func TestOtsuEdgeCases(t *testing.T) {
	if Otsu(nil, 10) != 0 {
		t.Error("empty input should give 0")
	}
	if Otsu([]float64{3, 3, 3}, 10) != 3 {
		t.Error("constant input should return that constant")
	}
	// bins < 2 must not panic.
	_ = Otsu([]float64{1, 2, 3}, 1)
}

func TestKneedleFindsElbow(t *testing.T) {
	// A decreasing curve with a clear elbow at x=4: steep drop then flat.
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	ys := []float64{100, 60, 30, 12, 10, 9, 8.5, 8}
	idx := Kneedle(xs, ys, true)
	if idx < 2 || idx > 4 {
		t.Errorf("elbow index = %d (x=%g), want near 3", idx, xs[idx])
	}
	// Increasing curve with a knee.
	ys2 := []float64{0, 40, 70, 88, 90, 91, 92, 92.5}
	idx2 := Kneedle(xs, ys2, false)
	if idx2 < 1 || idx2 > 4 {
		t.Errorf("knee index = %d, want near 2-3", idx2)
	}
}

func TestKneedleDegenerate(t *testing.T) {
	if Kneedle(nil, nil, true) != -1 {
		t.Error("empty input should return -1")
	}
	if Kneedle([]float64{1}, []float64{5}, true) != 0 {
		t.Error("single point should return index 0")
	}
	if Kneedle([]float64{1, 2}, []float64{5, 4}, true) != 1 {
		t.Error("two points should return last index")
	}
	// Flat curve: no elbow, expect last index.
	xs := []float64{1, 2, 3, 4}
	flat := []float64{5, 5, 5, 5}
	if Kneedle(xs, flat, true) != 3 {
		t.Error("flat curve should return last index")
	}
	if Kneedle(xs, []float64{1, 2}, true) != -1 {
		t.Error("mismatched lengths should return -1")
	}
}

func TestMinMaxMean(t *testing.T) {
	vals := []float64{3, 1, 4, 1, 5}
	lo, hi := MinMax(vals)
	if lo != 1 || hi != 5 {
		t.Errorf("MinMax = (%g, %g)", lo, hi)
	}
	if lo, hi := MinMax(nil); lo != 0 || hi != 0 {
		t.Error("MinMax(nil) should be (0,0)")
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 3) != 3 || Clamp(-1, 0, 3) != 0 || Clamp(2, 0, 3) != 2 {
		t.Error("Clamp misbehaves")
	}
}

func TestKneedleQuickNeverPanicsAndInRange(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		ys := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(i)
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			ys[i] = v
		}
		idx := Kneedle(xs, ys, true)
		return idx >= 0 && idx < len(xs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func BenchmarkLambertW0(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, _ = LambertW0(float64(i%1000) + 0.5)
	}
}
