package tuning

import (
	"math/rand"
	"slices"
	"testing"

	"slim/internal/geo"
	"slim/internal/model"
	"slim/internal/similarity"
)

// The linkage's default window grid and similarity parameters: 15-minute
// windows, a 2 km/min speed bound.
var (
	wnd    = model.Windowing{WidthSeconds: 900}
	params = similarity.DefaultParams(15, 2)
)

// metroDataset builds entities with distinct home neighborhoods inside one
// metro area, so they are indistinguishable at coarse spatial levels and
// separate cleanly at fine ones.
func metroDataset(n, recsEach int, seed int64) model.Dataset {
	r := rand.New(rand.NewSource(seed))
	d := model.Dataset{Name: "metro"}
	for e := 0; e < n; e++ {
		id := model.EntityID(string(rune('A'+e%26)) + string(rune('a'+e/26)))
		homeLat := 37.40 + float64(e%8)*0.05
		homeLng := -122.50 + float64(e/8)*0.05
		for k := 0; k < recsEach; k++ {
			d.Records = append(d.Records, model.Record{
				Entity: id,
				LatLng: geo.LatLng{
					Lat: homeLat + r.NormFloat64()*0.002,
					Lng: homeLng + r.NormFloat64()*0.002,
				},
				Unix: int64(k)*900 + int64(r.Intn(900)),
			})
		}
	}
	return d
}

// group groups every entity of d, as the linker's tuner input.
func group(d model.Dataset) *model.Grouped {
	g := d.GroupByEntity(-1)
	return &g
}

func TestProbeRatioDecreasesWithDetail(t *testing.T) {
	d := metroDataset(24, 40, 1)
	c := Probe(group(d), wnd, params)
	if want := []int{4, 6, 8, 10, 12, 14, 16, 18, 20}; !slices.Equal(c.Levels, want) || len(c.Ratio) != len(want) {
		t.Fatalf("curve levels %v with %d ratios, want levels %v", c.Levels, len(c.Ratio), want)
	}
	// Coarse levels: everyone shares cells → high ratio. Fine levels
	// separate entities, but proximity stays generous inside the runaway
	// distance, so "low" means clearly below the coarse plateau.
	if c.Ratio[0] < 0.8 {
		t.Errorf("level-4 ratio = %g, want ~1 (entities indistinguishable)", c.Ratio[0])
	}
	last := c.Ratio[len(c.Ratio)-1]
	if last > c.Ratio[0]-0.2 {
		t.Errorf("level-20 ratio = %g, want well below coarse ratio %g", last, c.Ratio[0])
	}
	// Broadly non-increasing (tolerate small sampling noise).
	for i := 1; i < len(c.Ratio); i++ {
		if c.Ratio[i] > c.Ratio[i-1]+0.15 {
			t.Errorf("ratio increased sharply from level %d to %d: %g -> %g",
				c.Levels[i-1], c.Levels[i], c.Ratio[i-1], c.Ratio[i])
		}
	}
}

func TestAutoSpatialLevelPicksInteriorElbow(t *testing.T) {
	d := metroDataset(24, 40, 2)
	c := Probe(group(d), wnd, params)
	lvl := c.Level()
	// With ~5km neighborhood separation the elbow should be at a moderate
	// level: past the useless coarse levels, well before the max.
	if lvl <= 4 || lvl >= 20 {
		t.Errorf("elbow level = %d (curve %v), want interior", lvl, c.Ratio)
	}
}

func TestAutoSpatialLevelDeterministic(t *testing.T) {
	d := metroDataset(16, 25, 3)
	first := Probe(group(d), wnd, params)
	for i := 0; i < 3; i++ {
		again := Probe(group(d), wnd, params)
		if again.Level() != first.Level() {
			t.Fatal("auto-tuning is not deterministic")
		}
		for j := range first.Ratio {
			if first.Ratio[j] != again.Ratio[j] {
				t.Fatal("probe ratios are not deterministic")
			}
		}
	}
}

func TestAutoSpatialLevelPairTakesMax(t *testing.T) {
	// Dataset 2 is spread over a much smaller area → needs finer detail.
	d1 := metroDataset(16, 25, 4)
	d2 := model.Dataset{Name: "dense"}
	r := rand.New(rand.NewSource(5))
	for e := 0; e < 16; e++ {
		id := model.EntityID(string(rune('a' + e)))
		homeLat := 37.40 + float64(e%4)*0.004
		homeLng := -122.50 + float64(e/4)*0.004
		for k := 0; k < 25; k++ {
			d2.Records = append(d2.Records, model.Record{
				Entity: id,
				LatLng: geo.LatLng{Lat: homeLat + r.NormFloat64()*0.0004, Lng: homeLng + r.NormFloat64()*0.0004},
				Unix:   int64(k)*900 + int64(r.Intn(900)),
			})
		}
	}
	lvl, c1, c2 := SpatialLevel(group(d1), group(d2), wnd, params)
	if lvl != c1.Level() && lvl != c2.Level() {
		t.Error("pair level must come from one of the curves")
	}
	if lvl < c1.Level() || lvl < c2.Level() {
		t.Errorf("pair level %d is not the max of (%d, %d)", lvl, c1.Level(), c2.Level())
	}
}

func TestCurveLevelDegenerate(t *testing.T) {
	if (Curve{}).Level() != 0 {
		t.Error("empty curve level should be 0")
	}
	c := Curve{Levels: []int{4, 8}, Elbow: -1}
	if c.Level() != 8 {
		t.Error("invalid elbow should fall back to max detail")
	}
}

func TestAutoSpatialLevelTinyDataset(t *testing.T) {
	// One entity: probe cannot form pairs; must not panic and should fall
	// back to some level.
	d := model.Dataset{Name: "one", Records: []model.Record{
		{Entity: "a", LatLng: geo.LatLng{Lat: 1, Lng: 1}, Unix: 0},
	}}
	c := Probe(group(d), wnd, params)
	if c.Level() == 0 {
		t.Error("tiny dataset should still yield a usable level")
	}
}
