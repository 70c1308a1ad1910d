package datagen

import (
	"math"
	"math/rand"
	"testing"

	"slim/internal/geo"
	"slim/internal/model"
)

func smallCab() model.Dataset {
	return Cab(CabConfig{NumTaxis: 20, Days: 2, MeanRecordIntervalSec: 300, Seed: 1})
}

func smallSM() model.Dataset {
	return SM(SMConfig{NumUsers: 200, Days: 8, AvgRecords: 20, Seed: 2})
}

func TestCabShape(t *testing.T) {
	d := smallCab()
	if err := d.Validate(); err != nil {
		t.Fatalf("invalid cab dataset: %v", err)
	}
	ents := d.Entities()
	if len(ents) != 20 {
		t.Fatalf("entities = %d, want 20", len(ents))
	}
	// ~2 days / 300s ≈ 576 records per taxi.
	avg := AvgRecordsPerEntity(&d)
	if avg < 300 || avg > 900 {
		t.Errorf("avg records per taxi = %g, want ~576", avg)
	}
	// All records inside the Bay-Area box (plus GPS noise).
	for _, r := range d.Records {
		if r.LatLng.Lat < 37.30 || r.LatLng.Lat > 37.98 ||
			r.LatLng.Lng < -122.75 || r.LatLng.Lng > -122.00 {
			t.Fatalf("record escaped the service box: %+v", r.LatLng)
		}
	}
	lo, hi, _ := d.TimeRange()
	if hi-lo > 2*86400 {
		t.Errorf("time range %d s exceeds 2 days", hi-lo)
	}
}

func TestCabSpeedBounded(t *testing.T) {
	d := Cab(CabConfig{NumTaxis: 5, Days: 1, MeanRecordIntervalSec: 120, Seed: 3})
	byE := d.ByEntity()
	for id, recs := range byE {
		for i := 1; i < len(recs); i++ {
			dt := float64(recs[i].Unix-recs[i-1].Unix) / 60 // minutes
			if dt <= 0 {
				continue
			}
			dist := geo.GreatCircleKm(recs[i-1].LatLng, recs[i].LatLng)
			// Max configured speed 0.8 km/min, plus a fixed allowance for
			// GPS noise (~33m per endpoint, so ~0.3km covers 4+ sigma).
			if dist > 0.8*dt+0.3 {
				t.Fatalf("taxi %s moved %g km in %g min", id, dist, dt)
			}
		}
	}
}

func TestCabDeterminism(t *testing.T) {
	a := Cab(CabConfig{NumTaxis: 3, Days: 1, Seed: 7})
	b := Cab(CabConfig{NumTaxis: 3, Days: 1, Seed: 7})
	if len(a.Records) != len(b.Records) {
		t.Fatal("same seed, different record count")
	}
	for i := range a.Records {
		if a.Records[i] != b.Records[i] {
			t.Fatal("same seed, different records")
		}
	}
	c := Cab(CabConfig{NumTaxis: 3, Days: 1, Seed: 8})
	if len(c.Records) == len(a.Records) {
		same := true
		for i := range a.Records {
			if a.Records[i] != c.Records[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical datasets")
		}
	}
}

func TestSMShape(t *testing.T) {
	d := smallSM()
	if err := d.Validate(); err != nil {
		t.Fatalf("invalid sm dataset: %v", err)
	}
	if got := len(d.Entities()); got != 200 {
		t.Fatalf("entities = %d, want 200", got)
	}
	avg := AvgRecordsPerEntity(&d)
	if avg < 12 || avg > 30 {
		t.Errorf("avg records per user = %g, want ~20", avg)
	}
}

func TestSMGlobalSpread(t *testing.T) {
	d := smallSM()
	// Users should span multiple continents: count distinct coarse cells.
	cells := make(map[geo.CellID]bool)
	for _, r := range d.Records {
		cells[geo.CellIDFromLatLngLevel(r.LatLng, 4)] = true
	}
	if len(cells) < 8 {
		t.Errorf("SM data concentrated in %d coarse cells, want global spread", len(cells))
	}
}

func TestSMUsersAreHabitual(t *testing.T) {
	// A user's records should revisit a small POI set, not wander: the
	// median user has few distinct level-15 cells relative to records.
	d := smallSM()
	byE := d.ByEntity()
	habitual := 0
	total := 0
	for _, recs := range byE {
		if len(recs) < 8 {
			continue
		}
		cells := make(map[geo.CellID]bool)
		for _, r := range recs {
			cells[geo.CellIDFromLatLngLevel(r.LatLng, 15)] = true
		}
		total++
		if len(cells) <= len(recs) {
			habitual++
		}
	}
	if total == 0 {
		t.Skip("no users with enough records")
	}
	if float64(habitual)/float64(total) < 0.9 {
		t.Errorf("only %d/%d users look habitual", habitual, total)
	}
}

func TestPoissonMean(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for _, lambda := range []float64{0.5, 3, 12, 80} {
		var sum float64
		const n = 4000
		for i := 0; i < n; i++ {
			sum += float64(poisson(r, lambda))
		}
		mean := sum / n
		if math.Abs(mean-lambda) > lambda*0.15+0.2 {
			t.Errorf("poisson(%g) sample mean = %g", lambda, mean)
		}
	}
	if poisson(r, 0) != 0 {
		t.Error("poisson(0) must be 0")
	}
}

func TestZipfIndexSkewed(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	z := newZipfTable(10)
	counts := make([]int, 10)
	for i := 0; i < 20000; i++ {
		counts[z.draw(r)]++
	}
	if counts[0] <= counts[9] {
		t.Errorf("zipf not skewed: first=%d last=%d", counts[0], counts[9])
	}
	for i, c := range counts {
		if c == 0 {
			t.Errorf("index %d never drawn", i)
		}
	}
	if newZipfTable(1).draw(r) != 0 || newZipfTable(0).draw(r) != 0 {
		t.Error("degenerate n should return 0")
	}
}

// zipfIndexLoop is the zipf draw that summed the harmonic weights twice
// per call, once for the total and once up to the index drawn. It is the
// oracle of the table.
func zipfIndexLoop(r *rand.Rand, n int) int {
	if n <= 1 {
		return 0
	}
	var norm float64
	for i := 1; i <= n; i++ {
		norm += 1 / float64(i)
	}
	x := r.Float64() * norm
	var acc float64
	for i := 1; i <= n; i++ {
		acc += 1 / float64(i)
		if x <= acc {
			return i - 1
		}
	}
	return n - 1
}

// TestZipfTableMatchesLoop: the table draws the index the loop drew, from
// the same RNG state, and leaves the RNG where the loop left it.
func TestZipfTableMatchesLoop(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 8, 20, 1000} {
		z := newZipfTable(n)
		rt, rl := rand.New(rand.NewSource(int64(n))), rand.New(rand.NewSource(int64(n)))
		for k := 0; k < 5000; k++ {
			if got, want := z.draw(rt), zipfIndexLoop(rl, n); got != want {
				t.Fatalf("n %d draw %d: table %d, loop %d", n, k, got, want)
			}
		}
		if rt.Int63() != rl.Int63() {
			t.Fatalf("n %d: the table and the loop consumed different draws", n)
		}
	}
}

func TestSampleIntersectionRatio(t *testing.T) {
	src := smallCab() // 20 entities
	for _, ratio := range []float64{0.3, 0.5, 0.7, 0.9} {
		s := Sample(&src, SampleConfig{IntersectionRatio: ratio, InclusionProbE: 1, InclusionProbI: 1, Seed: 6, MinRecords: 5})
		perSide := int(math.Floor(20 / (2 - ratio)))
		wantCommon := int(math.Round(ratio * float64(perSide)))
		if s.CommonPlanned != wantCommon {
			t.Errorf("ratio %g: planned common = %d, want %d", ratio, s.CommonPlanned, wantCommon)
		}
		if len(s.E.Entities()) > perSide || len(s.I.Entities()) > perSide {
			t.Errorf("ratio %g: side sizes %d/%d exceed %d", ratio,
				len(s.E.Entities()), len(s.I.Entities()), perSide)
		}
		// With inclusion 1.0 nothing is filtered: truth = planned common.
		if len(s.Truth) != wantCommon {
			t.Errorf("ratio %g: truth size = %d, want %d", ratio, len(s.Truth), wantCommon)
		}
	}
}

func TestSampleInclusionProbThinsRecords(t *testing.T) {
	src := smallCab()
	full := Sample(&src, SampleConfig{IntersectionRatio: 0.5, InclusionProbE: 1, InclusionProbI: 1, Seed: 7})
	thin := Sample(&src, SampleConfig{IntersectionRatio: 0.5, InclusionProbE: 0.2, InclusionProbI: 0.2, Seed: 7})
	fullAvg := AvgRecordsPerEntity(&full.E)
	thinAvg := AvgRecordsPerEntity(&thin.E)
	if thinAvg > fullAvg*0.35 || thinAvg < fullAvg*0.1 {
		t.Errorf("thinned avg %g vs full %g: expected ~20%%", thinAvg, fullAvg)
	}
}

func TestSampleAnonymizesIDs(t *testing.T) {
	src := smallCab()
	s := Sample(&src, SampleConfig{Seed: 8})
	srcIDs := make(map[model.EntityID]bool)
	for _, id := range src.Entities() {
		srcIDs[id] = true
	}
	for _, id := range s.E.Entities() {
		if srcIDs[id] {
			t.Fatalf("source id %s leaked into E", id)
		}
	}
	for _, id := range s.I.Entities() {
		if srcIDs[id] {
			t.Fatalf("source id %s leaked into I", id)
		}
	}
	// E and I id spaces must be disjoint.
	eIDs := make(map[model.EntityID]bool)
	for _, id := range s.E.Entities() {
		eIDs[id] = true
	}
	for _, id := range s.I.Entities() {
		if eIDs[id] {
			t.Fatalf("id %s appears on both sides", id)
		}
	}
}

func TestSampleTruthConsistent(t *testing.T) {
	src := smallCab()
	s := Sample(&src, SampleConfig{Seed: 9})
	eEnts := make(map[model.EntityID]bool)
	for _, id := range s.E.Entities() {
		eEnts[id] = true
	}
	iEnts := make(map[model.EntityID]bool)
	for _, id := range s.I.Entities() {
		iEnts[id] = true
	}
	seenI := make(map[model.EntityID]bool)
	for e, i := range s.Truth {
		if !eEnts[e] {
			t.Errorf("truth E entity %s not in E", e)
		}
		if !iEnts[i] {
			t.Errorf("truth I entity %s not in I", i)
		}
		if seenI[i] {
			t.Errorf("truth maps two E entities to %s", i)
		}
		seenI[i] = true
	}
}

func TestSampleMinRecordsFilter(t *testing.T) {
	src := smallSM() // sparse: low inclusion will push entities under 6 records
	s := Sample(&src, SampleConfig{InclusionProbE: 0.15, InclusionProbI: 0.15, Seed: 10, MinRecords: 5})
	for id, n := range recordCounts(&s.E) {
		if n <= 5 {
			t.Fatalf("entity %s kept with %d records", id, n)
		}
	}
	for id, n := range recordCounts(&s.I) {
		if n <= 5 {
			t.Fatalf("entity %s kept with %d records", id, n)
		}
	}
}

func recordCounts(d *model.Dataset) map[model.EntityID]int {
	m := make(map[model.EntityID]int)
	for _, r := range d.Records {
		m[r.Entity]++
	}
	return m
}

func TestSampleDeterminism(t *testing.T) {
	src := smallCab()
	a := Sample(&src, SampleConfig{Seed: 11})
	b := Sample(&src, SampleConfig{Seed: 11})
	if len(a.E.Records) != len(b.E.Records) || len(a.I.Records) != len(b.I.Records) {
		t.Fatal("same seed, different sample sizes")
	}
	if len(a.Truth) != len(b.Truth) {
		t.Fatal("same seed, different truth")
	}
	for e, i := range a.Truth {
		if b.Truth[e] != i {
			t.Fatal("same seed, different truth mapping")
		}
	}
}

func TestSampleSizePerSideCap(t *testing.T) {
	src := smallCab()
	s := Sample(&src, SampleConfig{SizePerSide: 5, InclusionProbE: 1, InclusionProbI: 1, Seed: 12})
	if len(s.E.Entities()) > 5 || len(s.I.Entities()) > 5 {
		t.Errorf("size cap violated: %d / %d", len(s.E.Entities()), len(s.I.Entities()))
	}
}

func TestSortByTime(t *testing.T) {
	src := smallCab()
	sorted := SortByTime(&src)
	for i := 1; i < len(sorted.Records); i++ {
		if sorted.Records[i].Unix < sorted.Records[i-1].Unix {
			t.Fatal("not sorted by time")
		}
	}
	if len(sorted.Records) != len(src.Records) {
		t.Fatal("record count changed")
	}
}

func TestAvgRecordsPerEntityEmpty(t *testing.T) {
	d := model.Dataset{}
	if AvgRecordsPerEntity(&d) != 0 {
		t.Error("empty dataset avg should be 0")
	}
}

func BenchmarkCabGenerate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = Cab(CabConfig{NumTaxis: 20, Days: 2, MeanRecordIntervalSec: 300, Seed: int64(i)})
	}
}

func BenchmarkSMGenerate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = SM(SMConfig{NumUsers: 500, Days: 8, AvgRecords: 20, Seed: int64(i)})
	}
}
