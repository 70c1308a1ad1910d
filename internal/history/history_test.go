package history

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"slim/internal/geo"
	"slim/internal/model"
)

var testWindowing = model.Windowing{WidthSeconds: 900}

func rec(e string, lat, lng float64, unix int64) model.Record {
	return model.Record{Entity: model.EntityID(e), LatLng: geo.LatLng{Lat: lat, Lng: lng}, Unix: unix}
}

func buildSingle(t *testing.T, recs []model.Record, level int) History {
	t.Helper()
	d := model.Dataset{Name: "t", Records: recs}
	s := Build(&d, testWindowing, level)
	if s.NumEntities() != 1 {
		t.Fatalf("expected one entity, got %d", s.NumEntities())
	}
	return s.History(s.Entities()[0])
}

// cellsAt rebuilds a window's cell→record-weight map from WindowBins (nil
// if the entity has no records there): the form the tests' reference
// walks read.
func cellsAt(h History, window int64) map[geo.CellID]float64 {
	cells, counts := h.WindowBins(window)
	if len(cells) == 0 {
		return nil
	}
	m := make(map[geo.CellID]float64, len(cells))
	for i, c := range cells {
		m[c] = counts[i]
	}
	return m
}

func TestHistoryBasicShape(t *testing.T) {
	recs := []model.Record{
		rec("a", 37.7749, -122.4194, 0),    // window 0
		rec("a", 37.7749, -122.4194, 100),  // window 0, same cell
		rec("a", 37.9000, -122.3000, 950),  // window 1, different cell
		rec("a", 37.7749, -122.4194, 1900), // window 2
	}
	h := buildSingle(t, recs, 12)
	if got := h.NumBins(); got != 3 {
		t.Errorf("NumBins = %d, want 3", got)
	}
	wins := h.Windows()
	if len(wins) != 3 || wins[0] != 0 || wins[1] != 1 || wins[2] != 2 {
		t.Errorf("Windows = %v", wins)
	}
	cells := cellsAt(h, 0)
	if len(cells) != 1 {
		t.Fatalf("window 0 cells = %d, want 1", len(cells))
	}
	for _, n := range cells {
		if n != 2 {
			t.Errorf("window 0 weight = %g, want 2", n)
		}
	}
	if cellsAt(h, 99) != nil {
		t.Error("missing window should return nil")
	}
}

func TestBinsDeterministicOrder(t *testing.T) {
	recs := []model.Record{
		rec("a", 37.77, -122.41, 0),
		rec("a", 37.99, -122.11, 10),
		rec("a", 37.55, -122.31, 950),
	}
	h := buildSingle(t, recs, 12)
	var first []Bin
	h.Bins(func(b Bin, _ float64) { first = append(first, b) })
	for i := 0; i < 5; i++ {
		var again []Bin
		h.Bins(func(b Bin, _ float64) { again = append(again, b) })
		if len(again) != len(first) {
			t.Fatal("bin count changed")
		}
		for j := range first {
			if first[j] != again[j] {
				t.Fatal("bin order is not deterministic")
			}
		}
	}
	for i := 1; i < len(first); i++ {
		if first[i].Window < first[i-1].Window {
			t.Fatal("bins not sorted by window")
		}
	}
}

// windowOf returns the position of a window in a history's window list.
func windowOf(t *testing.T, h History, window int64) int {
	t.Helper()
	k, ok := slices.BinarySearch(h.Windows(), window)
	if !ok {
		t.Fatalf("window %d not in the history", window)
	}
	return k
}

func TestDominatingCellSimple(t *testing.T) {
	// 3 records in one cell, 2 in another, inside one hour-wide window.
	recs := []model.Record{
		rec("a", 37.7749, -122.4194, 0),
		rec("a", 37.7749, -122.4194, 1000),
		rec("a", 37.7749, -122.4194, 2000),
		rec("a", 37.9, -122.1, 100),
		rec("a", 37.9, -122.1, 1100),
	}
	s := Build(&model.Dataset{Name: "t", Records: recs}, model.Windowing{WidthSeconds: 3600}, 12)
	h := s.History("a")
	want := geo.CellIDFromLatLngLevel(geo.LatLng{Lat: 37.7749, Lng: -122.4194}, 12)
	if got := h.dominatingCellAt(0); len(h.Windows()) != 1 || got != want {
		t.Errorf("dominating cell of window 0 = %v over %d windows, want %v over one", got, len(h.Windows()), want)
	}
}

// randomHistory draws n records of one entity over windows [0, windows).
func randomHistory(t *testing.T, r *rand.Rand, n, windows, level int) History {
	var recs []model.Record
	for i := 0; i < n; i++ {
		recs = append(recs, rec("a", 37.5+r.Float64()*0.5, -122.5+r.Float64()*0.5, int64(r.Intn(900*windows))))
	}
	return buildSingle(t, recs, level)
}

func TestDominatingCellMatchesNaive(t *testing.T) {
	h := randomHistory(t, rand.New(rand.NewSource(42)), 3000, 64, 13)
	for k, win := range h.Windows() {
		want, _ := h.dominatingCellNaive(win)
		if got := h.dominatingCellAt(k); got != want {
			t.Fatalf("window %d: dominating cell %v, naive=%v", win, got, want)
		}
	}
}

func TestDominatingCellQuickProperty(t *testing.T) {
	h := randomHistory(t, rand.New(rand.NewSource(7)), 500, 20, 11)
	f := func(s uint16) bool {
		k := int(s) % len(h.Windows())
		want, ok := h.dominatingCellNaive(h.Windows()[k])
		return ok && h.dominatingCellAt(k) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestDominatingCellTieBreak(t *testing.T) {
	// Two cells with identical counts: smaller id must win, always.
	recs := []model.Record{
		rec("a", 37.7749, -122.4194, 0),
		rec("a", 37.9, -122.1, 100),
	}
	h := buildSingle(t, recs, 12)
	c1 := geo.CellIDFromLatLngLevel(geo.LatLng{Lat: 37.7749, Lng: -122.4194}, 12)
	c2 := geo.CellIDFromLatLngLevel(geo.LatLng{Lat: 37.9, Lng: -122.1}, 12)
	want := min(c1, c2)
	for i := 0; i < 10; i++ {
		if got := h.dominatingCellAt(windowOf(t, h, 0)); got != want {
			t.Fatalf("tie-break not deterministic: got %v want %v", got, want)
		}
	}
}

func TestStoreStatistics(t *testing.T) {
	d := model.Dataset{Name: "s", Records: []model.Record{
		rec("a", 37.7749, -122.4194, 0),
		rec("a", 37.9, -122.1, 950),
		rec("b", 37.7749, -122.4194, 10),
		rec("c", 50.0, 8.0, 20),
	}}
	s := Build(&d, testWindowing, 12)
	if s.NumEntities() != 3 {
		t.Fatalf("NumEntities = %d", s.NumEntities())
	}
	if got := s.Entities(); got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Errorf("Entities = %v", got)
	}
	// a has 2 bins, b and c have 1 → avg 4/3.
	if math.Abs(s.AvgBins()-4.0/3) > 1e-12 {
		t.Errorf("AvgBins = %g", s.AvgBins())
	}
	// The SF cell in window 0 is shared by a and b → idf = ln(3/2).
	sfBin := Bin{Window: 0, Cell: geo.CellIDFromLatLngLevel(geo.LatLng{Lat: 37.7749, Lng: -122.4194}, 12)}
	if got := s.IDF(sfBin); math.Abs(got-math.Log(1.5)) > 1e-12 {
		t.Errorf("IDF shared bin = %g, want ln(1.5)", got)
	}
	// c's bin is unique → idf = ln(3).
	cBin := Bin{Window: 0, Cell: geo.CellIDFromLatLngLevel(geo.LatLng{Lat: 50, Lng: 8}, 12)}
	if got := s.IDF(cBin); math.Abs(got-math.Log(3)) > 1e-12 {
		t.Errorf("IDF unique bin = %g, want ln(3)", got)
	}
	// Unknown bin gets the maximum weight.
	unknown := Bin{Window: 77, Cell: 12345}
	if got := s.IDF(unknown); math.Abs(got-math.Log(3)) > 1e-12 {
		t.Errorf("IDF unknown bin = %g, want ln(3)", got)
	}
}

// AvgBins returns the average number of time-location bins per history,
// the avgBins that NormFactorAt divides by.
func (s *Store) AvgBins() float64 { return s.avgBins }

func TestNormFactor(t *testing.T) {
	d := model.Dataset{Name: "s", Records: []model.Record{
		rec("big", 37.1, -122.1, 0),
		rec("big", 37.2, -122.2, 1000),
		rec("big", 37.3, -122.3, 2000),
		rec("big", 37.4, -122.4, 3000),
		rec("small", 37.1, -122.1, 0),
	}}
	s := Build(&d, testWindowing, 12)
	big, _ := s.Ordinals().Lookup("big")
	small, _ := s.Ordinals().Lookup("small")
	// avgBins = (4+1)/2 = 2.5
	if got := s.NormFactorAt(big, 1); math.Abs(got-4/2.5) > 1e-12 {
		t.Errorf("L(big, b=1) = %g, want 1.6", got)
	}
	if got := s.NormFactorAt(small, 1); math.Abs(got-1/2.5) > 1e-12 {
		t.Errorf("L(small, b=1) = %g, want 0.4", got)
	}
	// b=0 ignores history length entirely.
	if got := s.NormFactorAt(big, 0); got != 1 {
		t.Errorf("L(big, b=0) = %g, want 1", got)
	}
	// Halfway.
	if got := s.NormFactorAt(big, 0.5); math.Abs(got-(0.5+0.5*1.6)) > 1e-12 {
		t.Errorf("L(big, b=0.5) = %g", got)
	}
	// An ordinal without a history.
	if got := s.NormFactorAt(uint32(s.Ordinals().Len()), 0.5); got != 1 {
		t.Errorf("L(unknown) = %g, want 1", got)
	}
}

func TestEmptyStore(t *testing.T) {
	d := model.Dataset{Name: "empty"}
	s := Build(&d, testWindowing, 12)
	if s.NumEntities() != 0 {
		t.Error("empty store should have no entities")
	}
	if s.IDF(Bin{}) != 0 {
		t.Error("IDF on empty store should be 0")
	}
	if h := s.History("x"); h.NumBins() != 0 || h.Entity != "" {
		t.Error("missing history should be the zero History")
	}
}

func TestConcurrentDominatingCellQueries(t *testing.T) {
	h := randomHistory(t, rand.New(rand.NewSource(9)), 2000, 16, 12)
	want := make([]geo.CellID, len(h.Windows()))
	for k, win := range h.Windows() {
		want[k], _ = h.dominatingCellNaive(win)
	}
	done := make(chan bool, 8)
	for g := 0; g < 8; g++ {
		go func() {
			okAll := true
			for i := 0; i < 50; i++ {
				for k := range want {
					okAll = okAll && h.dominatingCellAt(k) == want[k]
				}
			}
			done <- okAll
		}()
	}
	for g := 0; g < 8; g++ {
		if !<-done {
			t.Fatal("concurrent dominating-cell query returned a wrong answer")
		}
	}
}

func BenchmarkBuildStore(b *testing.B) {
	r := rand.New(rand.NewSource(11))
	var recs []model.Record
	for e := 0; e < 50; e++ {
		id := model.EntityID(string(rune('A' + e%26)))
		for i := 0; i < 400; i++ {
			recs = append(recs, model.Record{
				Entity: id,
				LatLng: geo.LatLng{Lat: 37 + r.Float64(), Lng: -122 + r.Float64()},
				Unix:   int64(r.Intn(900 * 2048)),
			})
		}
	}
	d := model.Dataset{Name: "b", Records: recs}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Build(&d, testWindowing, 12)
	}
}
