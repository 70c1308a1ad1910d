package history

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"slim/internal/geo"
	"slim/internal/model"
)

var testWindowing = model.Windowing{Epoch: 0, WidthSeconds: 900}

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
	if got := h.NumRecords(); got != 4 {
		t.Errorf("NumRecords = %d", got)
	}
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

func TestDominatingCellSimple(t *testing.T) {
	// 3 records in one cell, 2 in another, inside windows [0, 4).
	recs := []model.Record{
		rec("a", 37.7749, -122.4194, 0),
		rec("a", 37.7749, -122.4194, 1000),
		rec("a", 37.7749, -122.4194, 2000),
		rec("a", 37.9, -122.1, 100),
		rec("a", 37.9, -122.1, 1100),
	}
	h := buildSingle(t, recs, 12)
	want := geo.CellIDFromLatLngLevel(geo.LatLng{Lat: 37.7749, Lng: -122.4194}, 12)
	got, ok := h.DominatingCell(0, 4)
	if !ok || got != want {
		t.Errorf("DominatingCell = (%v, %v), want %v", got, ok, want)
	}
	if _, ok := h.DominatingCell(100, 200); ok {
		t.Error("empty range should report ok=false")
	}
	if _, ok := h.DominatingCell(4, 4); ok {
		t.Error("degenerate range should report ok=false")
	}
}

func TestDominatingCellMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	var recs []model.Record
	for i := 0; i < 3000; i++ {
		lat := 37.5 + r.Float64()*0.5
		lng := -122.5 + r.Float64()*0.5
		unix := int64(r.Intn(900 * 512)) // windows [0, 512)
		recs = append(recs, rec("a", lat, lng, unix))
	}
	h := buildSingle(t, recs, 13)
	for trial := 0; trial < 300; trial++ {
		start := int64(r.Intn(512))
		end := start + int64(1+r.Intn(128))
		gotCell, gotOK := h.DominatingCell(start, end)
		wantCell, wantOK := h.dominatingCellNaive(start, end)
		if gotOK != wantOK || gotCell != wantCell {
			t.Fatalf("range [%d,%d): tree=(%v,%v) naive=(%v,%v)",
				start, end, gotCell, gotOK, wantCell, wantOK)
		}
	}
}

func TestDominatingCellQuickProperty(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	var recs []model.Record
	for i := 0; i < 500; i++ {
		recs = append(recs, rec("a", 37+r.Float64(), -122+r.Float64(), int64(r.Intn(900*100))))
	}
	h := buildSingle(t, recs, 11)
	f := func(s uint16, span uint8) bool {
		start := int64(s % 100)
		end := start + int64(span%64) + 1
		got, gotOK := h.DominatingCell(start, end)
		want, wantOK := h.dominatingCellNaive(start, end)
		return got == want && gotOK == wantOK
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
	want := c1
	if c2 < c1 {
		want = c2
	}
	for i := 0; i < 10; i++ {
		got, ok := h.DominatingCell(0, 1)
		if !ok || got != want {
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
	lo, hi, ok := s.WindowRange()
	if !ok || lo != 0 || hi != 1 {
		t.Errorf("WindowRange = (%d,%d,%v)", lo, hi, ok)
	}
}

func TestNormFactor(t *testing.T) {
	d := model.Dataset{Name: "s", Records: []model.Record{
		rec("big", 37.1, -122.1, 0),
		rec("big", 37.2, -122.2, 1000),
		rec("big", 37.3, -122.3, 2000),
		rec("big", 37.4, -122.4, 3000),
		rec("small", 37.1, -122.1, 0),
	}}
	s := Build(&d, testWindowing, 12)
	// avgBins = (4+1)/2 = 2.5
	if got := s.NormFactor("big", 1); math.Abs(got-4/2.5) > 1e-12 {
		t.Errorf("L(big, b=1) = %g, want 1.6", got)
	}
	if got := s.NormFactor("small", 1); math.Abs(got-1/2.5) > 1e-12 {
		t.Errorf("L(small, b=1) = %g, want 0.4", got)
	}
	// b=0 ignores history length entirely.
	if got := s.NormFactor("big", 0); got != 1 {
		t.Errorf("L(big, b=0) = %g, want 1", got)
	}
	// Halfway.
	if got := s.NormFactor("big", 0.5); math.Abs(got-(0.5+0.5*1.6)) > 1e-12 {
		t.Errorf("L(big, b=0.5) = %g", got)
	}
	// Unknown entity.
	if got := s.NormFactor("nope", 0.5); got != 1 {
		t.Errorf("L(unknown) = %g, want 1", got)
	}
}

func TestEmptyStore(t *testing.T) {
	d := model.Dataset{Name: "empty"}
	s := Build(&d, testWindowing, 12)
	if s.NumEntities() != 0 {
		t.Error("empty store should have no entities")
	}
	if _, _, ok := s.WindowRange(); ok {
		t.Error("empty store should report no window range")
	}
	if s.IDF(Bin{}) != 0 {
		t.Error("IDF on empty store should be 0")
	}
	if h := s.History("x"); h.NumBins() != 0 || h.Entity != "" {
		t.Error("missing history should be the zero History")
	}
}

func TestConcurrentDominatingCellQueries(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	var recs []model.Record
	for i := 0; i < 2000; i++ {
		recs = append(recs, rec("a", 37+r.Float64(), -122+r.Float64(), int64(r.Intn(900*256))))
	}
	h := buildSingle(t, recs, 12)
	want, _ := h.dominatingCellNaive(0, 256)
	done := make(chan bool, 8)
	for g := 0; g < 8; g++ {
		go func() {
			okAll := true
			for i := 0; i < 50; i++ {
				got, ok := h.DominatingCell(0, 256)
				okAll = okAll && ok && got == want
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

func BenchmarkDominatingCellTree(b *testing.B) {
	r := rand.New(rand.NewSource(10))
	var recs []model.Record
	for i := 0; i < 20000; i++ {
		recs = append(recs, rec("a", 37+r.Float64(), -122+r.Float64(), int64(r.Intn(900*2048))))
	}
	d := model.Dataset{Name: "b", Records: recs}
	s := Build(&d, testWindowing, 14)
	h := s.History("a")
	h.DominatingCell(0, 2048) // pre-build levels
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := int64((i * 37) % 1024)
		_, _ = h.DominatingCell(start, start+512)
	}
}

func BenchmarkDominatingCellNaive(b *testing.B) {
	r := rand.New(rand.NewSource(10))
	var recs []model.Record
	for i := 0; i < 20000; i++ {
		recs = append(recs, rec("a", 37+r.Float64(), -122+r.Float64(), int64(r.Intn(900*2048))))
	}
	d := model.Dataset{Name: "b", Records: recs}
	s := Build(&d, testWindowing, 14)
	h := s.History("a")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := int64((i * 37) % 1024)
		_, _ = h.dominatingCellNaive(start, start+512)
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
