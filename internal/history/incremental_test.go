package history

import (
	"math"
	"math/rand"
	"testing"

	"slim/internal/geo"
	"slim/internal/model"
)

// randomRecords builds a deterministic random record stream with a mix of
// point and region records across several entities.
func randomRecords(n int, seed int64) []model.Record {
	r := rand.New(rand.NewSource(seed))
	out := make([]model.Record, 0, n)
	for i := 0; i < n; i++ {
		rec := model.Record{
			Entity: model.EntityID(string(rune('a' + r.Intn(6)))),
			LatLng: geo.LatLng{
				Lat: 37.4 + r.Float64()*0.5,
				Lng: -122.6 + r.Float64()*0.5,
			},
			Unix: int64(r.Intn(900 * 200)),
		}
		if r.Float64() < 0.2 {
			rec.RadiusKm = 1 + 3*r.Float64()
		}
		out = append(out, rec)
	}
	return out
}

// assertStoresEqual compares every observable of two stores.
func assertStoresEqual(t *testing.T, got, want *Store) {
	t.Helper()
	if got.NumEntities() != want.NumEntities() {
		t.Fatalf("entities: %d vs %d", got.NumEntities(), want.NumEntities())
	}
	for i, e := range want.Entities() {
		if got.Entities()[i] != e {
			t.Fatalf("entity order differs at %d: %s vs %s", i, got.Entities()[i], e)
		}
	}
	if math.Abs(got.AvgBins()-want.AvgBins()) > 1e-9 {
		t.Fatalf("avgBins: %g vs %g", got.AvgBins(), want.AvgBins())
	}
	for _, e := range want.Entities() {
		hw := want.History(e)
		hg := got.History(e)
		if hg.NumBins() != hw.NumBins() {
			t.Fatalf("entity %s: bins %d vs %d", e, hg.NumBins(), hw.NumBins())
		}
		var wantBins []Bin
		var wantWeights []float64
		hw.Bins(func(b Bin, n float64) {
			wantBins = append(wantBins, b)
			wantWeights = append(wantWeights, n)
		})
		idx := 0
		hg.Bins(func(b Bin, n float64) {
			if idx >= len(wantBins) {
				t.Fatalf("entity %s: extra bin %v", e, b)
			}
			if b != wantBins[idx] || math.Abs(n-wantWeights[idx]) > 1e-9 {
				t.Fatalf("entity %s bin %d: (%v,%g) vs (%v,%g)",
					e, idx, b, n, wantBins[idx], wantWeights[idx])
			}
			// IDF must agree for every bin.
			if math.Abs(got.IDF(b)-want.IDF(b)) > 1e-12 {
				t.Fatalf("IDF(%v): %g vs %g", b, got.IDF(b), want.IDF(b))
			}
			idx++
		})
		if idx != len(wantBins) {
			t.Fatalf("entity %s: missing bins: %d vs %d", e, idx, len(wantBins))
		}
	}
}

func TestIncrementalAddMatchesBuild(t *testing.T) {
	recs := randomRecords(600, 1)
	split := 350

	// Reference: everything built at once.
	full := Build(&model.Dataset{Name: "f", Records: recs}, testWindowing, 13)

	// Incremental: build the prefix, Add the suffix one record at a time.
	inc := Build(&model.Dataset{Name: "i", Records: recs[:split]}, testWindowing, 13)
	for _, r := range recs[split:] {
		inc.Add(r)
	}
	assertStoresEqual(t, inc, full)
}

// TestIncrementalAddGrowsColumnsByAQuarter streams records into a built
// store and holds every entity's segment to at most a quarter (plus one)
// of room beyond what it uses after each Add: a full segment moves with a
// quarter more room, where append would double a short one. A built
// segment has no room at all.
func TestIncrementalAddGrowsColumnsByAQuarter(t *testing.T) {
	recs := randomRecords(2000, 3)
	s := Build(&model.Dataset{Name: "s", Records: recs[:200]}, testWindowing, 13)
	for ord, sg := range s.segs {
		if sg.binRoom != sg.nBin {
			t.Fatalf("built ordinal %d: room %d for %d bins", ord, sg.binRoom, sg.nBin)
		}
	}
	for i, r := range recs[200:] {
		sg := s.segs[s.Add(r)]
		if sg.nBin > sg.binRoom || sg.binRoom > sg.nBin+sg.nBin/4+1 {
			t.Fatalf("add %d: %s's segment uses %d bins of %d", i, r.Entity, sg.nBin, sg.binRoom)
		}
	}
}

func TestIncrementalAddFromEmpty(t *testing.T) {
	recs := randomRecords(200, 2)
	full := Build(&model.Dataset{Name: "f", Records: recs}, testWindowing, 12)
	inc := Build(&model.Dataset{Name: "i"}, testWindowing, 12)
	for _, r := range recs {
		inc.Add(r)
	}
	assertStoresEqual(t, inc, full)
}

func TestIncrementalAddInvalidatesDominatingCells(t *testing.T) {
	// Query first, then Add records that change the dominating cell of the
	// same two-hour window; the query must see the new answer.
	wnd := model.Windowing{WidthSeconds: 7200}
	base := []model.Record{
		rec("a", 37.7749, -122.4194, 0),
		rec("a", 37.7749, -122.4194, 950),
	}
	s := Build(&model.Dataset{Name: "d", Records: base}, wnd, 12)
	h := s.History("a")
	if before := h.dominatingCellAt(0); before != geo.CellIDFromLatLngLevel(geo.LatLng{Lat: 37.7749, Lng: -122.4194}, 12) {
		t.Fatalf("unexpected initial dominating cell %v", before)
	}
	// Three records in a different cell now dominate.
	for k := 0; k < 3; k++ {
		s.Add(rec("a", 37.5, -122.1, int64(1900+k*100)))
	}
	h = s.History("a") // a History is valid until the next Add
	after := h.dominatingCellAt(0)
	want := geo.CellIDFromLatLngLevel(geo.LatLng{Lat: 37.5, Lng: -122.1}, 12)
	if len(h.Windows()) != 1 || after != want {
		t.Fatalf("dominating cell after Add = %v, want %v (stale cache?)", after, want)
	}
	// And the naive scan agrees.
	if naive, _ := h.dominatingCellNaive(0); naive != after {
		t.Fatalf("naive %v != dominating cell %v", naive, after)
	}
}

func TestIncrementalAddNewEntityKeepsOrder(t *testing.T) {
	s := Build(&model.Dataset{Name: "d", Records: []model.Record{
		rec("b", 37.7, -122.4, 0),
		rec("d", 37.7, -122.4, 0),
	}}, testWindowing, 12)
	s.Add(rec("c", 37.7, -122.4, 100))
	s.Add(rec("a", 37.7, -122.4, 200))
	got := s.Entities()
	want := []model.EntityID{"a", "b", "c", "d"}
	if len(got) != len(want) {
		t.Fatalf("entities = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("entities = %v, want %v", got, want)
		}
	}
}
