package history

import (
	"math"
	"testing"

	"slim/internal/geo"
	"slim/internal/model"
)

func regionRec(e string, lat, lng float64, unix int64, radiusKm float64) model.Record {
	return model.Record{
		Entity:   model.EntityID(e),
		LatLng:   geo.LatLng{Lat: lat, Lng: lng},
		Unix:     unix,
		RadiusKm: radiusKm,
	}
}

func TestRegionRecordSpreadsWeight(t *testing.T) {
	// A region record with a 5km radius at level 13 (~2.4km cells) must
	// spread over several cells whose weights sum to 1.
	d := model.Dataset{Name: "r", Records: []model.Record{
		regionRec("a", 37.7749, -122.4194, 100, 5),
	}}
	s := Build(&d, testWindowing, 13)
	h := s.History("a")
	cells := cellsAt(h, 0)
	if len(cells) < 4 {
		t.Fatalf("region spread over %d cells, want several", len(cells))
	}
	var sum float64
	var first float64
	i := 0
	for _, w := range cells {
		sum += w
		if i == 0 {
			first = w
		} else if w != first {
			t.Errorf("weights not equal: %g vs %g", w, first)
		}
		i++
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("region weights sum to %g, want 1", sum)
	}
	if h.NumBins() != len(cells) {
		t.Errorf("NumBins = %d, want %d (one per covered cell)", h.NumBins(), len(cells))
	}
}

func TestRegionRecordDominatingCell(t *testing.T) {
	// Three point records in one cell beat one region record spread over
	// many cells, even though the region touches that cell too.
	var recs []model.Record
	for k := 0; k < 3; k++ {
		recs = append(recs, regionRec("a", 37.7749, -122.4194, int64(k*100), 0))
	}
	recs = append(recs, regionRec("a", 37.80, -122.40, 400, 6))
	d := model.Dataset{Name: "r", Records: recs}
	s := Build(&d, model.Windowing{WidthSeconds: 3600}, 13)
	h := s.History("a")
	got := h.DominatingCellAt(0)
	want := geo.CellIDFromLatLngLevel(geo.LatLng{Lat: 37.7749, Lng: -122.4194}, 13)
	if len(h.Windows()) != 1 || got != want {
		t.Errorf("dominating cell = %v, want the 3-point cell %v", got, want)
	}
}

func TestRegionAndPointMix(t *testing.T) {
	// IDF must see a region entity as "present" in every covered bin.
	d := model.Dataset{Name: "r", Records: []model.Record{
		regionRec("region", 37.7749, -122.4194, 100, 4),
		regionRec("point", 37.7749, -122.4194, 100, 0),
		regionRec("far", 48.85, 2.35, 100, 0),
	}}
	s := Build(&d, testWindowing, 13)
	pointCell := geo.CellIDFromLatLngLevel(geo.LatLng{Lat: 37.7749, Lng: -122.4194}, 13)
	b := Bin{Window: 0, Cell: pointCell}
	// Both "region" and "point" are in this bin → idf = ln(3/2).
	if got, want := s.IDF(b), math.Log(1.5); math.Abs(got-want) > 1e-12 {
		t.Errorf("IDF with region presence = %g, want %g", got, want)
	}
}

func TestRegionZeroRadiusIsPoint(t *testing.T) {
	p := model.Dataset{Name: "p", Records: []model.Record{
		regionRec("a", 37.7749, -122.4194, 100, 0),
	}}
	s := Build(&p, testWindowing, 13)
	h := s.History("a")
	cells := cellsAt(h, 0)
	if len(cells) != 1 {
		t.Fatalf("point record spread over %d cells", len(cells))
	}
	for _, w := range cells {
		if w != 1 {
			t.Errorf("point weight = %g, want 1", w)
		}
	}
}
