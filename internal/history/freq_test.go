package history

import (
	"cmp"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"slim/internal/datagen"
	"slim/internal/geo"
	"slim/internal/model"
)

// sortBuildFreqIndex is the build newFreqIndex replaced, kept as its
// oracle: every bin gathered into one buffer, its cell as the store's
// dense index, one two-key sort, one fold.
func sortBuildFreqIndex(s *Store) *freqIndex {
	type bin struct {
		win  int64
		cell int32
	}
	var bins []bin
	for _, e := range s.Entities() {
		h := s.History(e)
		h.Bins(func(b Bin, _ float64) { bins = append(bins, bin{b.Window, s.cellIndex[b.Cell]}) })
	}
	slices.SortFunc(bins, func(a, b bin) int {
		return cmp.Or(cmp.Compare(a.win, b.win), cmp.Compare(a.cell, b.cell))
	})
	f := &freqIndex{cols: []freqWindow{}}
	for i, b := range bins {
		if i == 0 || b.win != bins[i-1].win {
			f.windows = append(f.windows, b.win)
			f.cols = append(f.cols, freqWindow{})
		}
		w := &f.cols[len(f.cols)-1]
		if n := len(w.cells); n > 0 && w.cells[n-1] == b.cell {
			w.df[n-1]++
		} else {
			w.cells = append(w.cells, b.cell)
			w.df = append(w.df, 1)
		}
		f.maxDF = max(f.maxDF, w.df[len(w.df)-1])
	}
	return f
}

// freqTestSide draws an SM side the way the benchmark does and turns every
// seventh record into a region record, so windows hold multi-cell covers.
func freqTestSide() model.Dataset {
	ground := datagen.SM(datagen.SMConfig{NumUsers: 600, Seed: 11})
	e := datagen.Sample(&ground, datagen.SampleConfig{
		IntersectionRatio: 0.5, InclusionProbE: 0.5, InclusionProbI: 0.5, Seed: 12,
	}).E
	for i := range e.Records {
		if i%7 == 0 {
			e.Records[i].RadiusKm = 0.5 + float64(i%5)
		}
	}
	return e
}

// TestFreqIndexWindowBuildEqualsSortBuild holds the per-window build to the
// one-sort build it replaced — same windows, same cells, same counts, same
// column lengths — and checks that the index keeps absorbing Store.Add:
// after a stream of further records (new windows before, between and after
// the held ones included) it still equals a rebuild from scratch.
func TestFreqIndexWindowBuildEqualsSortBuild(t *testing.T) {
	e := freqTestSide()
	w := model.Windowing{WidthSeconds: 900}
	s := Build(&e, w, 12)
	if len(s.freq.windows) < 100 || s.totalBins < 3000 {
		t.Fatalf("fixture too small to mean anything: %d windows, %d bins", len(s.freq.windows), s.totalBins)
	}
	if want := sortBuildFreqIndex(s); !reflect.DeepEqual(s.freq, want) {
		t.Fatal("per-window build differs from the sort build")
	}

	rng := rand.New(rand.NewSource(13))
	lo, hi := s.freq.windows[0], s.freq.windows[len(s.freq.windows)-1]
	for k := 0; k < 400; k++ {
		r := e.Records[rng.Intn(len(e.Records))]
		switch rng.Intn(4) {
		case 0: // another entity's place and time: df moves, or a cell is inserted
			r.Entity = e.Records[rng.Intn(len(e.Records))].Entity
		case 1: // a window of its own, on either side of the range
			lo, hi = lo-3, hi+3
			r.Unix = []int64{lo, hi}[rng.Intn(2)] * w.WidthSeconds
		case 2:
			r.LatLng = geo.LatLng{Lat: r.LatLng.Lat + 0.3, Lng: r.LatLng.Lng - 0.3}
		}
		s.Add(r)
	}
	if want := sortBuildFreqIndex(s); !reflect.DeepEqual(s.freq, want) {
		t.Fatal("index after Store.Add differs from a rebuild")
	}
	if got := newFreqIndex(s); !reflect.DeepEqual(got, s.freq) {
		t.Fatal("per-window rebuild differs from the index Store.Add maintained")
	}
}

// TestFreqIndexSparseWindows builds over two records 130 years apart: the
// index is sized by the windows occupied, not by the range they span.
func TestFreqIndexSparseWindows(t *testing.T) {
	d := model.Dataset{Name: "D", Records: []model.Record{
		{Entity: "a", LatLng: geo.LatLng{Lat: 37.77, Lng: -122.42}, Unix: 1},
		{Entity: "b", LatLng: geo.LatLng{Lat: 37.77, Lng: -122.42}, Unix: 4102444800}, // 2100-01-01
	}}
	s := Build(&d, model.Windowing{WidthSeconds: 900}, 12)
	if got := len(s.freq.windows); got != 2 {
		t.Fatalf("%d windows indexed, want 2", got)
	}
	if want := sortBuildFreqIndex(s); !reflect.DeepEqual(s.freq, want) {
		t.Fatal("per-window build differs from the sort build")
	}
}
