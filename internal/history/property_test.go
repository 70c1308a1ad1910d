package history_test

// Model-based property test of the columnar history: random Build + Add
// interleavings are mirrored into a plain map-of-maps reference (the
// representation the columns replaced), and every observable of the store
// is held to it — bit-exactly, since both sides sum a bin's weights in
// record order and a range's weights in window order.

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"slim/internal/geo"
	"slim/internal/history"
	"slim/internal/model"
)

const refLevel = 13

var refWindowing = model.Windowing{WidthSeconds: 900}

// refStore is the reference model: entity → window → cell → weight.
type refStore struct {
	leaves map[model.EntityID]map[int64]map[geo.CellID]float64
	epoch  uint64
}

func newRefStore() *refStore {
	return &refStore{leaves: map[model.EntityID]map[int64]map[geo.CellID]float64{}}
}

// add mirrors one record into the model. counted says whether the record
// arrives through Store.Add (which moves Epoch) or Build (which starts it
// at zero).
func (m *refStore) add(r model.Record, counted bool) {
	wins := m.leaves[r.Entity]
	if wins == nil {
		wins = map[int64]map[geo.CellID]float64{}
		m.leaves[r.Entity] = wins
		if counted {
			m.epoch++
		}
	}
	win := refWindowing.Window(r.Unix)
	cells := wins[win]
	if cells == nil {
		cells = map[geo.CellID]float64{}
		wins[win] = cells
	}
	cover := []geo.CellID{geo.CellIDFromLatLngLevel(r.LatLng, refLevel)}
	if r.RadiusKm > 0 {
		cover = geo.CoverCapCells(r.LatLng, r.RadiusKm, refLevel)
	}
	for _, c := range cover {
		if _, ok := cells[c]; !ok && counted {
			m.epoch++
		}
		cells[c] += 1 / float64(len(cover))
	}
}

// binEntities counts, per bin, the entities holding it: the oracle of the
// document frequencies a store's compile counts.
func (m *refStore) binEntities() map[history.Bin]int {
	out := map[history.Bin]int{}
	for _, wins := range m.leaves {
		for w, cells := range wins {
			for c := range cells {
				out[history.Bin{Window: w, Cell: c}]++
			}
		}
	}
	return out
}

func sortedKeys[K int64 | geo.CellID | model.EntityID, V any](m map[K]V) []K {
	out := make([]K, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// dominating is the naive scan: per-cell sums accumulated in window order,
// ties toward the smaller cell id.
func (m *refStore) dominating(e model.EntityID, start, end int64) (geo.CellID, bool) {
	sums := map[geo.CellID]float64{}
	for _, w := range sortedKeys(m.leaves[e]) {
		if w < start || w >= end {
			continue
		}
		for c, n := range m.leaves[e][w] {
			sums[c] += n
		}
	}
	var best geo.CellID
	bestN := -1.0
	for c, n := range sums {
		if n > bestN || (n == bestN && c < best) {
			best, bestN = c, n
		}
	}
	return best, len(sums) > 0
}

// check holds every observable of the store to the model.
func (m *refStore) check(t *testing.T, step string, s *history.Store, rng *rand.Rand) {
	t.Helper()
	ents := sortedKeys(m.leaves)
	if !slices.Equal(s.Entities(), ents) {
		t.Fatalf("%s: Entities = %v, want %v", step, s.Entities(), ents)
	}
	if s.Epoch() != m.epoch {
		t.Fatalf("%s: Epoch = %d, want %d", step, s.Epoch(), m.epoch)
	}
	binEntities := m.binEntities()
	var maxW int64 // at or past every window held, so none holds maxW+1
	totalBins := 0
	for _, e := range ents {
		for w, cells := range m.leaves[e] {
			maxW = max(maxW, w)
			totalBins += len(cells)
		}
	}
	if len(ents) > 0 {
		if want := float64(totalBins) / float64(len(ents)); s.AvgBins() != want {
			t.Fatalf("%s: AvgBins = %g, want %g", step, s.AvgBins(), want)
		}
	}
	for b, n := range binEntities {
		if got, want := s.IDF(b), math.Log(float64(len(ents))/float64(n)); got != want {
			t.Fatalf("%s: IDF(%v) = %g, want %g", step, b, got, want)
		}
	}

	for _, e := range ents {
		h, ref := s.History(e), m.leaves[e]
		wins := sortedKeys(ref)
		if !slices.Equal(h.Windows(), wins) {
			t.Fatalf("%s: %s Windows = %v, want %v", step, e, h.Windows(), wins)
		}
		var wantBins []history.Bin
		var wantWeights []float64
		for _, w := range wins {
			cells, counts := h.WindowBins(w)
			refCells := sortedKeys(ref[w])
			if !slices.Equal(cells, refCells) {
				t.Fatalf("%s: %s WindowBins(%d) cells = %v, want %v", step, e, w, cells, refCells)
			}
			for i, c := range refCells {
				if counts[i] != ref[w][c] {
					t.Fatalf("%s: %s bin (%d,%v) weight %g, want %g", step, e, w, c, counts[i], ref[w][c])
				}
				wantBins = append(wantBins, history.Bin{Window: w, Cell: c})
				wantWeights = append(wantWeights, ref[w][c])
			}
		}
		var gotBins []history.Bin
		var gotWeights []float64
		h.Bins(func(b history.Bin, n float64) {
			gotBins = append(gotBins, b)
			gotWeights = append(gotWeights, n)
		})
		if !slices.Equal(gotBins, wantBins) || !slices.Equal(gotWeights, wantWeights) {
			t.Fatalf("%s: %s Bins = %v %v, want %v %v", step, e, gotBins, gotWeights, wantBins, wantWeights)
		}
		if h.NumBins() != len(wantBins) {
			t.Fatalf("%s: %s NumBins = %d, want %d", step, e, h.NumBins(), len(wantBins))
		}
		if cells, _ := h.WindowBins(maxW + 1); cells != nil {
			t.Fatalf("%s: %s WindowBins of an absent window = %v", step, e, cells)
		}

		// Dominating-cell queries: every window against the naive scan.
		h.EachWindow(func(win int64, lo, hi int) {
			want, _ := m.dominating(e, win, win+1)
			if got := h.DominatingCell(lo, hi); got != want {
				t.Fatalf("%s: %s dominating cell of window %d = %v, naive %v", step, e, win, got, want)
			}
		})
	}
}

func TestColumnarHistoryMatchesMapModel(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			record := func() model.Record {
				r := model.Record{
					// A small pool, so adds hit new entities early and
					// existing ones (and existing bins) later.
					Entity: model.EntityID(fmt.Sprintf("u%02d", rng.Intn(9))),
					// A coarse position lattice makes duplicate bins common.
					LatLng: geo.LatLng{Lat: 37.5 + 0.02*float64(rng.Intn(12)), Lng: -122.5 + 0.02*float64(rng.Intn(12))},
					// Windows [-50, 70): Unix 0 sits inside the span.
					Unix: int64(rng.Intn(900*120)) - 900*50,
				}
				if rng.Intn(4) == 0 {
					r.RadiusKm = 0.5 + 4*rng.Float64()
				}
				return r
			}

			m := newRefStore()
			var initial []model.Record
			for k := rng.Intn(3) * 60; k > 0; k-- { // a third of the seeds start empty
				initial = append(initial, record())
			}
			d := model.Dataset{Name: "p", Records: initial}
			// Build folds an entity's records in ByEntity's order.
			byEntity := d.ByEntity()
			for _, e := range d.Entities() {
				for _, r := range byEntity[e] {
					m.add(r, false)
				}
			}
			g := d.GroupByEntity(-1)
			s := history.BuildGrouped(&g, refWindowing, refLevel, 1+rng.Intn(4))
			m.check(t, "after Build", s, rng)

			for k := 0; k < 240; k++ {
				r := record()
				s.Add(r)
				m.add(r, true)
				if k%20 == 19 {
					m.check(t, fmt.Sprintf("after Add %d", k), s, rng)
				}
			}
		})
	}
}

// TestFrequencyIndexMatchesMapOracle holds the document frequencies a
// compile counts from the store's columns to a map[Bin]int: under seeded
// streams of point and region records whose windows keep opening before
// the first and after the last one held, with the store now and then
// rebuilt by BuildGrouped from everything seen so far and the stream
// continuing on the rebuilt store, Store.IDF must equal log(|U|/df) for
// every bin some entity holds and log(|U|) for bins none does — in a
// window the store holds, in a gap between its windows, and on either side
// of its range.
func TestFrequencyIndexMatchesMapOracle(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			loWin, hiWin := int64(0), int64(8) // windows drawn so far: [loWin, hiWin)
			record := func() model.Record {
				win := loWin + 2*rng.Int63n((hiWin-loWin)/2) // even windows: odd ones stay gaps
				switch rng.Intn(10) {
				case 0:
					loWin -= 2
					win = loWin
				case 1:
					win = hiWin
					hiWin += 2
				}
				r := model.Record{
					Entity: model.EntityID(fmt.Sprintf("u%02d", rng.Intn(9))),
					LatLng: geo.LatLng{Lat: 37.5 + 0.02*float64(rng.Intn(6)), Lng: -122.5 + 0.02*float64(rng.Intn(6))},
					Unix:   win*refWindowing.WidthSeconds + rng.Int63n(refWindowing.WidthSeconds),
				}
				if rng.Intn(4) == 0 {
					r.RadiusKm = 0.5 + 4*rng.Float64()
				}
				return r
			}
			m := newRefStore()
			var seen []model.Record
			build := func() *history.Store {
				d := model.Dataset{Name: "p", Records: seen}
				g := d.GroupByEntity(-1)
				return history.BuildGrouped(&g, refWindowing, refLevel, 1+rng.Intn(3))
			}
			check := func(step string, s *history.Store) {
				t.Helper()
				n := float64(len(m.leaves))
				oracle := m.binEntities()
				for b, df := range oracle {
					if got, want := s.IDF(b), math.Log(n/float64(df)); got != want {
						t.Fatalf("%s: IDF(%v) = %g, want %g (df %d of %g)", step, b, got, want, df, n)
					}
				}
				absentCell := geo.CellIDFromLatLngLevel(geo.LatLng{Lat: -33.9, Lng: 151.2}, refLevel)
				for _, win := range []int64{loWin - 1, loWin, loWin + 1, hiWin - 2, hiWin - 1, hiWin} {
					b := history.Bin{Window: win, Cell: absentCell}
					if _, held := oracle[b]; held {
						t.Fatalf("%s: the absent cell is held in window %d", step, win)
					}
					if got, want := s.IDF(b), math.Log(n); n > 0 && got != want {
						t.Fatalf("%s: IDF of absent bin %v = %g, want log|U| = %g", step, b, got, want)
					}
				}
			}
			for k := rng.Intn(3) * 40; k > 0; k-- { // a third of the seeds start empty
				seen = append(seen, record())
			}
			for _, r := range seen {
				m.add(r, false)
			}
			s := build()
			check("after the first build", s)
			for k := 0; k < 300; k++ {
				r := record()
				seen = append(seen, r)
				s.Add(r)
				m.add(r, true)
				if k%25 == 24 {
					check(fmt.Sprintf("after Add %d", k), s)
					if rng.Intn(2) == 0 {
						s = build()
						check(fmt.Sprintf("rebuilt after Add %d", k), s)
					}
				}
			}
		})
	}
}
