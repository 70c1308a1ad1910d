package history_test

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"slim/internal/candidates"
	"slim/internal/datagen"
	"slim/internal/geo"
	"slim/internal/history"
	"slim/internal/model"
	"slim/internal/testenv"
)

// TestStoreBytesPerBin budgets the retained heap of a side of each
// generator, drawn the way the benchmark draws its sides: a 2k-user SM
// side at the paper's density (≈ 12 records per user) and a 100-taxi cab
// side. Per side it measures the scoring store at the similarity level,
// the same store once every entity is compiled, and the signature store at
// the LSH level after every signature has been built. A store is one
// column family: per bin a 4 B window index into the store's window
// table, a cell and an 8 B weight — the cell an 8 B id on a signature
// store, a 4 B index into the store's cell table on a scoring store — plus
// a 12 B segment record per entity and the window table (an entry per
// distinct window, few on either side). The scoring store adds its cell
// table, which the signature store does not keep. Compiling adds 4 B per
// bin (the bin's document frequency; its IDF weight is read from a table
// by it) and the df count's scratch: 4 B per bin, per window and per
// cell. Dominating-cell queries must leave nothing behind. A cab
// signature row holds ≈ 94 bins,
// so the per-bin window index costs it more than the per-window columns
// it replaced, which cost ≈ 12 B a row, not a bin. Cached per-history
// aggregation levels once made this ≈ 1 KB per bin; per-entity history
// and view objects made it 42.3, 64.4 and 103.2 B on the SM side.
func TestStoreBytesPerBin(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("heap budgets are meaningless under the race detector")
	}
	sample := func(ground model.Dataset) model.Grouped {
		e := datagen.Sample(&ground, datagen.SampleConfig{
			IntersectionRatio: 0.5, InclusionProbE: 0.5, InclusionProbI: 0.5, Seed: 8,
		}).E
		return e.GroupByEntity(-1)
	}
	sm := sample(datagen.SM(datagen.SMConfig{NumUsers: 3070, Seed: 7}))
	cab := sample(datagen.Cab(datagen.CabConfig{NumTaxis: 100, Days: 2, MeanRecordIntervalSec: 180, Seed: 7}))
	rows := candidates.DefaultParams().RowWindowing(refWindowing)
	var simSM, simCab *history.Store
	signed := func(s *history.Store) *history.Store {
		for _, id := range s.Entities() {
			h := s.History(id)
			if sig := candidates.AppendSignature(nil, h); len(sig) != len(h.Windows()) {
				t.Fatalf("%s: signature of %d rows, want %d", id, len(sig), len(h.Windows()))
			}
		}
		return s // the signatures are garbage by now; the store is not
	}
	for _, tc := range []struct {
		name   string
		budget float64 // bytes per bin
		build  func() *history.Store
	}{
		// Measured 30.1 B per bin, plus 15 %; 42.1 B with a frequency
		// index (per window, the cells held and their df), 43.1 B with a
		// 24 B segment (a per-entity fill stamp), 50.9 B with a per-window
		// family (window, bin offset), 56.1 B with a map from id to
		// ordinal and a sorted id copy in the store, 64.4 B with a header
		// object per history.
		{"SM scoring store, level 12", 34, func() *history.Store {
			simSM = history.BuildGrouped(&sm, refWindowing, 12, 1)
			return simSM
		}},
		// Measured 39.4 B per bin, plus 15 %; 46.4 B with the frequency
		// index, 47.8 B with the 24 B segment and a list of stale
		// ordinals, 55.8 B with the per-window family, 60.7 B with the id
		// map and copy, 78.2 B with the cell id kept next to the interned
		// index and a float64 IDF weight per bin, 103.2 B with a view
		// object per entity.
		{"SM scoring store, compiled", 45, func() *history.Store {
			s := history.BuildGrouped(&sm, refWindowing, 12, 1)
			s.Compile()
			return s
		}},
		// Measured 22.3 B per bin, plus 15 %; 23.3 B with the 24 B
		// segment, 31.3 B with the per-window family, 32.6 B with a sorted
		// id copy in the store, 42.3 B with a header object per history.
		{"SM signature store, level 16", 26, func() *history.Store {
			return signed(simSM.SignatureStore(&sm, rows, 16, 1))
		}},
		// Measured 20.0 B per bin, plus 15 %; 27.9 B with the frequency
		// index, 28.0 B with the 24 B segment, 29.9 B with the per-window
		// family.
		{"cab scoring store, level 12", 23, func() *history.Store {
			simCab = history.BuildGrouped(&cab, refWindowing, 12, 1)
			return simCab
		}},
		// Measured 21.2 B per bin (21.4 in some runs), plus 15 %; 17.2 B
		// with the per-window family, whose 12 B a row this store's ≈ 94
		// bins a row shared.
		{"cab signature store, level 16", 24, func() *history.Store {
			return signed(simCab.SignatureStore(&cab, rows, 16, 1))
		}},
	} {
		before := testenv.LiveHeap()
		s := tc.build()
		retained := testenv.Retained(before)
		bins, windows := storeBins(s)
		perBin := float64(retained) / float64(bins)
		t.Logf("%s: %d entities, %d bins, %.2f a window, %.1f B retained per bin",
			tc.name, s.NumEntities(), bins, float64(bins)/float64(windows), perBin)
		if perBin > tc.budget {
			t.Errorf("%s: retains %.1f B per bin, budget %.0f", tc.name, perBin, tc.budget)
		}
		runtime.KeepAlive(s)
	}
	runtime.KeepAlive(sm)
	runtime.KeepAlive(cab)
}

// storeBins counts the bins and the (entity, window) pairs of every
// history of s.
func storeBins(s *history.Store) (bins, windows int) {
	for _, id := range s.Entities() {
		h := s.History(id)
		bins += h.NumBins()
		windows += len(h.Windows())
	}
	return bins, windows
}

// gridSide draws n entities over the same 24 windows, twelve records each,
// so the store's window table holds 24 windows whatever n is.
func gridSide(n int) model.Grouped {
	var d model.Dataset
	for e := 0; e < n; e++ {
		for k := 0; k < 12; k++ {
			d.Records = append(d.Records, model.Record{
				Entity: model.EntityID(fmt.Sprintf("u%05d", e)),
				LatLng: geo.LatLng{Lat: 37.5 + float64((e*7+k)%40)*0.01, Lng: -122.4 + float64((e+k*3)%40)*0.01},
				Unix:   int64(900 * ((e + 2*k) % 24)),
			})
		}
	}
	return d.GroupByEntity(-1)
}

// TestBuildAllocatesPerColumnNotPerEntity: a build lays every history out
// in columns it sizes once, so what it allocates does not grow with the
// entity count. Ten times the entities over the same windows may cost a
// few more allocations (the entity table's map grows in steps), not one
// more per entity.
func TestBuildAllocatesPerColumnNotPerEntity(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	allocs := func(n int) float64 {
		g := gridSide(n)
		return testing.AllocsPerRun(5, func() { history.BuildGrouped(&g, refWindowing, 12, 2) })
	}
	small, large := allocs(200), allocs(2000)
	t.Logf("BuildGrouped allocates %.0f times over 200 entities, %.0f over 2,000", small, large)
	if large-small > 8 {
		t.Fatalf("BuildGrouped allocates %.0f times over 200 entities and %.0f over 2,000: it allocates per entity", small, large)
	}
}

// TestStreamedColumnsStayBounded streams batches that give every entity new
// windows — so every segment outgrows its room again and again and moves —
// with a Compile between batches, as a relink does. Dead ranges are
// reclaimed and a rewrite leaves an eighth spare, so the streamed store
// retains at most 1.25 times what a fresh build over the same records
// does, and every view is Float64bits-equal to the fresh build's.
func TestStreamedColumnsStayBounded(t *testing.T) {
	const entities, batches = 300, 24
	rec := func(e, k int) model.Record {
		return model.Record{
			Entity: model.EntityID(fmt.Sprintf("u%04d", e)),
			LatLng: geo.LatLng{Lat: 37.5 + float64((e*5+k)%30)*0.01, Lng: -122.4 + float64((e+k*7)%30)*0.01},
			Unix:   int64(900 * (2*k + e%2)),
		}
	}
	var first, all []model.Record
	for e := 0; e < entities; e++ {
		for k := 0; k < 4; k++ {
			first = append(first, rec(e, k))
		}
	}
	all = append(all, first...)
	stream := make([][]model.Record, batches)
	for b := range stream {
		for e := 0; e < entities; e++ {
			for k := 0; k < 1+e%3; k++ {
				stream[b] = append(stream[b], rec(e, 4+3*b+k))
			}
		}
		all = append(all, stream[b]...)
	}
	g0 := (&model.Dataset{Name: "E", Records: first}).GroupByEntity(-1)
	gAll := (&model.Dataset{Name: "E", Records: all}).GroupByEntity(-1)

	before := testenv.LiveHeap()
	s := history.BuildGrouped(&g0, refWindowing, 12, 1)
	s.Compile()
	for _, batch := range stream {
		for _, r := range batch {
			s.Add(r)
		}
		s.Compile()
	}
	streamed := testenv.Retained(before)
	before = testenv.LiveHeap()
	fresh := history.BuildGrouped(&gAll, refWindowing, 12, 1)
	fresh.Compile()
	built := testenv.Retained(before)
	ratio := float64(streamed) / float64(built)
	t.Logf("streamed store retains %d B, a fresh build %d B (%.2fx)", streamed, built, ratio)
	if !testenv.RaceEnabled && ratio > 1.25 {
		t.Errorf("the streamed store retains %.2fx a fresh build's bytes, budget 1.25x", ratio)
	}

	bits := func(xs []float64) []uint64 {
		out := make([]uint64, len(xs))
		for i, x := range xs {
			out[i] = math.Float64bits(x)
		}
		return out
	}
	weights := func(v history.View) []uint64 {
		out := make([]uint64, len(v.DF))
		for j, df := range v.DF {
			out[j] = math.Float64bits(v.IDFByDF[df])
		}
		return out
	}
	for _, id := range fresh.Entities() {
		var got, want history.View
		gotCells, _ := s.CompiledView(id, &got)
		wantCells, _ := fresh.CompiledView(id, &want)
		if !slices.Equal(got.BinWindows(), want.BinWindows()) ||
			!slices.Equal(bits(got.Counts), bits(want.Counts)) || !slices.Equal(weights(got), weights(want)) {
			t.Fatalf("%s: the streamed view differs from a fresh build's", id)
		}
		for j := range got.Cells {
			if gotCells[got.Cells[j]].ID != wantCells[want.Cells[j]].ID {
				t.Fatalf("%s: bin %d names another cell than a fresh build's", id, j)
			}
		}
	}
	runtime.KeepAlive(s)
	runtime.KeepAlive(fresh)
	runtime.KeepAlive(g0) // the inputs are live across all four readings
	runtime.KeepAlive(gAll)
	runtime.KeepAlive(stream)
}
