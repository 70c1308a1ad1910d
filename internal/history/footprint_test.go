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

// TestStoreBytesPerBin budgets the retained heap of a 2k-user side at the
// paper's SM density (≈ 12 records per user, drawn the way the benchmark
// draws its sides): the scoring store at the similarity level, the same
// store once every entity is compiled, and the signature store at the LSH
// level after every signature has been built. A store is columns: per bin
// a cell and an 8 B weight — the cell an 8 B id on a signature store, a
// 4 B index into the store's cell table on a scoring store — and 12 B per
// window (index, offset) — at this density a window holds one bin — plus,
// per entity, one spare offset slot and a 40 B segment record. The
// scoring store adds its cell table and the frequency index — 8 B of
// sorted column per distinct bin plus two slice headers per window, which
// weigh more here (≈ 10 bins a window) than at paper scale (≈ 140) —
// which the signature store does not keep. Compiling adds 4 B per bin
// (the bin's document frequency; its IDF weight is read from a table by
// it). Dominating-cell queries must leave nothing behind. Cached
// per-history aggregation levels once made this ≈ 1 KB per bin; per-entity
// history and view objects made it 42.3, 64.4 and 103.2 B.
func TestStoreBytesPerBin(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("heap budgets are meaningless under the race detector")
	}
	ground := datagen.SM(datagen.SMConfig{NumUsers: 3070, Seed: 7})
	e := datagen.Sample(&ground, datagen.SampleConfig{
		IntersectionRatio: 0.5, InclusionProbE: 0.5, InclusionProbI: 0.5, Seed: 8,
	}).E
	g := e.GroupByEntity(-1)
	var sim *history.Store
	for _, tc := range []struct {
		name   string
		budget float64 // bytes per bin
		build  func() *history.Store
	}{
		// Measured 57.9 B per bin, plus 15 %; 64.4 B with a header object
		// per history.
		{"scoring store, level 12", 67, func() *history.Store {
			sim = history.BuildGrouped(&g, refWindowing, 12, 1)
			return sim
		}},
		// Measured 61.4 B per bin, plus 15 %; 78.2 B with the cell id kept
		// next to the interned index and a float64 IDF weight per bin,
		// 103.2 B with a view object per entity.
		{"scoring store, compiled", 71, func() *history.Store {
			s := history.BuildGrouped(&g, refWindowing, 12, 1)
			s.Compile(1)
			return s
		}},
		// Measured 35.7 B per bin, plus 15 %; 42.3 B with a header object per
		// history.
		{"signature store, level 16", 41, func() *history.Store {
			s := sim.SignatureStore(&g, candidates.DefaultParams().RowWindowing(refWindowing), 16, 1)
			for _, id := range s.Entities() {
				h := s.History(id)
				if sig := candidates.AppendSignature(nil, h); len(sig) != len(h.Windows()) {
					t.Fatalf("%s: signature of %d rows, want %d", id, len(sig), len(h.Windows()))
				}
			}
			return s // the signatures are garbage by now; the store is not
		}},
	} {
		before := testenv.LiveHeap()
		s := tc.build()
		after := testenv.LiveHeap()
		perBin := float64(after-before) / float64(storeBins(s))
		t.Logf("%s: %d entities, %d bins, %.1f B retained per bin", tc.name, s.NumEntities(), storeBins(s), perBin)
		if perBin > tc.budget {
			t.Errorf("%s: retains %.1f B per bin, budget %.0f", tc.name, perBin, tc.budget)
		}
		runtime.KeepAlive(s)
	}
	runtime.KeepAlive(g)
}

// storeBins counts the bins of every history of s.
func storeBins(s *history.Store) int {
	bins := 0
	for _, id := range s.Entities() {
		h := s.History(id)
		bins += h.NumBins()
	}
	return bins
}

// gridSide draws n entities over the same 24 windows, twelve records each,
// so the frequency index has one run per window whatever n is.
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
// reclaimed and room stays a quarter, so the streamed store retains at most
// 1.5 times what a fresh build over the same records does, and every view
// is Float64bits-equal to the fresh build's.
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
	s.Compile(1)
	for _, batch := range stream {
		for _, r := range batch {
			s.Add(r)
		}
		s.Compile(1)
	}
	streamed := testenv.LiveHeap() - before
	before = testenv.LiveHeap()
	fresh := history.BuildGrouped(&gAll, refWindowing, 12, 1)
	fresh.Compile(1)
	built := testenv.LiveHeap() - before
	ratio := float64(streamed) / float64(built)
	t.Logf("streamed store retains %d B, a fresh build %d B (%.2fx)", streamed, built, ratio)
	if !testenv.RaceEnabled && ratio > 1.5 {
		t.Errorf("the streamed store retains %.2fx a fresh build's bytes, budget 1.5x", ratio)
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
		if !slices.Equal(got.Windows, want.Windows) || !slices.Equal(got.Off, want.Off) ||
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
