package history

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"slim/internal/geo"
	"slim/internal/model"
	"slim/internal/testenv"
)

func compiledTestStore(t testing.TB) *Store {
	t.Helper()
	recs := []model.Record{
		{Entity: "a", LatLng: geo.LatLng{Lat: 37.77, Lng: -122.42}, Unix: 100},
		{Entity: "a", LatLng: geo.LatLng{Lat: 37.80, Lng: -122.27}, Unix: 1000},
		{Entity: "a", LatLng: geo.LatLng{Lat: 37.77, Lng: -122.42}, Unix: 120}, // same bin as first
		{Entity: "b", LatLng: geo.LatLng{Lat: 37.60, Lng: -122.38}, Unix: 500},
		{Entity: "b", LatLng: geo.LatLng{Lat: 37.61, Lng: -122.39}, Unix: 2000, RadiusKm: 1.5},
		{Entity: "c", LatLng: geo.LatLng{Lat: 34.05, Lng: -118.24}, Unix: 900},
	}
	d := model.Dataset{Name: "D", Records: recs}
	return Build(&d, model.Windowing{WidthSeconds: 900}, 12)
}

// weights resolves the IDF weight of every bin of a view through the
// store's table, as the scorer reads it.
func weights(v View) []float64 {
	out := make([]float64, len(v.DF))
	for j, df := range v.DF {
		out[j] = v.IDFByDF[df]
	}
	return out
}

// TestCompiledViewMatchesBins checks the compiled view against the map
// walk: same windows, same cells in the same (sorted) order, same weights,
// and IDF weights equal to the store's IDF.
func TestCompiledViewMatchesBins(t *testing.T) {
	s := compiledTestStore(t)
	if n := s.Compile(1); n != s.NumEntities() {
		t.Fatalf("first Compile recompiled %d entities, want %d", n, s.NumEntities())
	}
	for _, e := range s.Entities() {
		var c View
		cells, ok := s.CompiledView(e, &c)
		if !ok {
			t.Fatalf("no compiled view for %s", e)
		}
		h := s.History(e)
		idfs := weights(c)
		if !slices.Equal(c.Windows, h.Windows()) {
			t.Fatalf("%s: compiled windows %v, want %v", e, c.Windows, h.Windows())
		}
		k := 0
		wi := -1
		h.Bins(func(b Bin, count float64) {
			for wi < 0 || c.Windows[wi] != b.Window {
				wi++
			}
			if k >= int(c.Off[wi+1]) || k < int(c.Off[wi]) {
				t.Fatalf("%s: bin %d outside window %d range [%d,%d)", e, k, wi, c.Off[wi], c.Off[wi+1])
			}
			if got := cells[c.Cells[k]]; got != geo.GeomOf(b.Cell) {
				t.Fatalf("%s: compiled cell %v at %d, want %v", e, got, k, b.Cell)
			}
			if c.Counts[k] != count {
				t.Fatalf("%s: compiled count %v at %d, want %v", e, c.Counts[k], k, count)
			}
			if want := s.IDF(b); idfs[k] != want {
				t.Fatalf("%s: compiled IDF %v at %d, want %v", e, idfs[k], k, want)
			}
			k++
		})
		if k != h.NumBins() || len(c.Cells) != k || len(c.DF) != k {
			t.Fatalf("%s: compiled %d bins (%d cells, %d weights), history has %d", e, k, len(c.Cells), len(c.DF), h.NumBins())
		}
	}
}

// TestCompileInvalidation pins the recompilation granularity: clean stores
// and weight-only adds recompile nothing — a record landing in an existing
// bin moves no document frequency, and the view reads record weights from
// the history itself — and anything that can shift a document frequency or
// the IDF table (new bin, new entity) recompiles all.
func TestCompileInvalidation(t *testing.T) {
	s := compiledTestStore(t)
	all := s.NumEntities()
	s.Compile(1)
	if n := s.Compile(1); n != 0 {
		t.Fatalf("clean Compile recompiled %d entities, want 0", n)
	}

	// Weight-only add: a duplicate of an existing record lands in an
	// existing bin, so nothing goes stale, and a's view reads the new
	// weight.
	var before View
	s.CompiledView("a", &before)
	w0 := before.Counts[0]
	s.Add(model.Record{Entity: "a", LatLng: geo.LatLng{Lat: 37.77, Lng: -122.42}, Unix: 110})
	if n := s.Compile(1); n != 0 {
		t.Fatalf("weight-only add recompiled %d entities, want 0", n)
	}
	var after View
	s.CompiledView("a", &after)
	if after.Counts[0] != w0+1 {
		t.Fatalf("weight-only add: a's first bin weighs %v, want %v", after.Counts[0], w0+1)
	}

	// New bin: bin frequencies changed, every document frequency may be
	// stale.
	s.Add(model.Record{Entity: "a", LatLng: geo.LatLng{Lat: 36.0, Lng: -121.0}, Unix: 50000})
	if n := s.Compile(1); n != all {
		t.Fatalf("new-bin add recompiled %d entities, want %d", n, all)
	}

	// New entity: |U| changed.
	s.Add(model.Record{Entity: "z", LatLng: geo.LatLng{Lat: 37.0, Lng: -122.0}, Unix: 42})
	if n := s.Compile(1); n != all+1 {
		t.Fatalf("new-entity add recompiled %d entities, want %d", n, all+1)
	}
}

// TestCompiledViewLazyRecompile checks that CompiledView alone (no explicit
// Compile call) serves fresh views after an Add.
func TestCompiledViewLazyRecompile(t *testing.T) {
	s := compiledTestStore(t)
	var before View
	if _, ok := s.CompiledView("a", &before); !ok {
		t.Fatal("lazy CompiledView found no view for a known entity")
	}
	binsBefore := len(before.Cells)
	s.Add(model.Record{Entity: "a", LatLng: geo.LatLng{Lat: 36.5, Lng: -121.5}, Unix: 90000})
	var after View
	ids, _ := s.CompiledView("a", &after)
	if len(after.Cells) != binsBefore+1 || len(after.DF) != binsBefore+1 {
		t.Fatalf("recompiled view has %d bins, want %d", len(after.Cells), binsBefore+1)
	}
	// Dense indices must stay within the id table and name the history's
	// cells, and the weights must be the refreshed store's.
	h := s.History("a")
	idfs := weights(after)
	k := 0
	h.Bins(func(b Bin, _ float64) {
		if ci := after.Cells[k]; int(ci) >= len(ids) || ids[ci].ID != b.Cell {
			t.Fatalf("bin %d: dense index %d does not name cell %v", k, ci, b.Cell)
		}
		if idfs[k] != s.IDF(b) {
			t.Fatalf("bin %d: stale IDF %v, want %v", k, idfs[k], s.IDF(b))
		}
		k++
	})
}

// TestCompileParallelMatchesSerial requires the parallel build to equal
// the serial one view for view — windows, offsets, weights, df, IDF and
// the dense cell indices with their id table — across a cold compile, a
// weight-only add (nothing stale) and an epoch move that brings new cells
// (everything stale). Run under -race it is also the
// data-race gate of the fan-out.
func TestCompileParallelMatchesSerial(t *testing.T) {
	build := func() *Store {
		var recs []model.Record
		for e := 0; e < 37; e++ {
			for k := 0; k < 40+e; k++ {
				r := model.Record{
					Entity: model.EntityID(fmt.Sprintf("e%02d", e)),
					LatLng: geo.LatLng{Lat: 37.5 + float64((k*7+e)%23)*0.01, Lng: -122.5 + float64((e+k)%17)*0.01},
					Unix:   int64(450 * k),
				}
				if k%11 == 0 {
					r.RadiusKm = 1.2 // region record: fractional weights over several cells
				}
				recs = append(recs, r)
			}
		}
		d := model.Dataset{Name: "D", Records: recs}
		return Build(&d, model.Windowing{WidthSeconds: 900}, 12)
	}
	serial, parallel := build(), build()
	mutate := []func(s *Store){
		func(*Store) {},
		func(s *Store) { // weight-only: an existing bin of e03
			s.Add(model.Record{Entity: "e03", LatLng: geo.LatLng{Lat: 37.5 + 0.03, Lng: -122.5 + 0.03}, Unix: 0})
		},
		func(s *Store) { // new entity in new cells: epoch moves, new dense indices
			s.Add(model.Record{Entity: "zz", LatLng: geo.LatLng{Lat: 40.1, Lng: -74.2}, Unix: 5000})
			s.Add(model.Record{Entity: "e10", LatLng: geo.LatLng{Lat: 40.2, Lng: -74.3}, Unix: 7000, RadiusKm: 2})
		},
	}
	wantStale := []int{37, 0, 38}
	for step, mut := range mutate {
		mut(serial)
		mut(parallel)
		ns, np := serial.Compile(1), parallel.Compile(4)
		if ns != wantStale[step] || np != wantStale[step] {
			t.Fatalf("step %d: serial recompiled %d entities, parallel %d, want %d", step, ns, np, wantStale[step])
		}
		if !slices.Equal(serial.geoms, parallel.geoms) {
			t.Fatalf("step %d: dense cell-id tables differ", step)
		}
		for ord := range serial.segs {
			e := serial.ords.ID(uint32(ord))
			if !serial.current(&serial.segs[ord]) || !parallel.current(&parallel.segs[ord]) {
				t.Fatalf("step %d: %s has no current compiled view", step, e)
			}
			var a, b View
			serial.CompiledViewAt(uint32(ord), &a)
			parallel.CompiledViewAt(uint32(ord), &b)
			if !slices.Equal(a.Windows, b.Windows) || !slices.Equal(a.Off, b.Off) ||
				!slices.Equal(a.Cells, b.Cells) || !slices.Equal(a.Counts, b.Counts) ||
				!slices.Equal(a.DF, b.DF) || !slices.Equal(weights(a), weights(b)) {
				t.Fatalf("step %d: compiled views of %s differ", step, e)
			}
		}
	}
}

// TestCompileEpochOnlyRefreshesInPlace pins what an epoch move costs the
// entities it leaves standing. On an SM side with region records mixed in,
// one Add opens a new bin for one entity: every segment is stale, yet only
// the touched entity's cells change — every other keeps its bin range and
// its interned cells — and every view's IDF weights are bit for bit those
// of a fresh Build over the same records. A Compile after nothing but an
// epoch move rewrites the df column in place and allocates nothing.
func TestCompileEpochOnlyRefreshesInPlace(t *testing.T) {
	e := freqTestSide()
	w := model.Windowing{WidthSeconds: 900}
	s := Build(&e, w, 12)
	s.Compile(1)
	before := slices.Clone(s.segs)
	cells := slices.Clone(s.cells)

	touched := e.Records[0].Entity
	ord, _ := s.Ordinals().Lookup(touched)
	added := e.Records[0]
	added.Unix = (s.freq.windows[len(s.freq.windows)-1] + 1) * w.WidthSeconds
	epoch := s.Epoch()
	s.Add(added)
	if s.Epoch() == epoch {
		t.Fatal("the added record opened no bin")
	}
	if n := s.Compile(1); n != s.NumEntities() {
		t.Fatalf("Compile after an epoch move refreshed %d views, want all %d", n, s.NumEntities())
	}
	for k, sg := range s.segs {
		old := before[k]
		kept := sg.bin == old.bin &&
			slices.Equal(s.cells[sg.bin:sg.bin+sg.nBin], cells[old.bin:old.bin+old.nBin])
		if kept == (uint32(k) == ord) {
			t.Fatalf("ordinal %d (touched: %v): bin range and interned cells kept = %v", k, uint32(k) == ord, kept)
		}
	}
	assertViewsMatchBuild(t, s, append(slices.Clone(e.Records), added))

	if testenv.RaceEnabled {
		return // allocation counts are meaningless under the race detector
	}
	allocs := testing.AllocsPerRun(20, func() {
		s.epoch++
		if n := s.Compile(1); n != s.NumEntities() {
			t.Fatalf("an epoch-only Compile refreshed %d views, want all %d", n, s.NumEntities())
		}
	})
	if allocs != 0 {
		t.Fatalf("an epoch-only Compile over %d entities allocates %.1f times, want 0", s.NumEntities(), allocs)
	}
}

// TestCompiledViewAtRefreshesConcurrently lets scorers race the lazy
// refresh: after an epoch move and no Compile, goroutines fetch every view
// from different starting points, reading each as they go, and every view
// must then match a fresh Build's. Run under -race it is the
// data-race gate of refreshing views in place.
func TestCompiledViewAtRefreshesConcurrently(t *testing.T) {
	e := freqTestSide()
	w := model.Windowing{WidthSeconds: 900}
	s := Build(&e, w, 12)
	s.Compile(1)
	added := e.Records[0]
	added.Unix = (s.freq.windows[len(s.freq.windows)-1] + 1) * w.WidthSeconds
	s.Add(added)

	n := len(s.segs)
	done := make(chan float64)
	for g := range 4 {
		go func() {
			var sum float64
			var c View
			for k := range n {
				s.CompiledViewAt(uint32((k+g*n/4)%n), &c)
				for _, df := range c.DF {
					sum += c.IDFByDF[df]
				}
			}
			done <- sum
		}()
	}
	for range 4 {
		<-done
	}
	assertViewsMatchBuild(t, s, append(slices.Clone(e.Records), added))
}

// assertViewsMatchBuild requires every view of s to name the same cells
// and carry record and IDF weights Float64bits-equal to those of a fresh
// Build over recs.
func assertViewsMatchBuild(t *testing.T, s *Store, recs []model.Record) {
	t.Helper()
	fresh := Build(&model.Dataset{Name: "D", Records: recs}, s.Windowing, s.Level)
	bits := func(xs []float64) []uint64 {
		out := make([]uint64, len(xs))
		for i, x := range xs {
			out[i] = math.Float64bits(x)
		}
		return out
	}
	ids := func(geoms []geo.CellGeom, dense []int32) []geo.CellID {
		out := make([]geo.CellID, len(dense))
		for i, d := range dense {
			out[i] = geoms[d].ID
		}
		return out
	}
	for _, id := range s.Entities() {
		var got, want View
		gotGeoms, _ := s.CompiledView(id, &got)
		wantGeoms, _ := fresh.CompiledView(id, &want)
		if !slices.Equal(got.Windows, want.Windows) || !slices.Equal(got.Off, want.Off) ||
			!slices.Equal(ids(gotGeoms, got.Cells), ids(wantGeoms, want.Cells)) ||
			!slices.Equal(bits(got.Counts), bits(want.Counts)) || !slices.Equal(bits(weights(got)), bits(weights(want))) {
			t.Fatalf("%s: the refreshed view differs from a fresh build's", id)
		}
	}
}

// BenchmarkCompile measures a full store compilation after an
// IDF-epoch-invalidating change — the worst-case recompile a relink pays
// after ingest creates new bins.
func BenchmarkCompile(b *testing.B) {
	var recs []model.Record
	for e := 0; e < 64; e++ {
		for k := 0; k < 200; k++ {
			recs = append(recs, model.Record{
				Entity: model.EntityID(rune('A' + e)),
				LatLng: geo.LatLng{Lat: 37.5 + float64(k%20)*0.01, Lng: -122.5 + float64((e+k)%17)*0.01},
				Unix:   int64(900 * k),
			})
		}
	}
	d := model.Dataset{Name: "bench", Records: recs}
	s := Build(&d, model.Windowing{WidthSeconds: 900}, 12)
	s.Compile(1)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		s.epoch++ // invalidate every compiled view
		s.Compile(1)
	}
}
