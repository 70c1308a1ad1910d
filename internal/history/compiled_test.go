package history

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"unsafe"

	"slim/internal/datagen"
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
	if n := s.Compile(); n != s.NumEntities() {
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
		wins := c.BinWindows()
		k := 0
		h.Bins(func(b Bin, count float64) {
			if wins[k] != b.Window {
				t.Fatalf("%s: compiled bin %d in window %d, want %d", e, k, wins[k], b.Window)
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
	s.Compile()
	if n := s.Compile(); n != 0 {
		t.Fatalf("clean Compile recompiled %d entities, want 0", n)
	}

	// Weight-only add: a duplicate of an existing record lands in an
	// existing bin, so nothing goes stale, and a's view reads the new
	// weight.
	var before View
	s.CompiledView("a", &before)
	w0 := before.Counts[0]
	s.Add(model.Record{Entity: "a", LatLng: geo.LatLng{Lat: 37.77, Lng: -122.42}, Unix: 110})
	if n := s.Compile(); n != 0 {
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
	if n := s.Compile(); n != all {
		t.Fatalf("new-bin add recompiled %d entities, want %d", n, all)
	}

	// New entity: |U| changed.
	s.Add(model.Record{Entity: "z", LatLng: geo.LatLng{Lat: 37.0, Lng: -122.0}, Unix: 42})
	if n := s.Compile(); n != all+1 {
		t.Fatalf("new-entity add recompiled %d entities, want %d", n, all+1)
	}
}

// TestCompileStepsMatchBuild compiles a store of 37 entities with region
// records mixed in across a cold compile, a weight-only add (nothing
// stale) and an epoch move that brings a new entity and new cells
// (everything stale): each step refreshes 37, 0 and 38 entities, leaves
// the store stamped at its epoch, and every view then matches a fresh
// Build's over the same records bit for bit.
func TestCompileStepsMatchBuild(t *testing.T) {
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
	s := Build(&model.Dataset{Name: "D", Records: recs}, model.Windowing{WidthSeconds: 900}, 12)
	steps := []struct {
		add   []model.Record
		stale int
	}{
		{nil, 37},
		{[]model.Record{ // weight-only: an existing bin of e03
			{Entity: "e03", LatLng: geo.LatLng{Lat: 37.5 + 0.03, Lng: -122.5 + 0.03}, Unix: 0},
		}, 0},
		{[]model.Record{ // new entity in new cells: epoch moves, new dense indices
			{Entity: "zz", LatLng: geo.LatLng{Lat: 40.1, Lng: -74.2}, Unix: 5000},
			{Entity: "e10", LatLng: geo.LatLng{Lat: 40.2, Lng: -74.3}, Unix: 7000, RadiusKm: 2},
		}, 38},
	}
	for step, st := range steps {
		for _, r := range st.add {
			s.Add(r)
		}
		recs = append(recs, st.add...)
		if n := s.Compile(); n != st.stale {
			t.Fatalf("step %d: Compile refreshed %d entities, want %d", step, n, st.stale)
		}
		if s.compiled.Load() != s.epoch+1 {
			t.Fatalf("step %d: a compiled store is stamped behind its epoch", step)
		}
		assertViewsMatchBuild(t, s, recs)
	}
}

// TestCompileSparseWindows compiles a store whose two windows lie 130
// years apart, one bin held by one entity and one by two: each bin's df
// is counted right, and the compile's scratch is sized by the windows and
// cells the store holds, not by the range of time they span.
func TestCompileSparseWindows(t *testing.T) {
	d := model.Dataset{Name: "D", Records: []model.Record{
		{Entity: "a", LatLng: geo.LatLng{Lat: 37.77, Lng: -122.42}, Unix: 1},
		{Entity: "b", LatLng: geo.LatLng{Lat: 37.77, Lng: -122.42}, Unix: 4102444800}, // 2100-01-01
		{Entity: "c", LatLng: geo.LatLng{Lat: 37.77, Lng: -122.42}, Unix: 4102444801},
	}}
	s := Build(&d, model.Windowing{WidthSeconds: 900}, 12)
	s.Compile()
	if len(s.windows) != 2 || len(s.winEnd) != 2 || len(s.tally) != 1 || len(s.byWin) != 3 {
		t.Fatalf("%d windows in the table; scratch of %d window ends, %d cell counts, %d positions, want 2, 1, 3",
			len(s.windows), len(s.winEnd), len(s.tally), len(s.byWin))
	}
	if cap(s.winEnd)+cap(s.tally)+cap(s.byWin) > 16 {
		t.Fatalf("scratch capacities %d, %d, %d: sized by the range spanned", cap(s.winEnd), cap(s.tally), cap(s.byWin))
	}
	for e, want := range map[model.EntityID]int32{"a": 1, "b": 2, "c": 2} {
		var v View
		s.CompiledView(e, &v)
		if !slices.Equal(v.DF, []int32{want}) {
			t.Fatalf("%s: df %v, want [%d]", e, v.DF, want)
		}
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

// TestCompileEpochOnlyRefreshesInPlace pins what an epoch move costs the
// entities it leaves standing. On an SM side with region records mixed in,
// one Add opens a new bin for one entity: every segment is stale, yet only
// the touched entity's cells change — every other keeps its bin range and
// its interned cells — and every view's IDF weights are bit for bit those
// of a fresh Build over the same records. A Compile after nothing but an
// epoch move rewrites the df column in place and allocates nothing, and
// so does one that finds the store current.
func TestCompileEpochOnlyRefreshesInPlace(t *testing.T) {
	e := freqTestSide()
	w := model.Windowing{WidthSeconds: 900}
	s := Build(&e, w, 12)
	s.Compile()
	before := slices.Clone(s.segs)
	cells := slices.Clone(s.cells)

	touched := e.Records[0].Entity
	ord, _ := s.Ordinals().Lookup(touched)
	added := e.Records[0]
	added.Unix = (slices.Max(s.windows) + 1) * w.WidthSeconds
	epoch := s.Epoch()
	s.Add(added)
	if s.Epoch() == epoch {
		t.Fatal("the added record opened no bin")
	}
	if n := s.Compile(); n != s.NumEntities() {
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
		if n := s.Compile(); n != s.NumEntities() {
			t.Fatalf("an epoch-only Compile refreshed %d views, want all %d", n, s.NumEntities())
		}
		if n := s.Compile(); n != 0 {
			t.Fatalf("a Compile of a current store refreshed %d views, want 0", n)
		}
	})
	if allocs != 0 {
		t.Fatalf("an epoch-only Compile over %d entities allocates %.1f times, want 0", s.NumEntities(), allocs)
	}
}

// TestCompiledViewAtCompilesTheWholeStore pins that freshness is a fact
// of the store, not of an entity: after an epoch move, one CompiledViewAt
// compiles every entity, so a following Compile finds nothing to do, and
// every view then matches a fresh Build's bit for bit. A segment is its
// bin range and room alone.
func TestCompiledViewAtCompilesTheWholeStore(t *testing.T) {
	if n := unsafe.Sizeof(segment{}); n != 12 {
		t.Fatalf("a segment is %d B, want 12: it locates a bin range and its room, nothing more", n)
	}
	e := freqTestSide()
	w := model.Windowing{WidthSeconds: 900}
	s := Build(&e, w, 12)
	s.Compile()
	added := e.Records[0]
	added.Unix = (slices.Max(s.windows) + 1) * w.WidthSeconds
	epoch := s.Epoch()
	s.Add(added)
	if s.Epoch() == epoch {
		t.Fatal("the added record opened no bin")
	}
	var v View
	last := uint32(len(s.segs) - 1)
	if _, ok := s.CompiledViewAt(last, &v); !ok {
		t.Fatalf("no view for ordinal %d", last)
	}
	if n := s.Compile(); n != 0 {
		t.Fatalf("Compile after one CompiledViewAt refreshed %d entities, want 0", n)
	}
	assertViewsMatchBuild(t, s, append(slices.Clone(e.Records), added))
}

// TestCompiledViewAtRefreshesConcurrently lets scorers race the lazy
// compile: after an epoch move and no Compile, goroutines fetch every view
// from different starting points, reading each as they go, and every view
// must then match a fresh Build's. The first fetch compiles the store and
// the others wait on it; run under -race this is the data-race gate of
// compiling the store in place under concurrent readers.
func TestCompiledViewAtRefreshesConcurrently(t *testing.T) {
	e := freqTestSide()
	w := model.Windowing{WidthSeconds: 900}
	s := Build(&e, w, 12)
	s.Compile()
	added := e.Records[0]
	added.Unix = (slices.Max(s.windows) + 1) * w.WidthSeconds
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
		if !slices.Equal(got.BinWindows(), want.BinWindows()) ||
			!slices.Equal(ids(gotGeoms, got.Cells), ids(wantGeoms, want.Cells)) ||
			!slices.Equal(bits(got.Counts), bits(want.Counts)) || !slices.Equal(bits(weights(got)), bits(weights(want))) {
			t.Fatalf("%s: the refreshed view differs from a fresh build's", id)
		}
	}
}

// BenchmarkCompile measures a full store compilation after an
// IDF-epoch-invalidating change — the worst-case recompile a relink pays
// after ingest creates new bins — on an SM side at serve size: 8,000
// users, sampled as slim-gen -sample samples them.
func BenchmarkCompile(b *testing.B) {
	ground := datagen.SM(datagen.SMConfig{NumUsers: 8000, Days: 26, AvgRecords: 24, Seed: 1})
	e := datagen.Sample(&ground, datagen.SampleConfig{
		IntersectionRatio: 0.5, InclusionProbE: 0.5, InclusionProbI: 0.5, Seed: 2,
	}).E
	s := Build(&e, model.Windowing{WidthSeconds: 900}, 12)
	s.Compile()
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		s.epoch++ // invalidate every compiled view
		s.Compile()
	}
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
