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
	return Build(&d, model.Windowing{Epoch: 0, WidthSeconds: 900}, 12)
}

// TestCompiledViewMatchesBins checks the flat layout against the map walk:
// same windows, same cells in the same (sorted) order, same weights, IDF
// weights equal to the store's IDF, and per-window record sums consistent.
func TestCompiledViewMatchesBins(t *testing.T) {
	s := compiledTestStore(t)
	if n := s.Compile(1); n != s.NumEntities() {
		t.Fatalf("first Compile recompiled %d entities, want %d", n, s.NumEntities())
	}
	for _, e := range s.Entities() {
		c, cells := s.CompiledView(e)
		if c == nil {
			t.Fatalf("no compiled view for %s", e)
		}
		h := s.History(e)
		if len(c.Windows) != len(h.Windows()) {
			t.Fatalf("%s: %d compiled windows, want %d", e, len(c.Windows), len(h.Windows()))
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
			if want := s.IDF(b); c.IDF[k] != want {
				t.Fatalf("%s: compiled IDF %v at %d, want %v", e, c.IDF[k], k, want)
			}
			k++
		})
		if k != h.NumBins() {
			t.Fatalf("%s: compiled %d bins, history has %d", e, k, h.NumBins())
		}
		for w := range c.Windows {
			var sum float64
			for b := c.Off[w]; b < c.Off[w+1]; b++ {
				sum += c.Counts[b]
			}
			if sum != c.WinRecs[w] {
				t.Fatalf("%s: WinRecs[%d] = %v, bins sum to %v", e, w, c.WinRecs[w], sum)
			}
		}
	}
}

// TestCompileInvalidation pins the recompilation granularity: clean stores
// recompile nothing, weight-only adds recompile one entity, and anything
// that can shift baked IDF weights (new bin, new entity) recompiles all.
func TestCompileInvalidation(t *testing.T) {
	s := compiledTestStore(t)
	all := s.NumEntities()
	s.Compile(1)
	if n := s.Compile(1); n != 0 {
		t.Fatalf("clean Compile recompiled %d entities, want 0", n)
	}

	// Weight-only add: a duplicate of an existing record lands in an
	// existing bin, so only entity "a" goes stale.
	s.Add(model.Record{Entity: "a", LatLng: geo.LatLng{Lat: 37.77, Lng: -122.42}, Unix: 110})
	if n := s.Compile(1); n != 1 {
		t.Fatalf("weight-only add recompiled %d entities, want 1", n)
	}

	// New bin: bin frequencies changed, every baked IDF may be stale.
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
	before, _ := s.CompiledView("a")
	if before == nil {
		t.Fatal("lazy CompiledView returned nil for a known entity")
	}
	binsBefore := len(before.Cells)
	s.Add(model.Record{Entity: "a", LatLng: geo.LatLng{Lat: 36.5, Lng: -121.5}, Unix: 90000})
	after, ids := s.CompiledView("a")
	if after == before {
		t.Fatal("CompiledView returned the stale view after Add")
	}
	if len(after.Cells) != binsBefore+1 {
		t.Fatalf("recompiled view has %d bins, want %d", len(after.Cells), binsBefore+1)
	}
	// Dense indices must stay within the id table.
	for _, ci := range after.Cells {
		if int(ci) >= len(ids) {
			t.Fatalf("dense index %d outside id table of %d", ci, len(ids))
		}
	}
}

// TestCompileParallelMatchesSerial requires the parallel build to equal
// the serial one view for view — windows, offsets, weights, IDF, window
// sums and the dense cell indices with their id table — across a cold
// compile, a weight-only add (one stale entity) and an epoch move that
// brings new cells (everything stale). Run under -race it is also the
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
		return Build(&d, model.Windowing{Epoch: 0, WidthSeconds: 900}, 12)
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
	wantStale := []int{37, 1, 38}
	for step, mut := range mutate {
		mut(serial)
		mut(parallel)
		ns, np := serial.Compile(1), parallel.Compile(4)
		if ns != wantStale[step] || np != wantStale[step] {
			t.Fatalf("step %d: serial recompiled %d entities, parallel %d, want %d", step, ns, np, wantStale[step])
		}
		if !slices.Equal(serial.cells, parallel.cells) {
			t.Fatalf("step %d: dense cell-id tables differ", step)
		}
		for ord := range serial.histories {
			e := serial.ords.ID(uint32(ord))
			a, b := serial.compiled[ord], parallel.compiled[ord]
			if a == nil || b == nil {
				t.Fatalf("step %d: %s has no compiled view", step, e)
			}
			if !slices.Equal(a.Windows, b.Windows) || !slices.Equal(a.Off, b.Off) ||
				!slices.Equal(a.Cells, b.Cells) || !slices.Equal(a.Counts, b.Counts) ||
				!slices.Equal(a.IDF, b.IDF) || !slices.Equal(a.WinRecs, b.WinRecs) {
				t.Fatalf("step %d: compiled views of %s differ", step, e)
			}
		}
	}
}

// TestCompileEpochOnlyRefreshesInPlace pins what an epoch move costs the
// views it leaves standing. On an SM side with region records mixed in,
// one Add opens a new bin for one entity: every view is stale, yet only
// the touched entity's is rebuilt — every other keeps its *Compiled — and
// every view's IDF weights and window sums are bit for bit those of a
// fresh Build over the same records. What a Compile after such an Add
// allocates is bounded by the touched entity alone, not by the store's
// size.
func TestCompileEpochOnlyRefreshesInPlace(t *testing.T) {
	e := freqTestSide()
	w := model.Windowing{Epoch: 0, WidthSeconds: 900}
	s := Build(&e, w, 12)
	s.Compile(1)
	before := slices.Clone(s.compiled)

	touched := e.Records[0].Entity
	ord, _ := s.Ordinals().Lookup(touched)
	nextWindow := s.maxWindow + 1
	opensBin := func() model.Record {
		r := e.Records[0]
		r.Unix = nextWindow * w.WidthSeconds
		nextWindow++
		return r
	}
	added := opensBin()
	epoch := s.Epoch()
	s.Add(added)
	if s.Epoch() == epoch {
		t.Fatal("the added record opened no bin")
	}
	if n := s.Compile(1); n != s.NumEntities() {
		t.Fatalf("Compile after an epoch move refreshed %d views, want all %d", n, s.NumEntities())
	}
	for k, c := range s.compiled {
		if kept := c == before[k]; kept == (uint32(k) == ord) {
			t.Fatalf("ordinal %d (touched: %v): view kept = %v", k, uint32(k) == ord, kept)
		}
	}

	assertViewsMatchBuild(t, s, append(slices.Clone(e.Records), added))

	if testenv.RaceEnabled {
		return // allocation counts are meaningless under the race detector
	}
	// The touched entity's share: its columns and the frequency index's
	// (a new window each time), a new view of three slices, the goroutine
	// par.Chunks starts. A rebuild of every view would be ≥ 3 per entity.
	const budget = 16
	allocs := testing.AllocsPerRun(20, func() {
		s.Add(opensBin())
		s.Compile(1)
	})
	t.Logf("Add + Compile over %d entities: %.1f allocations", s.NumEntities(), allocs)
	if allocs > budget {
		t.Fatalf("Add + Compile allocate %.1f times, budget %d (the store has %d entities)", allocs, budget, s.NumEntities())
	}
}

// TestCompiledViewAtRefreshesConcurrently lets scorers race the lazy
// refresh: after an epoch move and no Compile, goroutines fetch every view
// from different starting points, reading each as they go, and every view
// must then match a fresh Build's. Run under -race it is the
// data-race gate of refreshing views in place.
func TestCompiledViewAtRefreshesConcurrently(t *testing.T) {
	e := freqTestSide()
	w := model.Windowing{Epoch: 0, WidthSeconds: 900}
	s := Build(&e, w, 12)
	s.Compile(1)
	added := e.Records[0]
	added.Unix = (s.maxWindow + 1) * w.WidthSeconds
	s.Add(added)

	n := len(s.histories)
	done := make(chan float64)
	for g := range 4 {
		go func() {
			var sum float64
			for k := range n {
				c, _ := s.CompiledViewAt(uint32((k + g*n/4) % n))
				for _, x := range c.IDF {
					sum += x
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

// assertViewsMatchBuild requires every view of s to carry IDF weights and
// window sums Float64bits-equal to those of a fresh Build over recs.
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
	for _, id := range s.Entities() {
		got, _ := s.CompiledView(id)
		want, _ := fresh.CompiledView(id)
		if !slices.Equal(bits(got.IDF), bits(want.IDF)) || !slices.Equal(bits(got.WinRecs), bits(want.WinRecs)) {
			t.Fatalf("%s: the refreshed view's IDF weights or window sums differ from a fresh build's", id)
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
	s := Build(&d, model.Windowing{Epoch: 0, WidthSeconds: 900}, 12)
	s.Compile(1)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		s.epoch++ // invalidate every compiled view
		s.Compile(1)
	}
}
