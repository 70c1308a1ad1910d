package candidates

import (
	"testing"
	"time"

	"slim/internal/datagen"
	"slim/internal/geo"
	"slim/internal/history"
	"slim/internal/model"
)

// benchParams is the filter configuration of the standard candidate-index
// workload (signature level 12, the repo's LSH sweep default).
var benchParams = Params{Threshold: 0.01, StepWindows: 48, SpatialLevel: 12, NumBuckets: 1 << 14}

// benchFixture samples the standard datagen Cab workload into two sides
// and builds their signature stores.
func benchFixture(taxis int) (se, si *history.Store, midUnix int64) {
	ground := datagen.Cab(datagen.CabConfig{
		NumTaxis: taxis, Days: 3, MeanRecordIntervalSec: 360, Seed: 99,
	})
	w := datagen.Sample(&ground, datagen.SampleConfig{
		IntersectionRatio: 0.5, InclusionProbE: 0.5, InclusionProbI: 0.5, Seed: 100,
	})
	rows := benchParams.RowWindowing(wnd)
	se = history.Build(&w.E, rows, benchParams.SpatialLevel)
	si = history.Build(&w.I, rows, benchParams.SpatialLevel)
	lo, hi, _ := w.E.TimeRange()
	return se, si, (lo + hi) / 2
}

// dirtyBurst synthesizes the k-th ~1% ingest burst: a handful of new
// records for every ~100th E entity, timestamped inside the existing
// time range — the streaming steady state the index exists for.
func dirtyBurst(se *history.Store, midUnix int64, k int) ([]model.Record, map[uint32]struct{}) {
	entities := se.Entities()
	n := len(entities) / 100
	if n < 1 {
		n = 1
	}
	dirty := make(map[uint32]struct{}, n)
	var recs []model.Record
	for j := 0; j < n; j++ {
		id := entities[(j*100+k*7)%len(entities)]
		ord, _ := se.Ordinals().Lookup(id)
		dirty[ord] = struct{}{}
		for r := 0; r < 4; r++ {
			recs = append(recs, model.Record{
				Entity: id,
				LatLng: geo.LatLng{
					Lat: 37.6 + float64((k+j+r)%40)*0.005,
					Lng: -122.42 + float64((k*3+j+r)%40)*0.005,
				},
				Unix: midUnix + int64((k*5+r)%20)*900,
			})
		}
	}
	return recs, dirty
}

// BenchmarkCandidateRefreshFull measures what the linker's candidate refresh
// cost before the index: rebuild every signature and re-enumerate every
// band-bucket collision, regardless of how little changed.
func BenchmarkCandidateRefreshFull(b *testing.B) {
	se, si, _ := benchFixture(96)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batchPairs(se, si, benchParams)
	}
}

// BenchmarkCandidateIndexIncremental measures the index update for a ~1%
// dirty-entity ingest burst (records applied outside the timer; the
// measured work is exactly what a streaming relink pays).
func BenchmarkCandidateIndexIncremental(b *testing.B) {
	se, si, mid := benchFixture(96)
	x := New(se, si, benchParams)
	x.Update(nil, nil)
	x.Pairs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		recs, dirty := dirtyBurst(se, mid, i)
		for _, r := range recs {
			se.Add(r)
		}
		b.StartTimer()
		x.Update(dirty, nil)
		x.Pairs()
	}
}

// TestIndexIncrementalSpeedupOverFullRefresh is the acceptance gate: on
// the standard workload, updating the index after a ~1% dirty-entity
// burst must be at least 5x faster than the full refresh it replaced
// (in practice the gap is 1-2 orders of magnitude; 5x leaves headroom
// for noisy CI machines). Every measured update is also parity-checked.
func TestIndexIncrementalSpeedupOverFullRefresh(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test; skipped in -short")
	}
	se, si, mid := benchFixture(96)
	x := New(se, si, benchParams)
	x.Update(nil, nil)
	x.Pairs()

	const reps = 9
	var incr, full []time.Duration
	for k := 0; k < reps; k++ {
		recs, dirty := dirtyBurst(se, mid, k)
		for _, r := range recs {
			se.Add(r)
		}
		start := time.Now()
		x.Update(dirty, nil)
		keys := x.Pairs()
		incr = append(incr, time.Since(start))
		got := named(se, si, keys)

		start = time.Now()
		want := batchPairs(se, si, benchParams)
		full = append(full, time.Since(start))
		if len(got) != len(want) {
			t.Fatalf("burst %d: parity broken, %d incremental vs %d batch pairs", k, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("burst %d: pair %d differs: %v vs %v", k, i, got[i], want[i])
			}
		}
	}
	med := func(ds []time.Duration) time.Duration {
		s := append([]time.Duration(nil), ds...)
		for i := 1; i < len(s); i++ { // tiny insertion sort
			for j := i; j > 0 && s[j] < s[j-1]; j-- {
				s[j], s[j-1] = s[j-1], s[j]
			}
		}
		return s[len(s)/2]
	}
	mi, mf := med(incr), med(full)
	speedup := float64(mf) / float64(mi)
	t.Logf("median incremental update %v, median full refresh %v: %.1fx", mi, mf, speedup)
	if speedup < 5 {
		t.Fatalf("incremental index update only %.1fx faster than full refresh (median %v vs %v); gate requires >= 5x",
			speedup, mi, mf)
	}
}
