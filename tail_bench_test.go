package slim

import (
	"slices"
	"testing"
	"time"
)

// publishBurstFixture builds the standard 64-taxi relink fixture, already
// published once, plus a step function that applies one ~1% weight-only
// dirty burst and rescores it through the real edge store — exactly what
// Linker.Run does before its Publish in the streaming steady state (dirty
// pairs rescore to identical scores, so the greedy order is unchanged and
// the matched score list is too).
func publishBurstFixture(tb testing.TB) (lk *Linker, step func(k int)) {
	tb.Helper()
	lk, byEntity := relinkFixture(tb, 64)
	step = func(k int) {
		weightOnlyBurst(lk, byEntity, k)
		if lk.Rescore(lk.edges.seq + 1).EdgeStore.FullRescore {
			tb.Fatal("weight-only burst forced a full rescore; the fixture must produce delta updates")
		}
	}
	return lk, step
}

// BenchmarkPublish measures Publish after the standard 1% dirty burst: one
// greedy walk down the edge store's order with the matched edges
// materialised, and the cached threshold fit reused when the matched score
// list is bit-identical.
func BenchmarkPublish(b *testing.B) {
	benchPublishCycle(b, func(lk *Linker) { lk.Publish() })
}

// BenchmarkPublishReference measures the from-scratch reference over the
// same edges: every edge materialised as a link and sorted, matched with
// id-interned used-sets, and the threshold refit.
func BenchmarkPublishReference(b *testing.B) {
	benchPublishCycle(b, func(lk *Linker) { referencePublish(&lk.edges, ThresholdGMM) })
}

// benchPublishCycle times one burst, rescore and publish as the op, so b.N
// is paced by the whole cycle (a timer stopped around the burst lets the
// microsecond publish drive b.N past 10^5 cycles), and reports the publish
// alone as publish-ns/op.
func benchPublishCycle(b *testing.B, publish func(lk *Linker)) {
	lk, step := publishBurstFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	var published time.Duration
	for i := 0; i < b.N; i++ {
		step(i)
		start := time.Now()
		publish(lk)
		published += time.Since(start)
	}
	b.ReportMetric(float64(published.Nanoseconds())/float64(b.N), "publish-ns/op")
}

// TestPublishSpeedupOverFromScratch is Publish's speed gate: on the
// standard 64-taxi workload, after a 1% weight-only dirty burst, Publish
// must be at least 5x faster than the from-scratch MatchLinks →
// SelectStopThreshold → FilterLinks reference over the same edges (the
// walk needs no sort and no id lookups, and the unchanged matched score
// list reuses the threshold fit; 5x leaves a wide margin for noisy CI
// machines). Every rep's output is checked bit-identical against the
// reference's, so the gate cannot pass by skipping work.
func TestPublishSpeedupOverFromScratch(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test; skipped in -short")
	}
	lk, step := publishBurstFixture(t)
	const reps = 7
	var walk, ref []time.Duration
	for k := 0; k < reps; k++ {
		step(k)
		start := time.Now()
		m, l, thr := lk.Publish()
		walk = append(walk, time.Since(start))

		start = time.Now()
		wm, wl, wthr := referencePublish(&lk.edges, lk.cfg.Threshold)
		ref = append(ref, time.Since(start))

		requirePublish(t, "rep", m, l, thr, wm, wl, wthr)
	}
	med := func(ds []time.Duration) time.Duration {
		s := slices.Clone(ds)
		slices.Sort(s)
		return s[len(s)/2]
	}
	mw, mr := med(walk), med(ref)
	speedup := float64(mr) / float64(mw)
	t.Logf("median Publish %v, median from-scratch reference %v: %.1fx", mw, mr, speedup)
	if speedup < 5 {
		t.Fatalf("Publish only %.1fx faster than the from-scratch reference (median %v vs %v); gate requires >= 5x",
			speedup, mw, mr)
	}
}
