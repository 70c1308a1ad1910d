package slim

import (
	"math"
	"slices"
	"testing"
	"time"
)

// tailBurstFixture builds the standard 64-taxi relink fixture and a
// publish tail warmed with its scored edge set, plus a step function that
// applies one ~1% weight-only dirty burst and rescores it through the
// real edge store, returning the store's edge-level delta — exactly what
// Linker.Run hands the tail in the streaming steady state (dirty pairs
// rescore to identical scores, so the delta is empty and the tail's work
// is pure reuse).
func tailBurstFixture(tb testing.TB) (tail *PublishTail, step func(k int) ([]Link, EdgeDelta)) {
	tb.Helper()
	lk, byEntity := relinkFixture(tb, 64)
	tail = NewPublishTail(ThresholdGMM)
	edges, _ := lk.RunEdges()
	tail.Publish(EdgeDelta{Full: true}, func() []Link { return edges })
	step = func(k int) ([]Link, EdgeDelta) {
		weightOnlyBurst(lk, byEntity, k)
		edges, _ := lk.RunEdges()
		d := lk.edges.delta()
		if d.Full {
			tb.Fatal("weight-only burst forced a full rescore; the fixture must produce delta updates")
		}
		return edges, d
	}
	return tail, step
}

// BenchmarkPublishTailIncremental measures the maintained publish tail on
// the standard 1% dirty burst: fold the edge store's delta into the
// sorted order, reuse the matched prefix above the first change, and
// reuse the cached threshold fit when the matched score list is
// bit-identical.
func BenchmarkPublishTailIncremental(b *testing.B) {
	tail, step := tailBurstFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		edges, d := step(i)
		b.StartTimer()
		if _, _, _ = tail.Publish(d, func() []Link { return edges }); tail.Stats().LastFull {
			b.Fatal("delta publish fell back to a full rebuild")
		}
	}
}

// BenchmarkPublishTailFull measures the path the maintained tail
// replaced: the identical burst published from scratch — every edge
// re-sorted, the matching re-walked from the top, the threshold refit —
// which is what every run paid before the tail existed.
func BenchmarkPublishTailFull(b *testing.B) {
	_, step := tailBurstFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		edges, _ := step(i)
		scratch := NewPublishTail(ThresholdGMM)
		b.StartTimer()
		scratch.Publish(EdgeDelta{Full: true}, func() []Link { return edges })
	}
}

// TestPublishTailIncrementalSpeedupOverFull is the publish-tail
// acceptance gate: on the standard 64-taxi workload, publishing a 1%
// weight-only dirty burst through the delta-maintained tail must be at
// least 5x faster than the from-scratch merge+match+threshold it
// replaced (in practice the gap is orders of magnitude — the steady-state
// delta is empty, so the tail reuses the whole matched prefix and the
// cached fit; 5x leaves a wide margin for noisy CI machines). Every rep's
// output is checked bit-identical against a fresh tail built from scratch
// over the same edges, so the gate cannot pass by skipping work.
func TestPublishTailIncrementalSpeedupOverFull(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test; skipped in -short")
	}
	tail, step := tailBurstFixture(t)
	const reps = 7
	var incr, full []time.Duration
	for k := 0; k < reps; k++ {
		edges, d := step(k)
		all := func() []Link { return edges }
		start := time.Now()
		m, l, thr := tail.Publish(d, all)
		incr = append(incr, time.Since(start))
		if tail.Stats().LastFull {
			t.Fatalf("rep %d: delta publish fell back to a full rebuild", k)
		}

		scratch := NewPublishTail(ThresholdGMM)
		start = time.Now()
		fm, fl, fthr := scratch.Publish(EdgeDelta{Full: true}, all)
		full = append(full, time.Since(start))

		if !sameLinksBits(m, fm) || !sameLinksBits(l, fl) ||
			math.Float64bits(thr.Threshold) != math.Float64bits(fthr.Threshold) {
			t.Fatalf("rep %d: incremental publish diverged from from-scratch", k)
		}
	}
	med := func(ds []time.Duration) time.Duration {
		s := slices.Clone(ds)
		slices.Sort(s)
		return s[len(s)/2]
	}
	mi, mf := med(incr), med(full)
	speedup := float64(mf) / float64(mi)
	t.Logf("median incremental publish %v, median full publish %v: %.1fx", mi, mf, speedup)
	if speedup < 5 {
		t.Fatalf("incremental publish only %.1fx faster than full (median %v vs %v); gate requires >= 5x",
			speedup, mi, mf)
	}
}
