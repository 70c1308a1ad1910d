package main

import (
	"math"
	"runtime/debug"
	"testing"
	"time"

	"slim"
	"slim/internal/candidates"
	"slim/internal/engine"
)

// TestMemoryLimitNeverRaisesTheCeiling: an operator's GOMEMLIMIT bounds the
// derived limit whatever the engine holds; below it the rule stands alone.
func TestMemoryLimitNeverRaisesTheCeiling(t *testing.T) {
	for _, held := range []int64{0, 1 << 20, 64 << 20, 4 << 30} {
		for _, ceiling := range []int64{1 << 20, 32 << 20, 1 << 30, math.MaxInt64} {
			got := memoryLimit(3<<20, held, ceiling)
			if got > ceiling {
				t.Errorf("held %d, ceiling %d: limit %d raises the operator's ceiling", held, ceiling, got)
			}
			if rule := memoryLimit(3<<20, held, math.MaxInt64); got != min(rule, ceiling) {
				t.Errorf("held %d, ceiling %d: limit %d, want min(%d, ceiling)", held, ceiling, got, rule)
			}
		}
	}
}

// TestMemoryLimitCoversWhatTheEngineHolds: without a ceiling the limit is
// never below (1 + h) times the held bytes, plus the runtime's non-heap
// bytes and the relink allowance.
func TestMemoryLimitCoversWhatTheEngineHolds(t *testing.T) {
	for _, nonHeap := range []int64{0, 2 << 20, 40 << 20} {
		for _, held := range []int64{0, 1, 999_999, 13 << 20, 3 << 30} {
			got := memoryLimit(nonHeap, held, math.MaxInt64)
			if floor := float64(nonHeap) + (1+heapHeadroom)*float64(held) + relinkAllowance; float64(got) < floor-1 {
				t.Errorf("non-heap %d, held %d: limit %d below %.0f", nonHeap, held, got, floor)
			}
		}
	}
}

// TestMemoryLimitFollowsTheLinkerUp drives the pacer the way slimd wires
// it (Config.AfterPublish): after a batch that doubles the linker's
// resident bytes, the next published run raises the process's limit with
// them, to at least (1 + h) times the new held bytes.
func TestMemoryLimitFollowsTheLinkerUp(t *testing.T) {
	prev := debug.SetMemoryLimit(-1)
	t.Cleanup(func() { debug.SetMemoryLimit(prev) })
	ground := slim.GenerateSM(slim.SMOptions{NumUsers: 400, Seed: 5})
	w := slim.SampleWorkload(&ground, slim.SampleOptions{
		IntersectionRatio: 0.5, InclusionProbE: 0.5, InclusionProbI: 0.5, Seed: 6,
	})
	cfg := slim.Defaults()
	lsh := candidates.DefaultParams()
	cfg.LSH = &lsh
	var held []int64
	eng, err := engine.New(w.E, w.I, engine.Config{Link: cfg, Debounce: time.Hour,
		AfterPublish: func(st engine.Stats) {
			paceHeap(st, math.MaxInt64)
			held = append(held, heldBytes(st))
		}})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	eng.Run()
	before := debug.SetMemoryLimit(-1)
	// Every entity again under a new id: the stores, the index and the
	// edge store all about double (1.83x here).
	twin := func(recs []slim.Record) []slim.Record {
		out := make([]slim.Record, len(recs))
		for k, r := range recs {
			r.Entity = "twin-" + r.Entity
			out[k] = r
		}
		return out
	}
	eng.AddE(twin(w.E.Records)...)
	eng.AddI(twin(w.I.Records)...)
	eng.Run()
	after := debug.SetMemoryLimit(-1)

	if len(held) != 2 {
		t.Fatalf("AfterPublish ran %d times over two published runs", len(held))
	}
	t.Logf("held %d -> %d bytes, limit %d -> %d", held[0], held[1], before, after)
	if held[1] < 16*held[0]/10 {
		t.Fatalf("held bytes %d -> %d: the twin batch did not about double the linker", held[0], held[1])
	}
	if floor := int64((1 + heapHeadroom) * float64(held[1])); after < floor {
		t.Errorf("limit %d after the batch, below (1 + h) x held = %d", after, floor)
	}
	if grew := float64(after - before); grew < (1+heapHeadroom)*float64(held[1]-held[0])*0.9 {
		t.Errorf("limit grew %.0f bytes for %d more held: it did not follow the linker up",
			grew, held[1]-held[0])
	}
}
