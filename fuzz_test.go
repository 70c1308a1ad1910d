package slim

import (
	"runtime"
	"testing"
)

// runBytesPerRecord bounds what one relink may allocate per record the
// linker holds. On the 8-taxi workload below (2,363 records) a relink after
// the fuzzed record — a full rescore, since the record opens a new bin —
// allocates 5.5–12.2 KB brute force and 1.7 KB with the filter on the
// committed corpus, at most 5.2 B a record. The bound leaves room for
// noise and none for anything sized by the time range one record
// stretches.
const runBytesPerRecord = 64

// FuzzLinkerTimestamps adds one record at a fuzzed time to a small linker,
// with and without the LSH filter, and relinks. Run must not panic, and the
// bytes it allocates stay within runBytesPerRecord per record held however
// far the record lies from the rest: no structure is sized by the data's
// time range. The committed corpus (testdata/fuzz) holds 4e18 — which once
// made the candidate index ask for a 13.4 TB block — ±(2⁶³−1), 0 and −1.
func FuzzLinkerTimestamps(f *testing.F) {
	w := cabWorkload(f, 8, 1)
	records := uint64(len(w.E.Records) + len(w.I.Records) + 1)
	lsh := LSHConfig{Threshold: 0.6, StepWindows: 48, SpatialLevel: 16, NumBuckets: 4096}
	f.Fuzz(func(t *testing.T, unix int64) {
		for _, filter := range []*LSHConfig{nil, &lsh} {
			cfg := Defaults()
			cfg.LSH = filter
			lk, err := NewLinker(w.E, w.I, cfg)
			if err != nil {
				t.Fatal(err)
			}
			lk.Run()
			r := w.E.Records[0]
			r.Unix = unix
			lk.AddE(r)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			lk.Run()
			runtime.ReadMemStats(&after)
			if n := after.TotalAlloc - before.TotalAlloc; n > runBytesPerRecord*records {
				t.Fatalf("lsh=%v: a record at unix %d made Run allocate %d B for %d records, budget %d B a record",
					filter != nil, unix, n, records, runBytesPerRecord)
			}
		}
	})
}

// FuzzEdgeOrder drives an edge store through a fuzzed program of full
// rescores and delta updates — adds, drops, candidate removals and score
// changes over 16 × 16 pairs and a four-score palette, so many pairs tie,
// with ids that sort against their ordinals (see runEdgeOrder). After
// every update the store's order column must be its pairs in greedy
// order, and Publish's matching, links and threshold must be
// Float64bits-equal to MatchLinks → SelectStopThreshold → FilterLinks over
// materialize().
func FuzzEdgeOrder(f *testing.F) {
	f.Add([]byte{0, 7, 1, 2, 4, 3, 4, 4, 5, 6, 4, 7, 8, 4, 1, 7, 1, 2, 1, 0, 3, 4, 2, 1})
	f.Add([]byte{0, 3, 0, 0, 4, 0, 1, 4, 1, 0, 4, 1, 2, 0, 0, 0, 1, 3, 1, 0, 3, 0, 1, 2})
	f.Add([]byte("the edge store keeps its edges in greedy order"))
	f.Fuzz(func(t *testing.T, data []byte) {
		runEdgeOrder(t, data)
	})
}
