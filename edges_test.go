package slim

import (
	"cmp"
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"slim/internal/candidates"
	"slim/internal/history"
	"slim/internal/model"
	"slim/internal/testenv"
)

// sideTable returns the entity table of a side with n entities.
func sideTable(prefix string, n int) *history.Ordinals {
	d := model.Dataset{Name: prefix}
	for k := 0; k < n; k++ {
		d.Records = append(d.Records, NewRecord(EntityID(fmt.Sprintf("%s-%05d", prefix, k)), 37.5, -122.3, 1_200_000_000))
	}
	return history.Build(&d, model.Windowing{WidthSeconds: 900}, 12).Ordinals()
}

// TestEdgeStoreResidentBytesEstimate holds EdgeStoreStats.ResidentBytes —
// slim_edge_store_resident_bytes on /metrics — to within 2× of what a
// 20k-edge store actually retains after a full rescore and a delta update
// that touches a tenth of the edges: first as a relink leaves it (no link
// list), then with the list materialised.
func TestEdgeStoreResidentBytesEstimate(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("heap budgets are meaningless under the race detector")
	}
	const nE, nI = 200, 100
	idsE, idsI := sideTable("e", nE), sideTable("i", nI)
	before := testenv.LiveHeap()
	es := newEdgeStore(idsE, idsI)
	full := make([]scoredPair, 0, nE*nI)
	for u := uint32(0); u < nE; u++ {
		for v := uint32(0); v < nI; v++ {
			full = append(full, scoredPair{key: candidates.Key(u, v), score: 1 + float64(u*nI+v)})
		}
	}
	es.resetFull(full, 1)
	var pairs []uint64
	var scores []float64
	for k := 0; k < len(full); k += 10 {
		pairs, scores = append(pairs, full[k].key), append(scores, full[k].score+0.5)
	}
	es.apply(pairs, scores, 2)
	full, pairs, scores = nil, nil, nil

	check := func(state string) {
		t.Helper()
		measured, estimate := int64(testenv.LiveHeap()-before), es.statsSnapshot().ResidentBytes
		t.Logf("%d edges, %s: measured %d B (%.1f per edge), estimated %d B (%.1f per edge)",
			nE*nI, state, measured, float64(measured)/(nE*nI), estimate, float64(estimate)/(nE*nI))
		if estimate > 2*measured || 2*estimate < measured {
			t.Errorf("%s: ResidentBytes estimate %d is not within 2x of the measured %d", state, estimate, measured)
		}
	}
	if es.links != nil {
		t.Fatal("a relink must leave no link list behind")
	}
	check("no link list")
	if links := es.materialize(); len(links) != nE*nI {
		t.Fatalf("store holds %d edges, want %d", len(links), nE*nI)
	}
	check("list cached")
	runtime.KeepAlive(es)
}

// TestDeltaRelinkBuildsNoLinkList: a relink on the delta path reads the
// edge store through its delta alone. Re-observations that shift
// dominating cells move pairs in and out of the LSH candidate set without
// touching an IDF epoch, so edges change on the delta path; after such a
// Rescore + Publish the store must hold no materialised link list, the
// published result must equal Run's on a twin linker bit for bit, and a
// later RunEdges must still hand out the whole edge set in canonical
// (U, V) order.
func TestDeltaRelinkBuildsNoLinkList(t *testing.T) {
	w := cabWorkload(t, 30, 1)
	cfg := Defaults()
	cfg.LSH = &LSHConfig{Threshold: 0.2, StepWindows: 48, SpatialLevel: 13, NumBuckets: 1 << 14}
	newWarm := func() *Linker {
		lk, err := NewLinker(w.E, w.I, cfg)
		if err != nil {
			t.Fatal(err)
		}
		lk.Run()
		return lk
	}
	lk, twin := newWarm(), newWarm()
	if lk.edges.links == nil {
		t.Fatal("a full rescore builds the link list its Publish rebuilds the tail from")
	}

	changed := 0
	for burst := 0; burst < 8; burst++ {
		// Pile weight onto one known bin of every fourth record's entity.
		for k := burst; k < len(w.E.Records); k += 4 {
			for n := 0; n < 3; n++ {
				lk.AddE(w.E.Records[k])
				twin.AddE(w.E.Records[k])
			}
		}
		stats := lk.Rescore()
		matched, links, thr := lk.Publish()
		es := stats.EdgeStore
		if es.FullRescore {
			t.Fatalf("burst %d: re-observations forced a full rescore", burst)
		}
		if stats.PositiveEdges != int64(len(lk.edges.pairs)) || es.Pairs != stats.PositiveEdges {
			t.Fatalf("burst %d: PositiveEdges %d, Pairs %d, store holds %d", burst, stats.PositiveEdges, es.Pairs, len(lk.edges.pairs))
		}
		if d := lk.edges.delta(); len(d.Changed)+len(d.Removed) > 0 {
			changed++
			if lk.edges.links != nil {
				t.Fatalf("burst %d: a delta relink that changed %d edges materialised the link list",
					burst, len(d.Changed)+len(d.Removed))
			}
		}
		want := twin.Run()
		if !sameLinksBits(matched, want.Matched) || !sameLinksBits(links, want.Links) ||
			math.Float64bits(thr.Threshold) != math.Float64bits(want.Threshold) || thr.Method != want.ThresholdMethod {
			t.Fatalf("burst %d: Rescore+Publish diverged from Run on the twin", burst)
		}
		wes := want.Stats.EdgeStore
		if stats.PositiveEdges != want.Stats.PositiveEdges || stats.RecordComparisons != want.Stats.RecordComparisons ||
			es.Rescored != wes.Rescored || es.Retained != wes.Retained || es.Dropped != wes.Dropped {
			t.Fatalf("burst %d: work %+v / %+v, twin's %+v / %+v", burst, stats, *es, want.Stats, *wes)
		}
	}
	if changed == 0 {
		t.Fatal("no burst changed an edge on the delta path; the test is vacuous")
	}
	t.Logf("%d of 8 delta relinks changed edges", changed)

	edges, stats := lk.RunEdges()
	wantEdges, _ := twin.RunEdges()
	if stats.EdgeStore.Rescored != 0 || int64(len(edges)) != stats.PositiveEdges {
		t.Fatalf("clean RunEdges: %d edges, stats %+v", len(edges), *stats.EdgeStore)
	}
	if !slices.IsSortedFunc(edges, func(a, b Link) int {
		return cmp.Or(cmp.Compare(a.U, b.U), cmp.Compare(a.V, b.V))
	}) {
		t.Fatal("RunEdges after delta relinks is not in canonical (U, V) order")
	}
	if !sameLinksBits(edges, wantEdges) {
		t.Fatal("RunEdges after delta relinks differs from the twin's")
	}
}

// TestResidentBytesCoverListBuiltByPublish: Publish reads the store's whole
// link list when its tail missed a delta, and what it built must show in
// EdgeStoreStats — internal/engine snapshots the store after Publish for
// this reason. A first Rescore goes unpublished; re-observations then
// change an edge on the delta path, which drops the list; the Publish that
// follows finds a sequence gap, rebuilds the tail from the whole list and
// so materialises it.
func TestResidentBytesCoverListBuiltByPublish(t *testing.T) {
	w := cabWorkload(t, 30, 1)
	cfg := Defaults()
	cfg.LSH = &LSHConfig{Threshold: 0.2, StepWindows: 48, SpatialLevel: 13, NumBuckets: 1 << 14}
	lk, err := NewLinker(w.E, w.I, cfg)
	if err != nil {
		t.Fatal(err)
	}
	lk.Rescore()
	for burst := 0; lk.edges.links != nil; burst++ {
		if burst == 8 {
			t.Fatal("no burst changed an edge on the delta path; the test is vacuous")
		}
		// Pile weight onto one known bin of every fourth record's entity.
		for k := burst; k < len(w.E.Records); k += 4 {
			lk.AddE(w.E.Records[k], w.E.Records[k], w.E.Records[k])
		}
		if lk.Rescore().EdgeStore.FullRescore {
			t.Fatalf("burst %d: re-observations forced a full rescore", burst)
		}
	}
	es := lk.EdgeStoreStats()
	if es.Pairs == 0 || es.ResidentBytes != es.Pairs*edgePairBytes {
		t.Fatalf("after the delta rescore: %d B for %d pairs, want the map alone (%d B a pair)",
			es.ResidentBytes, es.Pairs, edgePairBytes)
	}
	lk.Publish()
	if ts := lk.PublishTailStats(); !ts.LastFull {
		t.Fatalf("a tail that missed a delta must rebuild in full: %+v", ts)
	}
	es = lk.EdgeStoreStats()
	if es.ResidentBytes != es.Pairs*(edgePairBytes+edgeLinkBytes) {
		t.Fatalf("after Publish built the list: %d B for %d pairs, want %d B a pair",
			es.ResidentBytes, es.Pairs, edgePairBytes+edgeLinkBytes)
	}
}
