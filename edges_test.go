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
// slim_edge_store_resident_bytes on /metrics — to the pair map alone
// (Pairs × edgePairBytes) after a full rescore and after a delta update
// that touches a tenth of the edges, and to within 2× of what the 20k-edge
// store actually retains. Materialising the edge set, as RunEdges and a
// full tail rebuild do, leaves the store's footprint unchanged.
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
	mapOnly := func(state string) {
		t.Helper()
		if st := es.statsSnapshot(); st.Pairs != nE*nI || st.ResidentBytes != st.Pairs*edgePairBytes {
			t.Fatalf("%s: %d B for %d pairs, want the map alone (%d B a pair)",
				state, st.ResidentBytes, st.Pairs, edgePairBytes)
		}
	}
	es.resetFull(full, 1)
	mapOnly("after a full update")
	var pairs []uint64
	var scored []scoredPair
	for k := 0; k < len(full); k += 10 {
		pairs = append(pairs, full[k].key)
		scored = append(scored, scoredPair{key: full[k].key, score: full[k].score + 0.5})
	}
	es.apply(pairs, scored, nil, 2)
	mapOnly("after a delta update")
	full, pairs, scored = nil, nil, nil

	check := func(state string) {
		t.Helper()
		measured, estimate := int64(testenv.LiveHeap()-before), es.statsSnapshot().ResidentBytes
		t.Logf("%d edges, %s: measured %d B (%.1f per edge), estimated %d B (%.1f per edge)",
			nE*nI, state, measured, float64(measured)/(nE*nI), estimate, float64(estimate)/(nE*nI))
		if estimate > 2*measured || 2*estimate < measured {
			t.Errorf("%s: ResidentBytes estimate %d is not within 2x of the measured %d", state, estimate, measured)
		}
	}
	check("after a delta update")
	if links := es.materialize(); len(links) != nE*nI {
		t.Fatalf("store holds %d edges, want %d", len(links), nE*nI)
	}
	mapOnly("after materialize")
	check("after materialize")
	runtime.KeepAlive(es)
}

// TestDeltaRelinkBuildsNoLinkList: a relink on the delta path reads the
// edge store through its delta alone. Re-observations that shift
// dominating cells move pairs in and out of the LSH candidate set without
// touching an IDF epoch, so edges change on the delta path; after such a
// Rescore + Publish the tail must not have rebuilt from a materialised
// list, the published result must equal Run's on a twin linker bit for
// bit, and a later RunEdges must still hand out the whole edge set in
// canonical (U, V) order — in a fresh slice per call.
func TestDeltaRelinkBuildsNoLinkList(t *testing.T) {
	w := cabWorkload(t, 30, 1)
	cfg := Defaults()
	cfg.LSH = &LSHConfig{Threshold: 0.01, StepWindows: 48, SpatialLevel: 13, NumBuckets: 1 << 14}
	newWarm := func() *Linker {
		lk, err := NewLinker(w.E, w.I, cfg)
		if err != nil {
			t.Fatal(err)
		}
		lk.Run()
		return lk
	}
	lk, twin := newWarm(), newWarm()

	changed := 0
	for burst := 0; burst < 8; burst++ {
		// Pile weight onto one known bin of every fourth record's entity.
		for k := burst; k < len(w.E.Records); k += 4 {
			for n := 0; n < 3; n++ {
				lk.AddE(w.E.Records[k])
				twin.AddE(w.E.Records[k])
			}
		}
		stats := lk.Rescore(uint64(burst) + 2)
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
			if ts := lk.PublishTailStats(); ts.LastFull {
				t.Fatalf("burst %d: a delta relink that changed %d edges rebuilt the tail from the whole list",
					burst, len(d.Changed)+len(d.Removed))
			}
		}
		want := twin.Run()
		if !sameLinksBits(matched, want.Matched) || !sameLinksBits(links, want.Links) ||
			math.Float64bits(thr.Threshold) != math.Float64bits(want.Threshold) || string(thr.Method) != want.ThresholdMethod {
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

	// Every RunEdges call hands out its own slice: the two are equal and
	// distinct, and writing into one leaves the other as it was.
	again, _ := lk.RunEdges()
	if len(again) == 0 || &again[0] == &edges[0] || !sameLinksBits(again, edges) {
		t.Fatalf("two RunEdges calls must return distinct, equal slices (%d and %d edges)", len(edges), len(again))
	}
	kept := slices.Clone(again)
	edges[0] = Link{U: "overwritten", V: "overwritten", Score: -1}
	if !sameLinksBits(again, kept) {
		t.Fatal("writing into one RunEdges slice changed another")
	}
}

// TestDeltaRescoreScoresExactlyTheCandidateDelta: a weight-only burst that
// re-adds every record of some entities doubles their bin weights, which
// leaves their dominating cells, the candidate set, every bin set and so
// every score as they were. The run's one candidate-index update therefore
// reports the candidate pairs with a burst endpoint as Dirty and nothing
// else, and Rescore scores exactly those pairs, retains every other one and
// drops none.
func TestDeltaRescoreScoresExactlyTheCandidateDelta(t *testing.T) {
	w := cabWorkload(t, 30, 1)
	cfg := Defaults()
	cfg.LSH = &LSHConfig{Threshold: 0.01, StepWindows: 48, SpatialLevel: 13, NumBuckets: 1 << 14}
	lk, err := NewLinker(w.E, w.I, cfg)
	if err != nil {
		t.Fatal(err)
	}
	lk.Run()

	burst := func(d Dataset, every int, store *history.Store, add func(...Record)) map[uint32]bool {
		byEntity := d.ByEntity()
		ords := make(map[uint32]bool)
		for k, id := range store.Entities() {
			if k%every == 0 {
				add(byEntity[id]...)
				ords[ordOf(store.Ordinals(), id)] = true
			}
		}
		return ords
	}
	burstE := burst(w.E, 3, lk.storeE, lk.AddE)
	burstI := burst(w.I, 4, lk.storeI, lk.AddI)
	res := lk.Run()

	pairs := lk.candIndex.Pairs()
	withBurst := int64(0)
	for _, p := range pairs {
		if u, v := candidates.Ends(p); burstE[u] || burstI[v] {
			withBurst++
		}
	}
	es := res.Stats.EdgeStore
	if es.FullRescore || res.Stats.CandidatePairs != int64(len(pairs)) {
		t.Fatalf("weight-only burst: full rescore %v, %d candidates, Pairs() holds %d",
			es.FullRescore, res.Stats.CandidatePairs, len(pairs))
	}
	if withBurst == 0 || withBurst == int64(len(pairs)) {
		t.Fatalf("%d of %d candidate pairs have a burst endpoint; the test is vacuous", withBurst, len(pairs))
	}
	if es.Rescored != withBurst || es.Retained != int64(len(pairs))-withBurst || es.Dropped != 0 {
		t.Fatalf("rescored %d, retained %d, dropped %d; want %d, %d, 0",
			es.Rescored, es.Retained, es.Dropped, withBurst, int64(len(pairs))-withBurst)
	}
}

// TestResidentBytesExcludeListHandedToTail: a Publish whose tail missed a
// delta rebuilds it from the whole edge set, and the tail adopts that
// list; the store keeps none, so its reported size stays the pair map
// alone. A first Rescore goes unpublished; re-observations then change an
// edge on the delta path; the Publish that follows finds a sequence gap
// and rebuilds the tail in full.
func TestResidentBytesExcludeListHandedToTail(t *testing.T) {
	w := cabWorkload(t, 30, 1)
	cfg := Defaults()
	cfg.LSH = &LSHConfig{Threshold: 0.01, StepWindows: 48, SpatialLevel: 13, NumBuckets: 1 << 14}
	lk, err := NewLinker(w.E, w.I, cfg)
	if err != nil {
		t.Fatal(err)
	}
	lk.Rescore(1)
	for burst := 0; ; burst++ {
		if burst == 8 {
			t.Fatal("no burst changed an edge on the delta path; the test is vacuous")
		}
		// Pile weight onto one known bin of every fourth record's entity.
		for k := burst; k < len(w.E.Records); k += 4 {
			lk.AddE(w.E.Records[k], w.E.Records[k], w.E.Records[k])
		}
		if lk.Rescore(uint64(burst) + 2).EdgeStore.FullRescore {
			t.Fatalf("burst %d: re-observations forced a full rescore", burst)
		}
		if d := lk.edges.delta(); len(d.Changed)+len(d.Removed) > 0 {
			break
		}
	}
	before := lk.edges.statsSnapshot()
	if before.Pairs == 0 || before.ResidentBytes != before.Pairs*edgePairBytes {
		t.Fatalf("after the delta rescore: %d B for %d pairs, want the map alone (%d B a pair)",
			before.ResidentBytes, before.Pairs, edgePairBytes)
	}
	lk.Publish()
	if ts := lk.PublishTailStats(); !ts.LastFull || ts.Edges != int(before.Pairs) {
		t.Fatalf("a tail that missed a delta must rebuild in full from all %d edges: %+v", before.Pairs, ts)
	}
	if after := lk.edges.statsSnapshot(); after.ResidentBytes != before.ResidentBytes {
		t.Fatalf("after Publish handed the list to the tail: %d B, want the map alone (%d B)",
			after.ResidentBytes, before.ResidentBytes)
	}
}
