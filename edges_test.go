package slim

import (
	"cmp"
	"fmt"
	"maps"
	"math"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"slim/internal/candidates"
	"slim/internal/history"
	"slim/internal/matching"
	"slim/internal/model"
	"slim/internal/testenv"
	"slim/internal/threshold"
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
// slim_edge_store_resident_bytes on /metrics — to the pair map
// (Pairs × edgePairBytes) plus the greedy order's capacity after a full
// rescore and after a delta update that moves a tenth of the edges, and
// to within 2× of what the 20k-edge store actually retains. Materialising
// the edge set, as RunEdges does, leaves the store's footprint unchanged.
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
	mapAndOrder := func(state string) {
		t.Helper()
		st := es.statsSnapshot()
		want := st.Pairs*edgePairBytes + int64(cap(es.order))*int64(unsafe.Sizeof(scoredPair{}))
		if st.Pairs != nE*nI || len(es.order) != nE*nI || st.ResidentBytes != want {
			t.Fatalf("%s: %d B for %d pairs, want the map (%d B a pair) and the order's %d slots: %d B",
				state, st.ResidentBytes, st.Pairs, edgePairBytes, cap(es.order), want)
		}
	}
	es.resetFull(full, 1)
	mapAndOrder("after a full update")
	var pairs []uint64
	var scored []scoredPair
	for k := 0; k < len(full); k += 10 {
		pairs = append(pairs, full[k].key)
		scored = append(scored, scoredPair{key: full[k].key, score: full[k].score + 0.5})
	}
	es.apply(pairs, scored, nil, 2)
	mapAndOrder("after a delta update")
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
	mapAndOrder("after materialize")
	check("after materialize")
	runtime.KeepAlive(es)
}

// TestDeltaRelinkBuildsNoLinkList: a relink on the delta path keeps the
// edge store's greedy order by splice, and Publish walks that (pair,
// score) column rather than a list of links. Re-observations that shift
// dominating cells move pairs in and out of the LSH candidate set without
// touching an IDF epoch, so edges change on the delta path; after each
// such Rescore the order must still be the map's pairs in greedy order,
// the published result must equal Run's on a twin linker and the
// from-scratch reference bit for bit, and a later RunEdges must still
// hand out the whole edge set in canonical (U, V) order — in a fresh
// slice per call.
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
		before := slices.Clone(lk.edges.order)
		stats := lk.Rescore(uint64(burst) + 2)
		requireGreedyOrder(t, fmt.Sprintf("burst %d", burst), &lk.edges)
		if !slices.Equal(before, lk.edges.order) {
			changed++
		}
		wantM, wantL, wantT := referencePublish(&lk.edges, cfg.Threshold)
		matched, links, thr := lk.Publish()
		requirePublish(t, fmt.Sprintf("burst %d", burst), matched, links, thr, wantM, wantL, wantT)
		es := stats.EdgeStore
		if es.FullRescore {
			t.Fatalf("burst %d: re-observations forced a full rescore", burst)
		}
		if stats.PositiveEdges != int64(len(lk.edges.pairs)) || es.Pairs != stats.PositiveEdges {
			t.Fatalf("burst %d: PositiveEdges %d, Pairs %d, store holds %d", burst, stats.PositiveEdges, es.Pairs, len(lk.edges.pairs))
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

// TestPublishAfterUnpublishedRescores: Rescores that nobody publishes
// leave nothing for Publish to catch up on, since the greedy order changes
// in the same call as the pairs. A first Rescore goes unpublished;
// re-observations then change edges on the delta path, eight Rescores in
// a row; the Publish that follows equals the from-scratch reference bit
// for bit and leaves the store's reported size as it was.
func TestPublishAfterUnpublishedRescores(t *testing.T) {
	w := cabWorkload(t, 30, 1)
	cfg := Defaults()
	cfg.LSH = &LSHConfig{Threshold: 0.01, StepWindows: 48, SpatialLevel: 13, NumBuckets: 1 << 14}
	lk, err := NewLinker(w.E, w.I, cfg)
	if err != nil {
		t.Fatal(err)
	}
	lk.Rescore(1)
	changed := 0
	for burst := 0; burst < 8; burst++ {
		// Pile weight onto one known bin of every fourth record's entity.
		for k := burst; k < len(w.E.Records); k += 4 {
			lk.AddE(w.E.Records[k], w.E.Records[k], w.E.Records[k])
		}
		before := slices.Clone(lk.edges.order)
		if lk.Rescore(uint64(burst) + 2).EdgeStore.FullRescore {
			t.Fatalf("burst %d: re-observations forced a full rescore", burst)
		}
		if !slices.Equal(before, lk.edges.order) {
			changed++
		}
	}
	if changed == 0 {
		t.Fatal("no burst changed an edge on the delta path; the test is vacuous")
	}
	requireGreedyOrder(t, "after eight unpublished rescores", &lk.edges)
	before := lk.edges.statsSnapshot()
	wantM, wantL, wantT := referencePublish(&lk.edges, cfg.Threshold)
	matched, links, thr := lk.Publish()
	requirePublish(t, "publish after eight unpublished rescores", matched, links, thr, wantM, wantL, wantT)
	if after := lk.edges.statsSnapshot(); after.ResidentBytes != before.ResidentBytes {
		t.Fatalf("Publish moved the store's size from %d B to %d B", before.ResidentBytes, after.ResidentBytes)
	}
}

// referencePublish is the from-scratch pipeline Publish is held to:
// MatchLinks → SelectStopThreshold → FilterLinks over every retained edge.
func referencePublish(es *edgeStore, method ThresholdMethod) (matched, links []Link, thr StopThreshold) {
	matched = MatchLinks(MatcherGreedy, es.materialize())
	thr = SelectStopThreshold(method, LinkScores(matched))
	return matched, FilterLinks(matched, thr.Threshold), thr
}

// requirePublish fails unless a Publish's matching, links and threshold
// are bit-identical (math.Float64bits) to the reference's.
func requirePublish(t testing.TB, step string, matched, links []Link, thr StopThreshold, wantM, wantL []Link, wantT StopThreshold) {
	t.Helper()
	if !sameLinksBits(matched, wantM) {
		t.Fatalf("%s: matched diverged (%d vs %d)", step, len(matched), len(wantM))
	}
	if math.Float64bits(thr.Threshold) != math.Float64bits(wantT.Threshold) || thr.Method != wantT.Method {
		t.Fatalf("%s: threshold %v, want %v", step, thr, wantT)
	}
	if !sameLinksBits(links, wantL) {
		t.Fatalf("%s: links diverged (%d vs %d)", step, len(links), len(wantL))
	}
}

// requireGreedyOrder fails unless the store's order column holds exactly
// its map's pairs, each with the map's score, sorted by matching.Compare.
func requireGreedyOrder(t testing.TB, step string, es *edgeStore) {
	t.Helper()
	want := es.materialize()
	slices.SortFunc(want, matching.Compare)
	got := make([]Link, len(es.order))
	for k, sp := range es.order {
		got[k] = es.link(sp.key, sp.score)
	}
	if !sameLinksBits(got, want) {
		t.Fatalf("%s: the order column (%d edges) is not the map's %d pairs in greedy order", step, len(got), len(want))
	}
}

// permutedTable returns a side's entity table of n entities whose ids sort
// in a different order than their ordinals: ordinal k is prefix plus
// (5k mod n), zero-padded, so n must not be a multiple of 5.
func permutedTable(prefix string, n int) *history.Ordinals {
	st := history.Build(&model.Dataset{Name: prefix}, model.Windowing{WidthSeconds: 900}, 12)
	for k := 0; k < n; k++ {
		st.Add(NewRecord(EntityID(fmt.Sprintf("%s%02d", prefix, 5*k%n)), 37.5, -122.3, 1_200_000_000))
	}
	return st.Ordinals()
}

// edgeOrderSides is the size of each side in runEdgeOrder: 16 × 16 pairs
// over a four-score palette, so most scores are tied.
const edgeOrderSides = 16

// edgeOrderRun counts what one runEdgeOrder program exercised.
type edgeOrderRun struct {
	fulls, splices, ties int
}

// runEdgeOrder drives an edge store through the update program data
// spells — full rescores and delta updates with adds, drops, removals and
// score changes over a four-score palette — beside a plain pair → score
// reference map. After every update it checks that the store's pairs are
// the reference's, that its order column is those pairs in greedy order, and that
// Publish (one publishTail, so the threshold fit cache is live across
// updates) equals the from-scratch reference bit for bit.
func runEdgeOrder(t testing.TB, data []byte) edgeOrderRun {
	const n = edgeOrderSides
	es := newEdgeStore(permutedTable("u", n), permutedTable("v", n))
	tail := publishTail{thr: threshold.Cache{Method: ThresholdGMM}}
	ref := map[uint64]float64{}
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	// score is 0 (not positive) or one of four tied values.
	score := func() float64 { return float64(next()%5) / 4 }
	var run edgeOrderRun
	for seq := uint64(1); len(data) > 0; seq++ {
		op, touched := next(), 1+next()%8
		if op%8 == 0 || !es.built {
			for k := 0; k < touched; k++ {
				p := candidates.Key(uint32(next()%n), uint32(next()%n))
				if s := score(); s > 0 {
					ref[p] = s
				} else {
					delete(ref, p)
				}
			}
			// The scoring fan-out hands over the positive pairs in pair order.
			all := make([]scoredPair, 0, len(ref))
			for _, p := range slices.Sorted(maps.Keys(ref)) {
				all = append(all, scoredPair{p, ref[p]})
			}
			es.resetFull(all, seq)
			es.built = true
			run.fulls++
		} else {
			var rescored, removed []uint64
			var positive []scoredPair
			seen := map[uint64]bool{}
			for k := 0; k < touched; k++ {
				p := candidates.Key(uint32(next()%n), uint32(next()%n))
				if seen[p] {
					continue
				}
				seen[p] = true
				if next()%4 == 0 {
					removed = append(removed, p) // left the candidate set
					delete(ref, p)
					continue
				}
				rescored = append(rescored, p)
				if s := score(); s > 0 {
					positive = append(positive, scoredPair{p, s})
					ref[p] = s
				} else {
					delete(ref, p)
				}
			}
			before := slices.Clone(es.order)
			es.apply(rescored, positive, removed, seq)
			if !slices.Equal(before, es.order) {
				run.splices++
			}
		}
		step := fmt.Sprintf("update %d", seq)
		if len(es.pairs) != len(ref) {
			t.Fatalf("%s: store holds %d pairs, the reference %d", step, len(es.pairs), len(ref))
		}
		for p, s := range ref {
			if e, ok := es.pairs[p]; !ok || math.Float64bits(e.score) != math.Float64bits(s) {
				t.Fatalf("%s: pair %x scored %v in the store, %v in the reference", step, p, e.score, s)
			}
		}
		requireGreedyOrder(t, step, &es)
		for k := 1; k < len(es.order); k++ {
			if es.order[k].score == es.order[k-1].score {
				run.ties++
				break
			}
		}
		wantM, wantL, wantT := referencePublish(&es, ThresholdGMM)
		matched, links, thr := tail.publish(&es)
		requirePublish(t, step, matched, links, thr, wantM, wantL, wantT)
	}
	return run
}
