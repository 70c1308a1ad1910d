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

// TestEdgeStoreResidentBytesExact holds EdgeStoreStats.ResidentBytes —
// slim_edge_store_resident_bytes on /metrics — to the order column's
// capacity in edge records after a full rescore and after a delta update
// that rescores a tenth of the edges (those of every tenth E entity), and to within 10 % of what the
// 20k-edge store actually retains, at no more than 50 B an edge.
// Materialising the edge set, as RunEdges does, leaves the store's
// footprint unchanged.
func TestEdgeStoreResidentBytesExact(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("heap budgets are meaningless under the race detector")
	}
	const nE, nI = 200, 100
	idsE, idsI := sideTable("e", nE), sideTable("i", nI)
	before := testenv.LiveHeap()
	es := edgeStore{idsE: idsE, idsI: idsI}
	full := make([]scoredPair, 0, nE*nI)
	for u := uint32(0); u < nE; u++ {
		for v := uint32(0); v < nI; v++ {
			full = append(full, scoredPair{key: candidates.Key(u, v), score: 1 + float64(u*nI+v)})
		}
	}
	column := func(state string) {
		t.Helper()
		st := es.statsSnapshot()
		want := int64(cap(es.order)) * int64(unsafe.Sizeof(edge{}))
		if st.Pairs != nE*nI || len(es.order) != nE*nI || st.ResidentBytes != want {
			t.Fatalf("%s: %d B for %d pairs, want the order's %d slots of %d B: %d B",
				state, st.ResidentBytes, st.Pairs, cap(es.order), unsafe.Sizeof(edge{}), want)
		}
	}
	es.resetFull([][]scoredPair{full}, 1)
	column("after a full update")
	// Every tenth E entity is dirty and each of its pairs takes a new score.
	dirtyE := map[uint32]struct{}{}
	var scored []scoredPair
	for _, sp := range full {
		if u, _ := candidates.Ends(sp.key); u%10 == 0 {
			dirtyE[u] = struct{}{}
			scored = append(scored, scoredPair{key: sp.key, score: sp.score + 0.5})
		}
	}
	es.apply(scored, dirtyE, nil, 2)
	column("after a delta update")
	full, scored = nil, nil

	check := func(state string) {
		t.Helper()
		measured, counted := testenv.Retained(before), es.statsSnapshot().ResidentBytes
		t.Logf("%d edges, %s: measured %d B (%.1f per edge), counted %d B (%.1f per edge)",
			nE*nI, state, measured, float64(measured)/(nE*nI), counted, float64(counted)/(nE*nI))
		if 10*counted > 11*measured || 10*counted < 9*measured {
			t.Errorf("%s: ResidentBytes %d is not within 10 %% of the measured %d", state, counted, measured)
		}
		if measured > 50*nE*nI {
			t.Errorf("%s: the store retains %d B, more than 50 B for each of its %d edges", state, measured, nE*nI)
		}
	}
	check("after a delta update")
	if links := es.materialize(); len(links) != nE*nI {
		t.Fatalf("store holds %d edges, want %d", len(links), nE*nI)
	}
	column("after materialize")
	check("after materialize")
	runtime.KeepAlive(es)
}

// TestEdgeLineageFollowsTenure walks one store through each lineage rule
// by hand. A rescore to the same score moves only RescoredSeq; a new
// score keeps the tenure and the last-full fields; a pair that enters on
// a delta starts its tenure with no last-full fields, and so does one
// dropped and added again; a full rescore keeps every tenure and moves the
// rest of the lineage to its run. Each delta names its dirty entities and
// the positive scores of their current candidate pairs, so an edge leaves
// when its dirty endpoint's pairs no longer name it, through either side.
func TestEdgeLineageFollowsTenure(t *testing.T) {
	es := edgeStore{idsE: sideTable("e", 3), idsI: sideTable("i", 3)}
	a, b, c := candidates.Key(0, 0), candidates.Key(1, 1), candidates.Key(2, 2)
	dirty := func(ords ...uint32) map[uint32]struct{} {
		set := map[uint32]struct{}{}
		for _, ord := range ords {
			set[ord] = struct{}{}
		}
		return set
	}
	check := func(step string, p uint64, want EdgeLineage) {
		t.Helper()
		if got := es.lineage(p); !sameLineage(got, want) {
			t.Fatalf("%s: pair %x has lineage %+v, want %+v", step, p, got, want)
		}
	}
	es.resetFull([][]scoredPair{{{a, 0.5}, {b, 0.25}}}, 1)
	check("full rescore", a, EdgeLineage{Linked: true, Score: 0.5, RescoredSeq: 1, RetainedSinceSeq: 1, LastFullSeq: 1, ScoreAtLastFull: 0.5, StoreEpoch: 1})
	check("full rescore", c, EdgeLineage{StoreEpoch: 1})

	es.apply([]scoredPair{{a, 0.5}, {b, 0.75}, {c, 0.125}}, dirty(0, 1, 2), nil, 2)
	check("same score", a, EdgeLineage{Linked: true, Score: 0.5, RescoredSeq: 2, RetainedSinceSeq: 1, LastFullSeq: 1, ScoreAtLastFull: 0.5, StoreEpoch: 1})
	check("new score", b, EdgeLineage{Linked: true, Score: 0.75, RescoredSeq: 2, RetainedSinceSeq: 1, LastFullSeq: 1, ScoreAtLastFull: 0.25, StoreEpoch: 1})
	check("added", c, EdgeLineage{Linked: true, Score: 0.125, RescoredSeq: 2, RetainedSinceSeq: 2, StoreEpoch: 1})

	if dropped := es.apply(nil, dirty(1), nil, 3); dropped != 1 {
		t.Fatalf("a pair of a dirty E entity that left the candidate set dropped %d edges", dropped)
	}
	check("left the candidate set", b, EdgeLineage{StoreEpoch: 1})
	check("not dirty", a, EdgeLineage{Linked: true, Score: 0.5, RescoredSeq: 2, RetainedSinceSeq: 1, LastFullSeq: 1, ScoreAtLastFull: 0.5, StoreEpoch: 1})
	es.apply([]scoredPair{{b, 0.25}}, dirty(1), nil, 4)
	check("added again", b, EdgeLineage{Linked: true, Score: 0.25, RescoredSeq: 4, RetainedSinceSeq: 4, StoreEpoch: 1})
	if dropped := es.apply(nil, nil, dirty(2), 5); dropped != 1 {
		t.Fatalf("a pair of a dirty I entity with no positive score dropped %d edges", dropped)
	}
	check("no positive score", c, EdgeLineage{StoreEpoch: 1})

	es.resetFull([][]scoredPair{{{a, 0.5}, {b, 0.5}, {c, 0.25}}}, 6)
	check("second full rescore", a, EdgeLineage{Linked: true, Score: 0.5, RescoredSeq: 6, RetainedSinceSeq: 1, LastFullSeq: 6, ScoreAtLastFull: 0.5, StoreEpoch: 2})
	check("second full rescore", b, EdgeLineage{Linked: true, Score: 0.5, RescoredSeq: 6, RetainedSinceSeq: 4, LastFullSeq: 6, ScoreAtLastFull: 0.5, StoreEpoch: 2})
	check("second full rescore", c, EdgeLineage{Linked: true, Score: 0.25, RescoredSeq: 6, RetainedSinceSeq: 6, LastFullSeq: 6, ScoreAtLastFull: 0.25, StoreEpoch: 2})
	requireGreedyOrder(t, "second full rescore", &es, map[uint64]float64{a: 0.5, b: 0.5, c: 0.25})
}

// TestDeltaRelinkBuildsNoLinkList: a relink on the delta path keeps the
// edge store's greedy order by a merge, and Publish walks that column
// rather than a list of links. Re-observations that shift dominating
// cells move pairs in and out of the LSH candidate set without touching
// an IDF epoch, so edges change on the delta path; after each such
// Rescore the order must still be the candidate pairs' from-scratch
// positive scores in greedy order,
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
		before := scoredOrder(&lk.edges)
		stats := lk.Rescore(uint64(burst) + 2)
		requireGreedyOrder(t, fmt.Sprintf("burst %d", burst), &lk.edges, scoredFromScratch(lk))
		if !slices.Equal(before, scoredOrder(&lk.edges)) {
			changed++
		}
		wantM, wantL, wantT := referencePublish(&lk.edges, cfg.Threshold)
		matched, links, thr := lk.Publish()
		requirePublish(t, fmt.Sprintf("burst %d", burst), matched, links, thr, wantM, wantL, wantT)
		es := stats.EdgeStore
		if es.FullRescore {
			t.Fatalf("burst %d: re-observations forced a full rescore", burst)
		}
		if stats.PositiveEdges != int64(len(lk.edges.order)) || es.Pairs != stats.PositiveEdges {
			t.Fatalf("burst %d: PositiveEdges %d, Pairs %d, store holds %d", burst, stats.PositiveEdges, es.Pairs, len(lk.edges.order))
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
// every score as they were. P, the burst entities' pairs after the run's
// one candidate-index update, is therefore exactly the candidate pairs with
// a burst endpoint, and Rescore scores exactly those pairs, retains every
// other one and drops none.
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

	pairs := candidatePairs(lk)
	withBurst := int64(0)
	for _, p := range pairs {
		if u, v := candidates.Ends(p); burstE[u] || burstI[v] {
			withBurst++
		}
	}
	es := res.Stats.EdgeStore
	if es.FullRescore || res.Stats.CandidatePairs != int64(len(pairs)) {
		t.Fatalf("weight-only burst: full rescore %v, %d candidates, the walk finds %d",
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

// TestFullRescoreKeepsTenure: a full rescore walks every E ordinal's pairs,
// and resetFull finds each pair's tenure by one merge against the old
// column, which holds only while the walk's pairs ascend. Under both
// filters and at one and three workers, a delta run and then a record that
// opens a new bin (a full rescore) must leave every previously retained
// pair linked with the RetainedSinceSeq it had, rescored in the new run.
func TestFullRescoreKeepsTenure(t *testing.T) {
	w := cabWorkload(t, 20, 3)
	for _, lsh := range []bool{false, true} {
		for _, workers := range []int{1, 3} {
			t.Run(fmt.Sprintf("lsh=%v/workers=%d", lsh, workers), func(t *testing.T) {
				cfg := Defaults()
				cfg.Workers = workers
				if lsh {
					cfg.LSH = &LSHConfig{Threshold: 0.3, StepWindows: 8, SpatialLevel: 10, NumBuckets: 64} // 41 of 169 pairs
				}
				lk, err := NewLinker(w.E, w.I, cfg)
				if err != nil {
					t.Fatal(err)
				}
				lk.Run()
				byEntity := w.E.ByEntity()
				for k, id := range lk.EntitiesE() {
					if k%3 == 0 {
						lk.AddE(byEntity[id]...) // weight only: no new bin
					}
				}
				if res := lk.Run(); res.Stats.EdgeStore.FullRescore {
					t.Fatal("the weight-only burst forced a full rescore; the test needs a delta run")
				}
				since := map[[2]EntityID]uint64{}
				for _, l := range lk.edges.materialize() {
					since[[2]EntityID{l.U, l.V}] = lk.Explain(l.U, l.V).Edge.RetainedSinceSeq
				}
				if len(since) == 0 {
					t.Fatal("no retained pair; the test compares nothing")
				}

				// A month before the data: a new window, where no I record
				// can give the entity an alibi.
				first := byEntity[lk.EntitiesE()[0]][0]
				lk.AddE(NewRecord(first.Entity, first.LatLng.Lat, first.LatLng.Lng, first.Unix-30*86400))
				res := lk.Run()
				if !res.Stats.EdgeStore.FullRescore {
					t.Fatal("a record in a new bin did not force a full rescore")
				}
				seq := lk.edges.seq
				for pair, was := range since {
					e := lk.Explain(pair[0], pair[1]).Edge
					if !e.Linked || e.RetainedSinceSeq != was || e.LastFullSeq != seq || e.RescoredSeq != seq {
						t.Fatalf("pair %v across the full rescore (run %d): linked %v, retained since %d (was %d), last full %d, rescored %d",
							pair, seq, e.Linked, e.RetainedSinceSeq, was, e.LastFullSeq, e.RescoredSeq)
					}
				}
			})
		}
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
		before := scoredOrder(&lk.edges)
		if lk.Rescore(uint64(burst) + 2).EdgeStore.FullRescore {
			t.Fatalf("burst %d: re-observations forced a full rescore", burst)
		}
		if !slices.Equal(before, scoredOrder(&lk.edges)) {
			changed++
		}
	}
	if changed == 0 {
		t.Fatal("no burst changed an edge on the delta path; the test is vacuous")
	}
	requireGreedyOrder(t, "after eight unpublished rescores", &lk.edges, scoredFromScratch(lk))
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
// the pairs of want, an independent model of the edge set, each with its
// score bit for bit, sorted by matching.Compare.
func requireGreedyOrder(t testing.TB, step string, es *edgeStore, want map[uint64]float64) {
	t.Helper()
	wantLinks := make([]Link, 0, len(want))
	for p, s := range want {
		wantLinks = append(wantLinks, es.link(p, s))
	}
	slices.SortFunc(wantLinks, matching.Compare)
	got := make([]Link, len(es.order))
	for k, e := range es.order {
		got[k] = es.link(e.key, e.score)
	}
	if !sameLinksBits(got, wantLinks) {
		t.Fatalf("%s: the order column (%d edges) is not the model's %d pairs in greedy order", step, len(got), len(wantLinks))
	}
}

// candidatePairs is the linker's candidate set as a full rescore walks it:
// every E ordinal's pairs, in turn.
func candidatePairs(lk *Linker) []uint64 {
	var pairs []uint64
	for u := range uint32(lk.storeE.NumEntities()) {
		pairs = lk.pairsOf(pairs, candidates.SideE, u)
	}
	return pairs
}

// scoredFromScratch is the edge set a linker's store must hold, scored
// anew: every candidate pair through the linker's scorer, counted nowhere,
// positive ones kept.
func scoredFromScratch(lk *Linker) map[uint64]float64 {
	want := map[uint64]float64{}
	for _, p := range candidatePairs(lk) {
		u, v := candidates.Ends(p)
		if s := lk.scorer.ScoreOrd(u, v, nil); s > 0 {
			want[p] = s
		}
	}
	return want
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
	fulls, deltas, ties int
}

// runEdgeOrder drives an edge store through the update program data
// spells — full rescores and delta updates over a four-score palette —
// beside a reference model of every pair's EdgeLineage. A delta draws
// dirty entities on both sides; each pair with a dirty endpoint is then
// either rescored to a palette score, zero included, or is no longer a
// candidate. After every update it checks each pair's lineage field by
// field against the model, that the store's order column is the model's
// pairs in greedy order, and that Publish (one publishTail, so the
// threshold fit cache is live across updates) equals the from-scratch
// reference bit for bit. The model's rules: a full rescore keeps each
// pair's tenure and moves the rest of its lineage to the run; a delta drop
// ends a tenure, so a re-add starts a new one with no last-full fields; a
// rescore moves only the score and RescoredSeq.
func runEdgeOrder(t testing.TB, data []byte) edgeOrderRun {
	const n = edgeOrderSides
	es := edgeStore{idsE: permutedTable("u", n), idsI: permutedTable("v", n)}
	tail := publishTail{thr: threshold.Cache{Method: ThresholdGMM}}
	ref := map[uint64]EdgeLineage{}
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
	epoch := uint64(0)
	for seq := uint64(1); len(data) > 0; seq++ {
		op := next()
		if op%8 == 0 || !es.built {
			scores := map[uint64]float64{}
			for p, l := range ref {
				scores[p] = l.Score
			}
			for k, touched := 0, 1+next()%8; k < touched; k++ {
				p := candidates.Key(uint32(next()%n), uint32(next()%n))
				if s := score(); s > 0 {
					scores[p] = s
				} else {
					delete(scores, p)
				}
			}
			// The scoring fan-out hands over the positive pairs in pair order.
			all := make([]scoredPair, 0, len(scores))
			full := map[uint64]EdgeLineage{}
			for _, p := range slices.Sorted(maps.Keys(scores)) {
				s := scores[p]
				all = append(all, scoredPair{p, s})
				since := seq
				if old, ok := ref[p]; ok {
					since = old.RetainedSinceSeq
				}
				full[p] = EdgeLineage{Linked: true, Score: s, RescoredSeq: seq, RetainedSinceSeq: since, LastFullSeq: seq, ScoreAtLastFull: s}
			}
			ref = full
			es.resetFull([][]scoredPair{all}, seq)
			es.built = true
			epoch++
			run.fulls++
		} else {
			// Up to two dirty entities a side, at least one in all.
			dirtyE, dirtyI := map[uint32]struct{}{}, map[uint32]struct{}{}
			nE, nI := next()%3, next()%3
			if nE+nI == 0 {
				nE = 1
			}
			for k := 0; k < nE; k++ {
				dirtyE[uint32(next()%n)] = struct{}{}
			}
			for k := 0; k < nI; k++ {
				dirtyI[uint32(next()%n)] = struct{}{}
			}
			// P's pairs come in pair order: one byte each says whether the
			// pair is still a candidate and, if so, its score.
			var positive []scoredPair
			for u := uint32(0); u < n; u++ {
				for v := uint32(0); v < n; v++ {
					_, du := dirtyE[u]
					_, dv := dirtyI[v]
					if !du && !dv {
						continue
					}
					p, b := candidates.Key(u, v), next()
					if b%4 == 0 { // no longer a candidate
						delete(ref, p)
						continue
					}
					if s := float64(b/4%5) / 4; s > 0 {
						positive = append(positive, scoredPair{p, s})
						l, had := ref[p]
						if !had {
							l = EdgeLineage{Linked: true, RetainedSinceSeq: seq}
						}
						l.Score, l.RescoredSeq = s, seq
						ref[p] = l
					} else {
						delete(ref, p)
					}
				}
			}
			before := scoredOrder(&es)
			es.apply(positive, dirtyE, dirtyI, seq)
			if !slices.Equal(before, scoredOrder(&es)) {
				run.deltas++
			}
		}
		step := fmt.Sprintf("update %d", seq)
		if got := es.statsSnapshot().Pairs; got != int64(len(ref)) {
			t.Fatalf("%s: store holds %d pairs, the reference %d", step, got, len(ref))
		}
		scores := make(map[uint64]float64, len(ref))
		for u := uint32(0); u < n; u++ {
			for v := uint32(0); v < n; v++ {
				p := candidates.Key(u, v)
				want := ref[p]
				want.StoreEpoch = epoch
				if got := es.lineage(p); !sameLineage(got, want) {
					t.Fatalf("%s: pair %x has lineage %+v in the store, %+v in the reference", step, p, got, want)
				}
				if want.Linked {
					scores[p] = want.Score
				}
			}
		}
		requireGreedyOrder(t, step, &es, scores)
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

// sameLineage reports whether two lineages are equal, scores bit for bit.
func sameLineage(a, b EdgeLineage) bool {
	if math.Float64bits(a.Score) != math.Float64bits(b.Score) ||
		math.Float64bits(a.ScoreAtLastFull) != math.Float64bits(b.ScoreAtLastFull) {
		return false
	}
	a.Score, a.ScoreAtLastFull, b.Score, b.ScoreAtLastFull = 0, 0, 0, 0
	return a == b
}

// scoredOrder returns the store's order column as (pair, score): what
// Publish reads of it, without the lineage a same-score rescore restamps.
func scoredOrder(es *edgeStore) []scoredPair {
	out := make([]scoredPair, len(es.order))
	for k, e := range es.order {
		out[k] = scoredPair{e.key, e.score}
	}
	return out
}
