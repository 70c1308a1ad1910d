package slim

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"slim/internal/candidates"
	"slim/internal/threshold"
)

// sameLinksBits reports whether two link lists are bit-identical:
// same pairs in the same order with Float64bits-equal scores.
func sameLinksBits(a, b []Link) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].U != b[i].U || a[i].V != b[i].V ||
			math.Float64bits(a[i].Score) != math.Float64bits(b[i].Score) {
			return false
		}
	}
	return true
}

// TestPublishTailParityRandomized is Publish's exactness gate on delta
// shapes real ingest rarely provokes — removals, score changes that invert
// the rank order, long runs of tied scores whose ids sort against their
// ordinals — run through runEdgeOrder (FuzzEdgeOrder's body) on 4 KB
// programs drawn from fixed seeds. Every update checks the store's greedy
// order and checks Publish bit for bit against MatchLinks +
// SelectStopThreshold + FilterLinks; each program must take the full and
// the delta path and publish tied scores.
func TestPublishTailParityRandomized(t *testing.T) {
	for _, seed := range []int64{2, 11, 29} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			data := make([]byte, 4096)
			rand.New(rand.NewSource(seed)).Read(data)
			run := runEdgeOrder(t, data)
			if run.fulls == 0 || run.deltas == 0 || run.ties == 0 {
				t.Fatalf("a path was never taken: %+v", run)
			}
		})
	}
}

// TestPublishTailRemovalOfTopLink removes the highest matched link on the
// delta path: its U end's only other edge is lost to the next link's V
// end, so the matching changes from its first edge, loses one link, and
// the threshold is refit on the shorter score list.
func TestPublishTailRemovalOfTopLink(t *testing.T) {
	es := edgeStore{idsE: sideTable("e", 4), idsI: sideTable("i", 4)}
	key := func(u, v uint32) uint64 { return candidates.Key(u, v) }
	es.resetFull([][]scoredPair{{
		{key(0, 0), 0.95}, {key(1, 1), 0.9}, {key(0, 1), 0.85}, {key(2, 2), 0.2}, {key(3, 3), 0.15},
	}}, 1)
	tail := publishTail{thr: threshold.Cache{Method: ThresholdGMM}}
	m, _, _ := tail.publish(&es)
	if len(m) == 0 || m[0].Score != 0.95 {
		t.Fatalf("unexpected initial matching: %v", m)
	}

	// E entity 0 is dirty: of its pairs only (0, 1) is still a candidate,
	// at the score it had.
	if dropped := es.apply([]scoredPair{{key(0, 1), 0.85}}, map[uint32]struct{}{0: {}}, nil, 2); dropped != 1 {
		t.Fatalf("removing the top pair dropped %d edges", dropped)
	}
	requireGreedyOrder(t, "after the removal", &es, map[uint64]float64{key(1, 1): 0.9, key(0, 1): 0.85, key(2, 2): 0.2, key(3, 3): 0.15})
	wantM, wantL, wantT := referencePublish(&es, ThresholdGMM)
	m2, l2, thr := tail.publish(&es)
	requirePublish(t, "after the removal", m2, l2, thr, wantM, wantL, wantT)
	if len(m) != 4 || len(m2) != 3 || m2[0] != m[1] {
		t.Fatalf("matched after removal: %v", m2)
	}
}

// TestPublishedSlicesAreNeverWrittenAgain holds Publish's immutability
// contract now that nothing is copied on the way out: matched is the
// matcher's own slice and links a prefix of it. A churning LSH linker
// (re-observations that move pairs in and out of the candidate set on the
// delta path, as in TestDeltaRelinkBuildsNoLinkList) publishes 60 times;
// every slice it ever returned is kept beside a copy taken at return time
// and must still equal it bit for bit at the end, and each run proceeds
// while another goroutine reads the previous result — what GET /v1/links
// does to the engine's published result — which must be clean under -race.
func TestPublishedSlicesAreNeverWrittenAgain(t *testing.T) {
	w := cabWorkload(t, 30, 1)
	cfg := Defaults()
	cfg.LSH = &LSHConfig{Threshold: 0.01, StepWindows: 48, SpatialLevel: 13, NumBuckets: 1 << 14}
	lk, err := NewLinker(w.E, w.I, cfg)
	if err != nil {
		t.Fatal(err)
	}
	type held struct{ got, want []Link }
	var all []held
	hold := func(res Result) {
		all = append(all, held{res.Matched, slices.Clone(res.Matched)}, held{res.Links, slices.Clone(res.Links)})
	}
	prev := lk.Run()
	hold(prev)

	deltas, changed := 0, 0
	for burst := 0; burst < 60; burst++ {
		// Pile weight onto one known bin of every fourth record's entity.
		for k := burst; k < len(w.E.Records); k += 4 {
			lk.AddE(w.E.Records[k], w.E.Records[k], w.E.Records[k])
		}
		read := make(chan float64)
		go func(published []Link) { // Links is a prefix of Matched
			var sum float64
			for _, l := range published {
				sum += l.Score + float64(len(l.U)+len(l.V))
			}
			read <- sum
		}(prev.Matched)
		res := lk.Run()
		<-read
		if !res.Stats.EdgeStore.FullRescore {
			deltas++
		}
		if !sameLinksBits(res.Matched, prev.Matched) {
			changed++
		}
		hold(res)
		prev = res
	}
	t.Logf("%d delta publishes, %d changed the matching", deltas, changed)
	if deltas < 50 || changed == 0 {
		t.Fatalf("%d delta publishes, %d of them changed the matching; the test is vacuous", deltas, changed)
	}
	for k, h := range all {
		if !sameLinksBits(h.got, h.want) {
			t.Fatalf("slice %d (publish %d) was written after it was returned", k, k/2)
		}
	}
}
