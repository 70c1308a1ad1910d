package slim

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
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

// tailPair identifies one edge in the synthetic edge-set model.
type tailPair struct{ u, v string }

// TestPublishTailParityRandomized is the publish tail's exactness gate on
// delta shapes real ingest cannot provoke: pair scores are pure functions
// of bin sets and any bin-set change moves an IDF epoch (forcing a full
// rescore), so partial deltas — removals, score changes that invert the
// sorted rank order, ties at the reuse boundary — only reach the tail in
// systems that relax that discipline. This suite feeds the tail synthetic
// EdgeDelta bursts over a quantized score palette (ties everywhere,
// including at reuse boundaries), injects inconsistent deltas (the
// full-rebuild fallback) and explicit epoch rebuilds, and checks every
// publish bit-identically (math.Float64bits) against the from-scratch
// pipeline: MatchLinks + SelectStopThreshold + FilterLinks.
func TestPublishTailParityRandomized(t *testing.T) {
	for _, seed := range []int64{2, 11, 29} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			const nU, nV = 20, 16
			// Quantized palette in (0, 1]: equal scores occur constantly, so
			// the (U, V) tie-break is load-bearing on almost every burst, and
			// a rescore to the top or bottom of the palette inverts ranks.
			score := func() float64 { return float64(1+rng.Intn(16)) / 16 }
			pair := func() tailPair {
				return tailPair{fmt.Sprintf("u%02d", rng.Intn(nU)), fmt.Sprintf("v%02d", rng.Intn(nV))}
			}

			set := map[tailPair]float64{}
			for i := 0; i < 120; i++ {
				set[pair()] = score()
			}
			edges := func() []Link {
				out := make([]Link, 0, len(set))
				for p, s := range set {
					out = append(out, Link{U: EntityID(p.u), V: EntityID(p.v), Score: s})
				}
				return out
			}
			fromScratch := func() (matched, links []Link, thr StopThreshold) {
				matched = MatchLinks(MatcherGreedy, edges())
				thr = SelectStopThreshold(ThresholdGMM, LinkScores(matched))
				return matched, FilterLinks(matched, thr.Threshold), thr
			}
			check := func(step string, matched, links []Link, thr StopThreshold) {
				t.Helper()
				wantM, wantL, wantT := fromScratch()
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

			tail := NewPublishTail(ThresholdGMM)
			m, l, thr := tail.Publish(EdgeDelta{Full: true}, edges)
			check("initial full", m, l, thr)

			sawPartialReuse, sawFallback := false, false
			for burst := 0; burst < 60; burst++ {
				var d EdgeDelta
				switch kind := rng.Intn(10); {
				case kind == 0:
					// Epoch rebuild: the whole edge set is rescored.
					for p := range set {
						if rng.Intn(3) == 0 {
							set[p] = score()
						}
					}
					d = EdgeDelta{Full: true}
				case kind == 1:
					// No-op burst (a dirty rescore that changed nothing):
					// the tail must reuse everything, including the fit.
				case kind == 2:
					// Inconsistent delta — a removal naming a score the
					// matcher doesn't hold. The tail must fall back to a
					// full rebuild and still publish the exact answer.
					d = EdgeDelta{Removed: []Link{{U: "u00", V: "v00", Score: -1}}}
					sawFallback = true
				default:
					touched := map[tailPair]bool{}
					for j := 0; j < 1+rng.Intn(8); j++ {
						p := pair()
						if touched[p] {
							continue
						}
						touched[p] = true
						old, had := set[p]
						switch {
						case had && rng.Intn(3) == 0: // removal
							d.Removed = append(d.Removed, Link{U: EntityID(p.u), V: EntityID(p.v), Score: old})
							delete(set, p)
						case had: // score change (both sides of the delta)
							nw := score()
							if nw == old {
								continue
							}
							d.Removed = append(d.Removed, Link{U: EntityID(p.u), V: EntityID(p.v), Score: old})
							d.Changed = append(d.Changed, Link{U: EntityID(p.u), V: EntityID(p.v), Score: nw})
							set[p] = nw
						default: // insert
							nw := score()
							d.Changed = append(d.Changed, Link{U: EntityID(p.u), V: EntityID(p.v), Score: nw})
							set[p] = nw
						}
					}
				}
				m, l, thr := tail.Publish(d, edges)
				check(fmt.Sprintf("burst %d", burst), m, l, thr)
				if ts := tail.Stats(); !ts.LastFull && ts.ReusedPrefix > 0 && ts.SuffixWalked > 0 {
					sawPartialReuse = true
				}
			}
			ts := tail.Stats()
			if !sawPartialReuse {
				t.Fatal("no burst exercised partial prefix reuse (reused > 0 with a suffix walk)")
			}
			if !sawFallback || ts.Rebuilds < 2 {
				t.Fatalf("fallback path not exercised: %+v", ts)
			}
			if ts.Applies == 0 || ts.Reuses == 0 || ts.Fits == 0 {
				t.Fatalf("stats show a path was never taken: %+v", ts)
			}
		})
	}
}

// TestPublishTailRemovalOfTopLink removes the highest matched link: zero
// prefix survives, the whole suffix re-walks, and the threshold must be
// refit on the shorter score list.
func TestPublishTailRemovalOfTopLink(t *testing.T) {
	all := []Link{
		{U: "e1", V: "i1", Score: 0.95},
		{U: "e2", V: "i2", Score: 0.9},
		{U: "e1", V: "i2", Score: 0.85},
		{U: "e3", V: "i3", Score: 0.2},
		{U: "e4", V: "i4", Score: 0.15},
	}
	tail := NewPublishTail(ThresholdGMM)
	edges := func() []Link { return slices.Clone(all) } // the tail adopts what it gets
	m, _, _ := tail.Publish(EdgeDelta{Full: true}, edges)
	if len(m) == 0 || m[0].Score != 0.95 {
		t.Fatalf("unexpected initial matching: %v", m)
	}

	// Drop the top link: e1 falls to i2, which was previously free for no
	// one — the cascade rewrites the matching from position zero.
	all = all[1:]
	m2, l2, thr := tail.Publish(EdgeDelta{Removed: []Link{{U: "e1", V: "i1", Score: 0.95}}}, edges)
	wantM := MatchLinks(MatcherGreedy, all)
	wantT := SelectStopThreshold(ThresholdGMM, LinkScores(wantM))
	if !sameLinksBits(m2, wantM) {
		t.Fatalf("matched after removal: %v, want %v", m2, wantM)
	}
	if math.Float64bits(thr.Threshold) != math.Float64bits(wantT.Threshold) {
		t.Fatalf("threshold after removal: %v, want %v", thr, wantT)
	}
	if !sameLinksBits(l2, FilterLinks(wantM, wantT.Threshold)) {
		t.Fatalf("links after removal: %v", l2)
	}
	ts := tail.Stats()
	if ts.LastFull || ts.ReusedPrefix != 0 {
		t.Fatalf("removal of the top link must reuse nothing without a rebuild: %+v", ts)
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
