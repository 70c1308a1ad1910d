package candidates

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"slim/internal/history"
	"slim/internal/model"
)

// pairSet builds a membership set from a pair slice.
func pairSet(ps []Pair) map[Pair]struct{} {
	s := make(map[Pair]struct{}, len(ps))
	for _, p := range ps {
		s[p] = struct{}{}
	}
	return s
}

// diffPairs returns the sorted members of a that are absent from b.
func diffPairs(a []Pair, b map[Pair]struct{}) []Pair {
	var out []Pair
	for _, p := range a {
		if _, ok := b[p]; !ok {
			out = append(out, p)
		}
	}
	SortPairs(out)
	return out
}

// requireDeltaExact checks one Update's Delta against the ground truth:
// Added/Removed must equal the set difference of the before/after Pairs()
// snapshots, and Dirty must equal exactly the kept pairs with an endpoint
// among the entities re-signed this burst (see reported). All lists are
// compared by entity id, in canonical order.
func requireDeltaExact(t *testing.T, step string, se, si *history.Store, d Delta, before, after []Pair,
	burstE, burstI map[model.EntityID]struct{}) {
	t.Helper()
	for _, keys := range [][]uint64{d.Added, d.Removed, d.Dirty} {
		if !slices.IsSorted(keys) {
			t.Fatalf("%s: a Delta list is not in ascending packed-pair order: %v", step, keys)
		}
	}
	added, removed, dirty := named(se, si, d.Added), named(se, si, d.Removed), named(se, si, d.Dirty)
	beforeSet, afterSet := pairSet(before), pairSet(after)
	if wantAdded := diffPairs(after, beforeSet); !slices.Equal(added, wantAdded) {
		t.Fatalf("%s: Added = %v, want set-difference %v", step, added, wantAdded)
	}
	if wantRemoved := diffPairs(before, afterSet); !slices.Equal(removed, wantRemoved) {
		t.Fatalf("%s: Removed = %v, want set-difference %v", step, removed, wantRemoved)
	}
	wantDirty := []Pair{}
	for _, p := range after {
		if _, kept := beforeSet[p]; !kept {
			continue
		}
		_, eChanged := burstE[p.U]
		_, iChanged := burstI[p.V]
		if eChanged || iChanged {
			wantDirty = append(wantDirty, p)
		}
	}
	SortPairs(wantDirty)
	if !slices.Equal(dirty, wantDirty) {
		t.Fatalf("%s: Dirty = %v, want kept-pairs-of-reported-entities %v", step, dirty, wantDirty)
	}
}

// TestIndexDeltaExactSetDifference is the Delta API's exactness suite:
// under randomized interleaved E/I bursts of point and region records —
// including churn inside the data's time range, range growth in both
// directions, over-reported dirty entities, and schedules whose entities
// arrive in descending id order (ordinals anti-sorted) — every Update's
// Delta, the first included, must equal the set difference of the
// before/after candidate sets, with Dirty naming exactly the kept pairs of
// reported entities, and Pairs() the from-scratch CandidatePairs set.
func TestIndexDeltaExactSetDifference(t *testing.T) {
	for _, tc := range suiteCases {
		t.Run(fmt.Sprintf("seed%d/descending=%v", tc.seed, tc.descending), func(t *testing.T) {
			gen := newBurstGen(tc.seed, tc.descending)
			rng := gen.rng
			p := suiteParams

			se, si := sigStore("E", nil, p), sigStore("I", nil, p)
			stores := [2]*history.Store{se, si}
			x := New(se, si, p)
			if d := x.Update(nil, nil); !noWork(d) {
				t.Fatalf("empty-store update produced a delta: %+v", d)
			}

			for burst := 0; burst < 30; burst++ {
				before := named(se, si, x.Pairs())
				dirty := [2]map[uint32]struct{}{{}, {}}
				for k, nRecs := 0, 1+rng.Intn(8); k < nRecs; k++ {
					side, r := gen.next()
					dirty[side][stores[side].Add(r)] = struct{}{}
				}
				// Over-report: an unchanged entity in the dirty set is
				// re-signed to the keys it had, so its kept pairs are Dirty;
				// an unknown one is passed over.
				if rng.Intn(3) == 0 {
					if n := se.Ordinals().Len(); n > 0 {
						dirty[0][uint32(rng.Intn(n))] = struct{}{}
					}
					dirty[1][1<<30] = struct{}{}
				}
				burstE, burstI := reported(se, dirty[0]), reported(si, dirty[1])
				d := x.Update(dirty[0], dirty[1])
				after := named(se, si, x.Pairs())
				requireDeltaExact(t, fmt.Sprintf("burst %d", burst), se, si, d, before, after, burstE, burstI)
				requireParity(t, x, se, si, p, fmt.Sprintf("burst %d", burst))
			}
		})
	}
}

// reported maps a dirty set to the ids of its entities with a history in
// the store — the ground truth for Delta.Dirty membership: the index
// re-signs every one of them, changed or not, and passes over the rest.
func reported(s *history.Store, dirty map[uint32]struct{}) map[model.EntityID]struct{} {
	out := make(map[model.EntityID]struct{}, len(dirty))
	for ord := range dirty {
		if h := s.HistoryAt(ord); h.NumBins() > 0 {
			out[h.Entity] = struct{}{}
		}
	}
	return out
}

// noWork reports whether a Delta asks its consumer for no work at all.
func noWork(d Delta) bool {
	return len(d.Added)+len(d.Removed)+len(d.Dirty) == 0
}

// TestIndexDeltaAcrossOneSideEmpty pins the empty-store transitions: no
// delta while one side is empty, and the first pair to appear arrives as
// an exact Added delta, like any other.
func TestIndexDeltaAcrossOneSideEmpty(t *testing.T) {
	p := Params{Threshold: 0.3, StepWindows: 4, SpatialLevel: level, NumBuckets: 256}
	se, si := sigStore("E", nil, p), sigStore("I", nil, p)
	x := New(se, si, p)
	x.Update(nil, nil)

	for k := 0; k < 8; k++ {
		se.Add(rec("e0", 37.6, -122.4, int64(900*k)))
	}
	if d := x.Update(ords(se, "e0"), nil); !noWork(d) {
		t.Fatalf("one-side-empty update produced a delta: %+v", d)
	}
	for k := 0; k < 8; k++ {
		si.Add(rec("i0", 37.6, -122.4, int64(900*k+30)))
	}
	d := x.Update(nil, ords(si, "i0"))
	requireDeltaExact(t, "both sides", se, si, d, nil, named(se, si, x.Pairs()), nil, map[model.EntityID]struct{}{"i0": {}})
	requireParity(t, x, se, si, p, "both sides")
	if len(d.Added) != 1 {
		t.Fatalf("co-located e0/i0 must arrive as the one Added pair: %+v", d)
	}
}

// TestFirstUpdateAddsTheCandidateSet: the first Update over filled stores
// is a delta from the empty set like every later one — it adds exactly
// Pairs() and names nothing removed or dirty.
func TestFirstUpdateAddsTheCandidateSet(t *testing.T) {
	p := Params{Threshold: 0.3, StepWindows: 4, SpatialLevel: level, NumBuckets: 256}
	var eRecs, iRecs []model.Record
	for e := 0; e < 6; e++ {
		for k := 0; k < 10; k++ {
			eRecs = append(eRecs, rec(fmt.Sprintf("e%d", e), 37.6+float64(e%3)*0.02, -122.4, int64(900*k)))
			iRecs = append(iRecs, rec(fmt.Sprintf("i%d", e), 37.6+float64(e%3)*0.02, -122.4, int64(900*k+60)))
		}
	}
	se, si := sigStore("E", eRecs, p), sigStore("I", iRecs, p)
	x := New(se, si, p)
	d := x.Update(nil, nil)
	if len(d.Added) == 0 || !slices.Equal(d.Added, x.Pairs()) || len(d.Removed)+len(d.Dirty) != 0 {
		t.Fatalf("first Update's delta %+v, want Added = Pairs() = %v", d, x.Pairs())
	}
	requireParity(t, x, se, si, p, "first build")
}

// TestIndexDeltaThroughBothEndpoints pins the two transitions a per-pair
// collision count used to absorb and the definition now has to get right
// on its own: inside one Update a pair stops colliding when its E endpoint
// is re-signed and collides again once its I endpoint is (kept all along:
// Dirty, never Removed then Added), and the mirror — it starts colliding
// through E and stops through I (never a candidate at either end of the
// Update: in no list). A fixed-seed stream of bursts that each re-sign
// entities of both sides, over a handful of cells so band hashes agree
// often, must produce both; the test fails if it does not.
func TestIndexDeltaThroughBothEndpoints(t *testing.T) {
	p := Params{Threshold: 0.3, StepWindows: 4, SpatialLevel: level, NumBuckets: 256}
	const entities, windows = 6, 32
	rng := rand.New(rand.NewSource(5))
	record := func(side, weight int) (int, []model.Record) {
		id := fmt.Sprintf("%c%d", "ei"[side], rng.Intn(entities))
		lat, unix := 37.6+0.05*float64(rng.Intn(3)), int64(900*rng.Intn(windows))
		recs := make([]model.Record, weight)
		for k := range recs {
			recs[k] = rec(id, lat, -122.4, unix)
		}
		return side, recs
	}
	// Every entity spans the whole window range up front, so every band a
	// burst touches already holds both sides.
	var seed [2][]model.Record
	for side := range seed {
		for e := 0; e < entities; e++ {
			id := fmt.Sprintf("%c%d", "ei"[side], e)
			seed[side] = append(seed[side], rec(id, 37.6, -122.4, 0), rec(id, 37.6, -122.4, 900*(windows-1)))
		}
	}
	se, si := sigStore("E", seed[sideE], p), sigStore("I", seed[sideI], p)
	stores := [2]*history.Store{se, si}
	x := New(se, si, p)
	x.Update(nil, nil)

	lostAndRegained, gainedAndLost := 0, 0
	for burst := 0; burst < 400; burst++ {
		var old [2]sideState
		for side := range old {
			old[side].spans = slices.Clone(x.sides[side].spans)
			old[side].keys = slices.Clone(x.sides[side].keys)
		}
		dirty := [2]map[uint32]struct{}{{}, {}}
		for k := 0; k < 4; k++ {
			// Heavier and heavier records, so a burst keeps overturning
			// dominating cells however much weight a window already holds.
			side, recs := record(k%2, 1+burst)
			for _, r := range recs {
				dirty[side][stores[side].Add(r)] = struct{}{}
			}
		}
		d := x.Update(dirty[sideE], dirty[sideI])
		for u := uint32(0); u < entities; u++ {
			for v := uint32(0); v < entities; v++ {
				oldU, oldV := old[sideE].bandsOf(u), old[sideI].bandsOf(v)
				newU, newV := x.sides[sideE].bandsOf(u), x.sides[sideI].bandsOf(v)
				before := sharesBand(oldU, oldV)
				between := sharesBand(newU, oldV) // E is re-signed first
				after := sharesBand(newU, newV)
				key := Key(u, v)
				_, added := slices.BinarySearch(d.Added, key)
				_, removed := slices.BinarySearch(d.Removed, key)
				_, kept := slices.BinarySearch(d.Dirty, key)
				switch {
				case before && !between && after:
					lostAndRegained++
					if added || removed || !kept {
						t.Fatalf("burst %d: pair (%d,%d) lost its last band through E and regained one through I: added=%v removed=%v dirty=%v, want Dirty only",
							burst, u, v, added, removed, kept)
					}
				case !before && between && !after:
					gainedAndLost++
					if added || removed || kept {
						t.Fatalf("burst %d: pair (%d,%d) collided only between the two endpoints' updates: added=%v removed=%v dirty=%v, want no list",
							burst, u, v, added, removed, kept)
					}
				}
			}
		}
		requireParity(t, x, se, si, p, fmt.Sprintf("burst %d", burst))
	}
	t.Logf("%d pairs lost and regained, %d gained and lost within one Update", lostAndRegained, gainedAndLost)
	if lostAndRegained == 0 || gainedAndLost == 0 {
		t.Fatalf("the bursts produced %d lost-and-regained and %d gained-and-lost pairs; the test needs both", lostAndRegained, gainedAndLost)
	}
}
