package candidates

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"slim/internal/history"
	"slim/internal/model"
)

// requireUpdateExact checks one Update against the from-scratch oracle:
// got, the dirty entities' pairs after it (dirtyPairs, what a delta
// relink rescores), must be exactly the CandidatePairs with an endpoint
// among reportedE/reportedI (the entities the Update re-signed, see
// reported). Every other pair must have kept its candidacy, so the set
// after the Update is the set before less every pair of a reported entity,
// plus got: the difference the index's count follows.
func requireUpdateExact(t *testing.T, step string, se, si *history.Store, p Params, got []uint64, before []Pair,
	reportedE, reportedI map[model.EntityID]struct{}) {
	t.Helper()
	ofReported := func(pr Pair) bool {
		_, e := reportedE[pr.U]
		_, i := reportedI[pr.V]
		return e || i
	}
	after := batchPairs(se, si, p)
	want := []Pair{}
	for _, pr := range after {
		if ofReported(pr) {
			want = append(want, pr)
		}
	}
	if named := named(se, si, got); !slices.Equal(named, want) {
		t.Fatalf("%s: the dirty entities' pairs are %v, want the candidate pairs of reported entities %v", step, named, want)
	}
	next := append(slices.DeleteFunc(slices.Clone(before), ofReported), want...)
	if SortPairs(next); !slices.Equal(next, after) {
		t.Fatalf("%s: a pair with no reported endpoint changed its candidacy: before less reported plus theirs %v, after %v",
			step, next, after)
	}
}

// reported maps a dirty set to the ids of its entities with a history in
// the store: the index re-signs every one of them, changed or not, and
// passes over the rest.
func reported(s *history.Store, dirty map[uint32]struct{}) map[model.EntityID]struct{} {
	out := make(map[model.EntityID]struct{}, len(dirty))
	for ord := range dirty {
		if h := s.HistoryAt(ord); h.NumBins() > 0 {
			out[h.Entity] = struct{}{}
		}
	}
	return out
}

// TestIndexDeltaExactSetDifference is the Update oracle suite: under
// randomized interleaved E/I bursts of point and region records — including
// range growth in both directions, over-reported and unknown dirty
// ordinals, and schedules whose entities arrive in descending id order
// (ordinals anti-sorted) — the dirty entities' pairs after every Update
// must be exactly the from-scratch candidate pairs that have a reported
// endpoint with a history, the set must move by exactly that difference,
// and the walk over every ordinal and NumCandidates() must be the
// from-scratch set and its size.
func TestIndexDeltaExactSetDifference(t *testing.T) {
	for _, tc := range suiteCases {
		t.Run(fmt.Sprintf("seed%d/descending=%v", tc.seed, tc.descending), func(t *testing.T) {
			gen := newBurstGen(tc.seed, tc.descending)
			rng := gen.rng
			p := suiteParams

			se, si := sigStore("E", nil, p), sigStore("I", nil, p)
			stores := [2]*history.Store{se, si}
			x := New(se, si, p)
			if x.Update(nil, nil); x.NumCandidates() != 0 {
				t.Fatalf("empty-store update counted %d pairs", x.NumCandidates())
			}

			for burst := 0; burst < 30; burst++ {
				before := named(se, si, allPairs(x))
				dirty := [2]map[uint32]struct{}{{}, {}}
				for k, nRecs := 0, 1+rng.Intn(8); k < nRecs; k++ {
					side, r := gen.next()
					dirty[side][stores[side].Add(r)] = struct{}{}
				}
				// Over-report: an unchanged entity in the dirty set is
				// re-signed to the keys it had, so its pairs are among the
				// dirty ones; an unknown one is passed over.
				if rng.Intn(3) == 0 {
					if n := se.Ordinals().Len(); n > 0 {
						dirty[0][uint32(rng.Intn(n))] = struct{}{}
					}
					dirty[1][1<<30] = struct{}{}
				}
				reportedE, reportedI := reported(se, dirty[0]), reported(si, dirty[1])
				x.Update(dirty[0], dirty[1])
				got := dirtyPairs(x, dirty[0], dirty[1])
				step := fmt.Sprintf("burst %d", burst)
				requireUpdateExact(t, step, se, si, p, got, before, reportedE, reportedI)
				requireParity(t, x, se, si, p, step)
			}
		})
	}
}

// TestIndexDeltaAcrossOneSideEmpty pins the empty-store transitions: a
// dirty entity has no pairs while one side is empty, and the first pair to
// appear is one of the dirty entity's like any other.
func TestIndexDeltaAcrossOneSideEmpty(t *testing.T) {
	p := Params{Threshold: 0.3, StepWindows: 4, SpatialLevel: level, NumBuckets: 256}
	se, si := sigStore("E", nil, p), sigStore("I", nil, p)
	x := New(se, si, p)
	x.Update(nil, nil)

	for k := 0; k < 8; k++ {
		se.Add(rec("e0", 37.6, -122.4, int64(900*k)))
	}
	x.Update(ords(se, "e0"), nil)
	if got := dirtyPairs(x, ords(se, "e0"), nil); len(got) != 0 || x.NumCandidates() != 0 {
		t.Fatalf("one-side-empty update: e0's pairs %v, count %d", got, x.NumCandidates())
	}
	for k := 0; k < 8; k++ {
		si.Add(rec("i0", 37.6, -122.4, int64(900*k+30)))
	}
	x.Update(nil, ords(si, "i0"))
	got := dirtyPairs(x, nil, ords(si, "i0"))
	requireUpdateExact(t, "both sides", se, si, p, got, nil, nil, map[model.EntityID]struct{}{"i0": {}})
	requireParity(t, x, se, si, p, "both sides")
	if len(got) != 1 {
		t.Fatalf("co-located e0/i0 must be i0's one pair: %v", got)
	}
}

// TestFirstUpdateAddsTheCandidateSet: the first Update over filled stores
// signs every entity, so every entity's pairs together are the whole
// candidate set, and its count is the walk's.
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
	x.Update(nil, nil)
	pairs := allPairs(x)
	if got := dirtyPairs(x, allOrds(se), allOrds(si)); len(got) == 0 || !slices.Equal(got, pairs) {
		t.Fatalf("every entity's pairs are %v, want the E walk's %v", got, pairs)
	}
	if x.NumCandidates() != int64(len(pairs)) {
		t.Fatalf("first Update counted %d pairs, the walk finds %d", x.NumCandidates(), len(pairs))
	}
	requireParity(t, x, se, si, p, "first build")
}

// collide reports whether two entities' band keys (each ascending by band)
// agree in some band both of them have: the definition of a candidate
// pair.
func collide(a, b []bandKey) bool {
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch {
		case a[i].band < b[j].band:
			i++
		case a[i].band > b[j].band:
			j++
		case a[i].hash == b[j].hash:
			return true
		default:
			i, j = i+1, j+1
		}
	}
	return false
}

// TestIndexDeltaThroughBothEndpoints pins the two transitions that happen
// inside one Update when both endpoints of a pair are re-signed: a pair
// stops colliding when its E endpoint is re-signed and collides again once
// its I endpoint is (a candidate before and after: among the dirty pairs,
// and the count does not move), and the mirror — it starts colliding
// through E and stops through I (a candidate at neither end: not among
// them). A fixed-seed
// stream of bursts that each re-sign entities of both sides, over a
// handful of cells so band hashes agree often, must produce both; the test
// fails if it does not.
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
	se, si := sigStore("E", seed[SideE], p), sigStore("I", seed[SideI], p)
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
		before := named(se, si, allPairs(x))
		dirty := [2]map[uint32]struct{}{{}, {}}
		for k := 0; k < 4; k++ {
			// Heavier and heavier records, so a burst keeps overturning
			// dominating cells however much weight a window already holds.
			side, recs := record(k%2, 1+burst)
			for _, r := range recs {
				dirty[side][stores[side].Add(r)] = struct{}{}
			}
		}
		reportedE, reportedI := reported(se, dirty[SideE]), reported(si, dirty[SideI])
		x.Update(dirty[SideE], dirty[SideI])
		got := dirtyPairs(x, dirty[SideE], dirty[SideI])
		step := fmt.Sprintf("burst %d", burst)
		for u := uint32(0); u < entities; u++ {
			for v := uint32(0); v < entities; v++ {
				oldU, oldV := old[SideE].bandsOf(u), old[SideI].bandsOf(v)
				newU, newV := x.sides[SideE].bandsOf(u), x.sides[SideI].bandsOf(v)
				_, inGot := slices.BinarySearch(got, Key(u, v))
				switch between := collide(newU, oldV); { // E is re-signed first
				case collide(oldU, oldV) && !between && collide(newU, newV):
					lostAndRegained++
					if !inGot {
						t.Fatalf("%s: pair (%d,%d) lost its last band through E and regained one through I, and is not a dirty pair", step, u, v)
					}
				case !collide(oldU, oldV) && between && !collide(newU, newV):
					gainedAndLost++
					if inGot {
						t.Fatalf("%s: pair (%d,%d) collided only between the two endpoints' updates, and is a dirty pair", step, u, v)
					}
				}
			}
		}
		requireUpdateExact(t, step, se, si, p, got, before, reportedE, reportedI)
		requireParity(t, x, se, si, p, step)
	}
	t.Logf("%d pairs lost and regained, %d gained and lost within one Update", lostAndRegained, gainedAndLost)
	if lostAndRegained == 0 || gainedAndLost == 0 {
		t.Fatalf("the bursts produced %d lost-and-regained and %d gained-and-lost pairs; the test needs both", lostAndRegained, gainedAndLost)
	}
}
