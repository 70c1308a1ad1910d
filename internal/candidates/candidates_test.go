package candidates

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"slim/internal/geo"
	"slim/internal/history"
	"slim/internal/model"
)

var wnd = model.Windowing{Epoch: 0, WidthSeconds: 900}

const level = 13

func rec(e string, lat, lng float64, unix int64) model.Record {
	return model.Record{Entity: model.EntityID(e), LatLng: geo.LatLng{Lat: lat, Lng: lng}, Unix: unix}
}

// batchPairs is the from-scratch oracle: exactly what
// the linker's candidate refresh did before the index existed.
func batchPairs(se, si *history.Store, p Params) []Pair {
	minE, maxE, okE := se.WindowRange()
	minI, maxI, okI := si.WindowRange()
	if !okE || !okI {
		return []Pair{}
	}
	minW, maxW := minE, maxE
	if minI < minW {
		minW = minI
	}
	if maxI > maxW {
		maxW = maxI
	}
	sigsE := BuildSignatures(se, p.StepWindows, minW, maxW)
	sigsI := BuildSignatures(si, p.StepWindows, minW, maxW)
	pairs := CandidatePairs(sigsE, sigsI, p)
	if pairs == nil {
		pairs = []Pair{}
	}
	return pairs
}

// named resolves packed pairs to entity ids through the two stores'
// entity tables, in the canonical (U, V) id order of CandidatePairs.
func named(se, si *history.Store, keys []uint64) []Pair {
	pairs := make([]Pair, len(keys))
	for k, key := range keys {
		u, v := Ends(key)
		pairs[k] = Pair{U: se.Ordinals().ID(u), V: si.Ordinals().ID(v)}
	}
	SortPairs(pairs)
	return pairs
}

// ords builds a dirty set from entity ids; an id the store's table has
// never seen becomes an ordinal no table assigns (over-reporting).
func ords(s *history.Store, ids ...model.EntityID) map[uint32]struct{} {
	set := make(map[uint32]struct{}, len(ids))
	for _, id := range ids {
		ord, ok := s.Ordinals().Lookup(id)
		if !ok {
			ord = 1 << 30
		}
		set[ord] = struct{}{}
	}
	return set
}

func requireParity(t *testing.T, x *Index, se, si *history.Store, p Params, step string) {
	t.Helper()
	want := batchPairs(se, si, p)
	if !slices.IsSorted(x.Pairs()) {
		t.Fatalf("%s: Pairs() is not in ascending packed-pair order", step)
	}
	got := named(se, si, x.Pairs())
	if !slices.Equal(got, want) {
		t.Fatalf("%s: incremental candidate set diverged from batch rebuild:\n  incremental %d pairs: %v\n  batch %d pairs: %v",
			step, len(got), got, len(want), want)
	}
	if x.NumCandidates() != int64(len(want)) {
		t.Fatalf("%s: NumCandidates = %d, want %d", step, x.NumCandidates(), len(want))
	}
}

// burstGen draws the randomized ingest of the parity and delta suites:
// point and region records on twelve entities a side, with timestamps
// that now and then stretch the window range forward (the signature
// grows) or backward (the grid anchor shifts). With descending set, each
// side's entities first appear in descending id order, so every ordinal
// order is the exact reverse of the id order — packed-pair order and the
// canonical (U, V) order then disagree on every pair of pairs.
type burstGen struct {
	rng        *rand.Rand
	base, span int64
	descending bool
	seen       [2]int
}

func newBurstGen(seed int64, descending bool) *burstGen {
	// Timestamps start mid-range so later bursts can extend the grid on
	// both ends.
	return &burstGen{rng: rand.New(rand.NewSource(seed)), base: 900 * 100, span: 900 * 40, descending: descending}
}

func (g *burstGen) next() (side int, r model.Record) {
	rng := g.rng
	side = rng.Intn(2)
	n := rng.Intn(12)
	id := fmt.Sprintf("%c%d", "ei"[side], n)
	if g.descending {
		n = min(n, g.seen[side])
		g.seen[side] = max(g.seen[side], n+1)
		id = fmt.Sprintf("%c%02d", "ei"[side], 11-n)
	}
	unix := g.base + rng.Int63n(g.span)
	switch rng.Intn(8) {
	case 0: // stretch the range forward: sigLen grows
		unix = g.base + g.span + rng.Int63n(g.span)
		g.span += 900 * 10
	case 1: // stretch backward: the grid anchor shifts
		unix = g.base - rng.Int63n(900*20) - 1
		g.base -= 900 * 5
	}
	r = rec(id, 37.6+float64(rng.Intn(50))*0.01, -122.4+float64(rng.Intn(50))*0.01, unix)
	if rng.Intn(4) == 0 {
		r.RadiusKm = 0.2 + rng.Float64()*2 // region record
	}
	return side, r
}

// suiteCases are the schedules both randomized suites run.
var suiteCases = []struct {
	seed       int64
	descending bool
}{{1, false}, {7, false}, {42, false}, {5, true}, {23, true}}

// TestIndexRandomizedParity is the core exactness suite: random bursts of
// point and region records interleaved across both sides, including
// timestamps that stretch the window range forward and backward (forcing
// epoch rebuilds), must leave the index pair-for-pair equal to a
// from-scratch batch enumeration after every burst.
func TestIndexRandomizedParity(t *testing.T) {
	for _, tc := range suiteCases {
		t.Run(fmt.Sprintf("seed%d/descending=%v", tc.seed, tc.descending), func(t *testing.T) {
			gen := newBurstGen(tc.seed, tc.descending)
			p := Params{Threshold: 0.3, StepWindows: 4, SpatialLevel: level, NumBuckets: 256}

			se := history.Build(&model.Dataset{Name: "E"}, wnd, level)
			si := history.Build(&model.Dataset{Name: "I"}, wnd, level)
			stores := [2]*history.Store{se, si}
			x := New(se, si, p)
			x.Workers = 1 + int(tc.seed)%3 // fills and enumerations fan out; the set must not depend on it
			x.Update(nil, nil)
			requireParity(t, x, se, si, p, "empty")

			for burst := 0; burst < 30; burst++ {
				dirty := [2]map[uint32]struct{}{{}, {}}
				for k, nRecs := 0, 1+gen.rng.Intn(8); k < nRecs; k++ {
					side, r := gen.next()
					dirty[side][stores[side].Add(r)] = struct{}{}
				}
				x.Update(dirty[0], dirty[1])
				requireParity(t, x, se, si, p, fmt.Sprintf("burst %d", burst))
			}
			if x.Stats().Epoch < 2 {
				t.Fatalf("workload never forced an epoch rebuild (epoch=%d); the suite must exercise both paths", x.Stats().Epoch)
			}
			if tc.descending && !slices.IsSortedFunc(se.Ordinals().IDs(), func(a, b model.EntityID) int { return -cmp.Compare(a, b) }) {
				t.Fatal("descending schedule did not produce anti-sorted ordinals")
			}
		})
	}
}

// TestIndexDeltaPathIsExercised pins down that in-grid churn actually
// takes the delta path (no epoch bump) and still matches the oracle —
// otherwise the parity suite could pass by rebuilding every time.
func TestIndexDeltaPathIsExercised(t *testing.T) {
	p := Params{Threshold: 0.3, StepWindows: 4, SpatialLevel: level, NumBuckets: 256}
	var eRecs, iRecs []model.Record
	for e := 0; e < 10; e++ {
		for k := 0; k < 20; k++ {
			unix := int64(900 * k * 2)
			eRecs = append(eRecs, rec(fmt.Sprintf("e%d", e), 37.6+float64(e)*0.01, -122.4, unix))
			iRecs = append(iRecs, rec(fmt.Sprintf("i%d", e), 37.6+float64(e)*0.01, -122.4, unix+60))
		}
	}
	se := history.Build(&model.Dataset{Name: "E", Records: eRecs}, wnd, level)
	si := history.Build(&model.Dataset{Name: "I", Records: iRecs}, wnd, level)
	x := New(se, si, p)
	x.Update(nil, nil)
	if got := x.Stats().Epoch; got != 1 {
		t.Fatalf("epoch after initial build = %d, want 1", got)
	}
	requireParity(t, x, se, si, p, "initial")

	// Move one entity inside the existing grid: the update must be a
	// delta (same epoch, one dirty signature) and stay exact.
	se.Add(rec("e3", 37.9, -122.1, 900*7))
	x.Update(ords(se, "e3"), nil)
	st := x.Stats()
	if st.Epoch != 1 {
		t.Fatalf("in-grid churn bumped the epoch to %d; expected a delta update", st.Epoch)
	}
	if st.LastRebuild || st.LastDirty != 1 {
		t.Fatalf("delta update stats: LastRebuild=%v LastDirty=%d, want false/1", st.LastRebuild, st.LastDirty)
	}
	requireParity(t, x, se, si, p, "delta")

	// A record before the grid start must rebuild.
	si.Add(rec("i0", 37.6, -122.4, -900*3))
	x.Update(nil, ords(si, "i0"))
	st = x.Stats()
	if st.Epoch != 2 || !st.LastRebuild {
		t.Fatalf("backward range growth: epoch=%d LastRebuild=%v, want 2/true", st.Epoch, st.LastRebuild)
	}
	requireParity(t, x, se, si, p, "rebuild")
}

// TestIndexSkipsUnchangedDirtyEntities verifies the version-counter
// discipline: an entity reported dirty whose history version is unchanged
// is not recomputed.
func TestIndexSkipsUnchangedDirtyEntities(t *testing.T) {
	p := Params{Threshold: 0.3, StepWindows: 4, SpatialLevel: level, NumBuckets: 256}
	var eRecs, iRecs []model.Record
	for k := 0; k < 20; k++ {
		eRecs = append(eRecs, rec("e0", 37.6, -122.4, int64(900*k)))
		iRecs = append(iRecs, rec("i0", 37.6, -122.4, int64(900*k)))
	}
	se := history.Build(&model.Dataset{Name: "E", Records: eRecs}, wnd, level)
	si := history.Build(&model.Dataset{Name: "I", Records: iRecs}, wnd, level)
	x := New(se, si, p)
	x.Update(nil, nil)

	x.Update(ords(se, "e0"), ords(si, "i0", "ghost"))
	st := x.Stats()
	if st.LastDirty != 0 {
		t.Fatalf("LastDirty = %d after a no-op dirty report, want 0 (version check must skip)", st.LastDirty)
	}
	requireParity(t, x, se, si, p, "noop")
}

// TestIndexOneSideEmpty mirrors the batch semantics: no candidates until
// both stores hold data, then a first build on the transition.
func TestIndexOneSideEmpty(t *testing.T) {
	p := Params{Threshold: 0.3, StepWindows: 4, SpatialLevel: level, NumBuckets: 256}
	se := history.Build(&model.Dataset{Name: "E"}, wnd, level)
	si := history.Build(&model.Dataset{Name: "I"}, wnd, level)
	x := New(se, si, p)

	se.Add(rec("e0", 37.6, -122.4, 900))
	x.Update(ords(se, "e0"), nil)
	if len(x.Pairs()) != 0 || x.Stats().Epoch != 0 {
		t.Fatalf("one-side-empty index built anyway: %d pairs, epoch %d", len(x.Pairs()), x.Stats().Epoch)
	}
	si.Add(rec("i0", 37.6, -122.4, 930))
	x.Update(nil, ords(si, "i0"))
	if x.Stats().Epoch != 1 {
		t.Fatalf("epoch after both sides filled = %d, want 1", x.Stats().Epoch)
	}
	requireParity(t, x, se, si, p, "both sides")
}

// TestIndexPairsSliceStability: a Pairs() slice held across later updates
// must not be mutated (fresh materialization per change).
func TestIndexPairsSliceStability(t *testing.T) {
	p := Params{Threshold: 0.3, StepWindows: 4, SpatialLevel: level, NumBuckets: 256}
	var eRecs, iRecs []model.Record
	for e := 0; e < 6; e++ {
		for k := 0; k < 10; k++ {
			eRecs = append(eRecs, rec(fmt.Sprintf("e%d", e), 37.6+float64(e)*0.02, -122.4, int64(900*k)))
			iRecs = append(iRecs, rec(fmt.Sprintf("i%d", e), 37.6+float64(e)*0.02, -122.4, int64(900*k+60)))
		}
	}
	se := history.Build(&model.Dataset{Name: "E", Records: eRecs}, wnd, level)
	si := history.Build(&model.Dataset{Name: "I", Records: iRecs}, wnd, level)
	x := New(se, si, p)
	x.Update(nil, nil)
	held := x.Pairs()
	snapshot := slices.Clone(held)

	se.Add(rec("e1", 38.2, -121.9, 900*5))
	x.Update(ords(se, "e1"), nil)
	x.Pairs()
	if !slices.Equal(held, snapshot) {
		t.Fatal("a held Pairs() slice was mutated by a later Update")
	}
}

// TestIndexStatsShape sanity-checks the occupancy bookkeeping against a
// direct recount of the bucket maps.
func TestIndexStatsShape(t *testing.T) {
	p := Params{Threshold: 0.3, StepWindows: 4, SpatialLevel: level, NumBuckets: 256}
	var eRecs, iRecs []model.Record
	for e := 0; e < 8; e++ {
		for k := 0; k < 12; k++ {
			eRecs = append(eRecs, rec(fmt.Sprintf("e%d", e), 37.6+float64(e)*0.03, -122.4, int64(900*(k*3+e))))
			iRecs = append(iRecs, rec(fmt.Sprintf("i%d", e), 37.6+float64(e)*0.03, -122.4, int64(900*(k*3+e)+60)))
		}
	}
	se := history.Build(&model.Dataset{Name: "E", Records: eRecs}, wnd, level)
	si := history.Build(&model.Dataset{Name: "I", Records: iRecs}, wnd, level)
	x := New(se, si, p)
	x.Update(nil, nil)
	se.Add(rec("e2", 38.0, -122.0, 900*9))
	x.Update(ords(se, "e2"), nil)

	st := x.Stats()
	if st.SignaturesE != 8 || st.SignaturesI != 8 {
		t.Fatalf("signature counts = %d/%d, want 8/8", st.SignaturesE, st.SignaturesI)
	}
	members, nonEmpty := 0, 0
	for _, byHash := range x.buckets {
		nonEmpty += len(byHash)
		for _, bkt := range byHash {
			members += len(bkt.members[sideE]) + len(bkt.members[sideI])
		}
	}
	if st.Buckets != nonEmpty || st.Memberships != members {
		t.Fatalf("stats buckets/memberships = %d/%d, recount = %d/%d", st.Buckets, st.Memberships, nonEmpty, members)
	}
	if nonEmpty > 0 && st.Occupancy != float64(members)/float64(nonEmpty) {
		t.Fatalf("occupancy = %g, want %g", st.Occupancy, float64(members)/float64(nonEmpty))
	}
	if st.LastUpdate <= 0 {
		t.Fatal("LastUpdate duration not recorded")
	}
}

// TestIndexCountOnlyChurnKeepsPairCache: when an entity's band hash
// changes but the pair it forms survives via other bands (a count-only
// transition, no membership change), Pairs() must return the cached
// slice instead of re-sorting the world.
func TestIndexCountOnlyChurnKeepsPairCache(t *testing.T) {
	p := Params{Threshold: 0.2, StepWindows: 4, SpatialLevel: level, NumBuckets: 256}
	// e0 and i0 share every dominating cell over 16 windows → sigLen 4.
	var eRecs, iRecs []model.Record
	for k := 0; k < 16; k++ {
		eRecs = append(eRecs, rec("e0", 37.6+float64(k)*0.02, -122.4, int64(900*k)))
		iRecs = append(iRecs, rec("i0", 37.6+float64(k)*0.02, -122.4, int64(900*k)))
	}
	se := history.Build(&model.Dataset{Name: "E", Records: eRecs}, wnd, level)
	si := history.Build(&model.Dataset{Name: "I", Records: iRecs}, wnd, level)
	x := New(se, si, p)
	x.Update(nil, nil)
	if b := x.Stats().Bands; b < 2 {
		t.Skipf("geometry yielded %d band(s); need >= 2 for count-only churn", b)
	}
	before := x.Pairs()
	if len(before) != 1 {
		t.Fatalf("fixture should collide in every band: %d pairs", len(before))
	}

	// Overwhelm window 0's dominating cell: the first band's hash moves
	// (count 2 -> 1 on the surviving pair) while later bands still match.
	for n := 0; n < 3; n++ {
		se.Add(rec("e0", 37.9, -121.9, int64(n)))
	}
	x.Update(ords(se, "e0"), nil)
	after := x.Pairs()
	if &after[0] != &before[0] {
		t.Fatal("count-only churn re-materialized the pair cache")
	}
	requireParity(t, x, se, si, p, "count-only churn")
}
