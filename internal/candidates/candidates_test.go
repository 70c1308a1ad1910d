package candidates

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"slim/internal/geo"
	"slim/internal/history"
	"slim/internal/model"
)

var wnd = model.Windowing{WidthSeconds: 900}

const level = 13

func rec(e string, lat, lng float64, unix int64) model.Record {
	return model.Record{Entity: model.EntityID(e), LatLng: geo.LatLng{Lat: lat, Lng: lng}, Unix: unix}
}

// sigStore builds a signature store of the given records: p's rows of
// wnd's windows, cells at p's level.
func sigStore(name string, recs []model.Record, p Params) *history.Store {
	return history.Build(&model.Dataset{Name: name, Records: recs}, p.RowWindowing(wnd), p.SpatialLevel)
}

// batchPairs is the from-scratch oracle over two signature stores.
func batchPairs(se, si *history.Store, p Params) []Pair {
	return CandidatePairs(BuildSignatures(se), BuildSignatures(si), p)
}

// batchBuckets recounts the buckets from scratch: every non-empty
// (band, hash) bucket of the two stores' signatures with its member count
// per side.
func batchBuckets(se, si *history.Store, p Params) map[bandKey][2]int {
	r, numBuckets := int64(RowsPerBand(p.Threshold)), uint64(p.NumBuckets)
	buckets := make(map[bandKey][2]int)
	for side, s := range []*history.Store{se, si} {
		for _, sig := range BuildSignatures(s) {
			for _, key := range appendBands(nil, sig, r, numBuckets) {
				n := buckets[key]
				n[side]++
				buckets[key] = n
			}
		}
	}
	return buckets
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

// allPairs is the candidate set as a full rescore walks it: every E
// ordinal's AppendPairs, in turn.
func allPairs(x *Index) []uint64 {
	var pairs []uint64
	for u := range x.sides[SideE].spans {
		pairs = x.AppendPairs(pairs, SideE, uint32(u))
	}
	return pairs
}

// dirtyPairs is P as a delta relink collects it: the pairs of every dirty
// entity of both sides, sorted and each once.
func dirtyPairs(x *Index, dirtyE, dirtyI map[uint32]struct{}) []uint64 {
	var pairs []uint64
	for ord := range dirtyE {
		pairs = x.AppendPairs(pairs, SideE, ord)
	}
	for ord := range dirtyI {
		pairs = x.AppendPairs(pairs, SideI, ord)
	}
	slices.Sort(pairs)
	return slices.Compact(pairs)
}

// strictlyAscending reports whether keys ascend with no repeat.
func strictlyAscending(keys []uint64) bool {
	for k := 1; k < len(keys); k++ {
		if keys[k] <= keys[k-1] {
			return false
		}
	}
	return true
}

// requireParity holds the index to the batch oracle: the E side's walk
// (allPairs) is strictly ascending and names exactly the oracle's pairs,
// every I ordinal's pairs ascend each once and together are the same set,
// and NumCandidates is its size.
func requireParity(t *testing.T, x *Index, se, si *history.Store, p Params, step string) {
	t.Helper()
	want := batchPairs(se, si, p)
	pairs := allPairs(x)
	if !strictlyAscending(pairs) {
		t.Fatalf("%s: the E ordinals' pairs, in turn, are not strictly ascending in packed-pair order", step)
	}
	got := named(se, si, pairs)
	if !slices.Equal(got, want) {
		t.Fatalf("%s: incremental candidate set diverged from batch rebuild:\n  incremental %d pairs: %v\n  batch %d pairs: %v",
			step, len(got), got, len(want), want)
	}
	var byI []uint64
	for v := range si.Ordinals().Len() + 1 {
		at := len(byI)
		if byI = x.AppendPairs(byI, SideI, uint32(v)); !strictlyAscending(byI[at:]) {
			t.Fatalf("%s: I ordinal %d's pairs are not strictly ascending: %v", step, v, byI[at:])
		}
	}
	if slices.Sort(byI); !slices.Equal(byI, pairs) {
		t.Fatalf("%s: the I ordinals' pairs %v are not the E ordinals' %v", step, named(se, si, byI), got)
	}
	if x.NumCandidates() != int64(len(want)) {
		t.Fatalf("%s: NumCandidates = %d, want %d", step, x.NumCandidates(), len(want))
	}
}

// burstGen draws the randomized ingest of the parity and delta suites:
// point and region records on twelve entities a side, with timestamps
// that now and then stretch the data's time range forward or backward,
// across Unix 0 into negative rows. With descending set, each side's
// entities first appear in descending id order, so every ordinal order is
// the exact reverse of the id order — packed-pair order and the canonical
// (U, V) order then disagree on every pair of pairs.
type burstGen struct {
	rng        *rand.Rand
	base, span int64
	descending bool
	seen       [2]int
}

func newBurstGen(seed int64, descending bool) *burstGen {
	// Timestamps start a few rows past Unix 0, so later bursts can extend
	// the range on both ends.
	return &burstGen{rng: rand.New(rand.NewSource(seed)), base: 900 * 10, span: 900 * 40, descending: descending}
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
	case 0: // stretch the range forward
		unix = g.base + g.span + rng.Int63n(g.span)
		g.span += 900 * 10
	case 1: // stretch backward
		unix = g.base - rng.Int63n(900*20) - 1
		g.base -= 900 * 5
	}
	r = rec(id, 37.6+float64(rng.Intn(50))*0.01, -122.4+float64(rng.Intn(50))*0.01, unix)
	if rng.Intn(4) == 0 {
		r.RadiusKm = 0.2 + rng.Float64()*2 // region record
	}
	return side, r
}

// suiteParams is the filter of the randomized suites: few buckets, so
// chance collisions keep pairs entering and leaving the set.
var suiteParams = Params{Threshold: 0.3, StepWindows: 4, SpatialLevel: level, NumBuckets: 16}

// suiteCases are the schedules the randomized suites run.
var suiteCases = []struct {
	seed       int64
	descending bool
}{{1, false}, {7, false}, {42, false}, {5, true}, {23, true}}

// TestIndexRandomizedParity is the core exactness suite: random bursts of
// point and region records interleaved across both sides, including
// timestamps that stretch the time range forward and backward, must leave
// the index pair-for-pair equal to a from-scratch batch enumeration after
// every burst.
func TestIndexRandomizedParity(t *testing.T) {
	for _, tc := range suiteCases {
		t.Run(fmt.Sprintf("seed%d/descending=%v", tc.seed, tc.descending), func(t *testing.T) {
			gen := newBurstGen(tc.seed, tc.descending)
			p := suiteParams

			se, si := sigStore("E", nil, p), sigStore("I", nil, p)
			stores := [2]*history.Store{se, si}
			x := New(se, si, p)
			x.Workers = 1 + int(tc.seed)%3 // the first fill and count fan out; the set must not depend on it
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
			for ords, k := se.Ordinals(), 1; tc.descending && k < ords.Len(); k++ {
				if ords.ID(uint32(k)) > ords.ID(uint32(k-1)) {
					t.Fatal("descending schedule did not produce anti-sorted ordinals")
				}
			}
		})
	}
}

// TestIndexDeltaPathIsExercised pins down that churn re-signs exactly the
// touched entities and stays exact, wherever in time the records land.
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
	se, si := sigStore("E", eRecs, p), sigStore("I", iRecs, p)
	x := New(se, si, p)
	x.Update(nil, nil)
	if st := x.Stats(); st.LastDirty != 20 {
		t.Fatalf("first build signed %d entities, want 20", st.LastDirty)
	}
	requireParity(t, x, se, si, p, "initial")

	// Move one entity inside the data's range, then one far before it: both
	// re-sign one signature and stay exact.
	se.Add(rec("e3", 37.9, -122.1, 900*7))
	x.Update(ords(se, "e3"), nil)
	if st := x.Stats(); st.LastDirty != 1 {
		t.Fatalf("in-range churn re-signed %d entities, want 1", st.LastDirty)
	}
	requireParity(t, x, se, si, p, "in range")
	si.Add(rec("i0", 37.6, -122.4, -900*3000))
	x.Update(nil, ords(si, "i0"))
	if st := x.Stats(); st.LastDirty != 1 {
		t.Fatalf("a record before the range re-signed %d entities, want 1", st.LastDirty)
	}
	requireParity(t, x, se, si, p, "before the range")
}

// TestRangeGrowthIsADelta streams records that move the data's first row
// one earlier and its last row past a band boundary, on both sides. The
// next Update re-signs only the dirty entities, leaves their pairs exactly
// the oracle's pairs with a dirty endpoint and matches the batch oracle: no record anywhere in time
// makes the index start over.
func TestRangeGrowthIsADelta(t *testing.T) {
	p := Params{Threshold: 0.3, StepWindows: 4, SpatialLevel: level, NumBuckets: 256}
	rowSec := p.RowWindowing(wnd).WidthSeconds
	r := int64(RowsPerBand(p.Threshold))
	var eRecs, iRecs []model.Record
	for e := 0; e < 8; e++ {
		for k := int64(0); k < 3*r; k++ {
			unix := (10*r+k)*rowSec + int64(900*e)
			eRecs = append(eRecs, rec(fmt.Sprintf("e%d", e), 37.6+float64(e%3)*0.02, -122.4, unix))
			iRecs = append(iRecs, rec(fmt.Sprintf("i%d", e), 37.6+float64(e%3)*0.02, -122.4, unix+60))
		}
	}
	se, si := sigStore("E", eRecs, p), sigStore("I", iRecs, p)
	x := New(se, si, p)
	x.Update(nil, nil)
	requireParity(t, x, se, si, p, "initial")

	// Rows 10r … 13r−1 hold data: one row earlier, and one past the band
	// boundary at 13r.
	before := named(se, si, allPairs(x))
	first, last := (10*r-1)*rowSec, (13*r+1)*rowSec
	dirtyE, dirtyI := map[uint32]struct{}{}, map[uint32]struct{}{}
	dirtyE[se.Add(rec("e2", 37.6, -122.4, first))] = struct{}{}
	dirtyE[se.Add(rec("e5", 37.62, -122.4, last))] = struct{}{}
	dirtyI[si.Add(rec("i5", 37.62, -122.4, last+60))] = struct{}{}
	dirtyI[si.Add(rec("i7", 37.64, -122.4, first+60))] = struct{}{}
	dirtyI[si.Add(rec("i-new", 37.6, -122.4, first+120))] = struct{}{}
	x.Update(dirtyE, dirtyI)
	got := dirtyPairs(x, dirtyE, dirtyI)
	if st := x.Stats(); st.LastDirty != len(dirtyE)+len(dirtyI) {
		t.Fatalf("range growth re-signed %d entities, want the %d dirty ones", st.LastDirty, len(dirtyE)+len(dirtyI))
	}
	requireUpdateExact(t, "range growth", se, si, p, got, before, reported(se, dirtyE), reported(si, dirtyI))
	requireParity(t, x, se, si, p, "range growth")
}

// TestIndexResignsReportedUnchangedEntities pins Update's contract: every
// reported entity with a history is re-signed, whether or not it changed.
// An unchanged one gets the keys it had, so its pairs stay, nothing enters
// or leaves the set and the count stands; an ordinal no table assigned is
// passed over.
func TestIndexResignsReportedUnchangedEntities(t *testing.T) {
	p := Params{Threshold: 0.3, StepWindows: 4, SpatialLevel: level, NumBuckets: 256}
	var eRecs, iRecs []model.Record
	for k := 0; k < 20; k++ {
		for _, e := range []string{"e0", "e1"} {
			eRecs = append(eRecs, rec(e, 37.6, -122.4, int64(900*k)))
		}
		for _, i := range []string{"i0", "i1"} {
			iRecs = append(iRecs, rec(i, 37.6, -122.4, int64(900*k)))
		}
	}
	se, si := sigStore("E", eRecs, p), sigStore("I", iRecs, p)
	x := New(se, si, p)
	x.Update(nil, nil)
	if pairs := allPairs(x); len(pairs) != 4 || x.NumCandidates() != 4 {
		t.Fatalf("initial candidate set %v (count %d), want all 4 pairs", named(se, si, pairs), x.NumCandidates())
	}
	e0, _ := se.Ordinals().Lookup("e0")
	keys := slices.Clone(x.sides[SideE].bandsOf(e0))

	dirtyE, dirtyI := ords(se, "e0"), ords(si, "ghost")
	x.Update(dirtyE, dirtyI)
	if st := x.Stats(); st.LastDirty != 1 || st.SignaturesE != 2 || st.SignaturesI != 2 {
		t.Fatalf("LastDirty/SignaturesE/SignaturesI = %d/%d/%d, want 1/2/2", st.LastDirty, st.SignaturesE, st.SignaturesI)
	}
	if got := x.sides[SideE].bandsOf(e0); !slices.Equal(got, keys) {
		t.Fatalf("re-signing unchanged e0 moved its keys: %v, want %v", got, keys)
	}
	want := []Pair{{U: "e0", V: "i0"}, {U: "e0", V: "i1"}}
	if named := named(se, si, dirtyPairs(x, dirtyE, dirtyI)); !slices.Equal(named, want) {
		t.Fatalf("the reported entities' pairs are %v, want e0's pairs %v", named, want)
	}
	if x.NumCandidates() != 4 {
		t.Fatalf("an Update that changed no pair moved the count to %d", x.NumCandidates())
	}
	requireParity(t, x, se, si, p, "over-report")
}

// TestIndexOneSideEmpty mirrors the batch semantics: no candidates while
// one store is empty, then exactly the batch set once both hold data.
func TestIndexOneSideEmpty(t *testing.T) {
	p := Params{Threshold: 0.3, StepWindows: 4, SpatialLevel: level, NumBuckets: 256}
	se, si := sigStore("E", nil, p), sigStore("I", nil, p)
	x := New(se, si, p)
	x.Update(nil, nil)

	se.Add(rec("e0", 37.6, -122.4, 900))
	x.Update(ords(se, "e0"), nil)
	if len(allPairs(x)) != 0 || x.Stats().SignaturesE != 1 {
		t.Fatalf("one-side-empty index: %d pairs, stats %+v", len(allPairs(x)), x.Stats())
	}
	si.Add(rec("i0", 37.6, -122.4, 930))
	x.Update(nil, ords(si, "i0"))
	requireParity(t, x, se, si, p, "both sides")
	if len(allPairs(x)) != 1 {
		t.Fatalf("co-located e0/i0 must be candidates: %d pairs", len(allPairs(x)))
	}
}

// TestIndexStatsShape sanity-checks the occupancy bookkeeping against a
// recount of the buckets from the batch oracle.
func TestIndexStatsShape(t *testing.T) {
	p := Params{Threshold: 0.3, StepWindows: 4, SpatialLevel: level, NumBuckets: 256}
	var eRecs, iRecs []model.Record
	for e := 0; e < 8; e++ {
		for k := 0; k < 12; k++ {
			eRecs = append(eRecs, rec(fmt.Sprintf("e%d", e), 37.6+float64(e)*0.03, -122.4, int64(900*(k*3+e))))
			iRecs = append(iRecs, rec(fmt.Sprintf("i%d", e), 37.6+float64(e)*0.03, -122.4, int64(900*(k*3+e)+60)))
		}
	}
	se, si := sigStore("E", eRecs, p), sigStore("I", iRecs, p)
	x := New(se, si, p)
	x.Update(nil, nil)
	se.Add(rec("e2", 38.0, -122.0, 900*9))
	x.Update(ords(se, "e2"), nil)

	st := x.Stats()
	if st.SignaturesE != 8 || st.SignaturesI != 8 {
		t.Fatalf("signature counts = %d/%d, want 8/8", st.SignaturesE, st.SignaturesI)
	}
	requireBucketCounts(t, x, se, si, p, "after a delta")
	if st.Occupancy != float64(st.Memberships)/float64(st.Buckets) {
		t.Fatalf("occupancy = %g, want %g", st.Occupancy, float64(st.Memberships)/float64(st.Buckets))
	}
	if st.LastUpdate <= 0 {
		t.Fatal("LastUpdate duration not recorded")
	}
}

// TestIndexCountOnlyChurnKeepsTheCount: when an entity's band hash
// changes but the pair it forms survives via other bands (a count-only
// transition, no membership change), the walk over the moved entity's old
// keys and the walk over its new ones both find the pair, so the count
// stands.
func TestIndexCountOnlyChurnKeepsTheCount(t *testing.T) {
	p := Params{Threshold: 0.2, StepWindows: 4, SpatialLevel: level, NumBuckets: 256}
	// e0 and i0 share every dominating cell over 16 windows: four rows, two
	// bands of two.
	var eRecs, iRecs []model.Record
	for k := 0; k < 16; k++ {
		eRecs = append(eRecs, rec("e0", 37.6+float64(k)*0.02, -122.4, int64(900*k)))
		iRecs = append(iRecs, rec("i0", 37.6+float64(k)*0.02, -122.4, int64(900*k)))
	}
	se, si := sigStore("E", eRecs, p), sigStore("I", iRecs, p)
	x := New(se, si, p)
	x.Update(nil, nil)
	keys := slices.Clone(x.sides[SideE].bandsOf(0))
	if len(keys) < 2 {
		t.Fatalf("fixture yielded %d band(s); need >= 2 for count-only churn", len(keys))
	}
	if len(allPairs(x)) != 1 || x.NumCandidates() != 1 {
		t.Fatalf("fixture should collide in every band: %d pairs, count %d", len(allPairs(x)), x.NumCandidates())
	}

	// Overwhelm row 0's dominating cell: the first band's hash moves while
	// the later band still matches.
	for n := 0; n < 3; n++ {
		se.Add(rec("e0", 37.9, -121.9, int64(n)))
	}
	x.Update(ords(se, "e0"), nil)
	if slices.Equal(x.sides[SideE].bandsOf(0), keys) {
		t.Fatal("the heavier cell did not move e0's band keys: the churn is not count-only")
	}
	if x.NumCandidates() != 1 {
		t.Fatalf("count-only churn moved the count to %d", x.NumCandidates())
	}
	requireParity(t, x, se, si, p, "count-only churn")
}

// TestBandKeysColumnStaysBounded boots 300 entities a side with keys in
// three bands and streams bursts in which five of them gain a key in a new
// band, so entities move to the end of their side's keys column again and
// again while most stay put: the column stays within the keys in use plus
// a quarter, plus one entity's keys, it does carry dead or spare keys
// between rewrites, and the index stays exact.
func TestBandKeysColumnStaysBounded(t *testing.T) {
	const entities, growing = 300, 5
	p := Params{Threshold: 0.3, StepWindows: 1, SpatialLevel: level, NumBuckets: 256}
	r := int64(RowsPerBand(p.Threshold))
	at := func(side string, e int, band int64) model.Record {
		unix := band * r * 900
		if side == "i" {
			unix += 60
		}
		return rec(fmt.Sprintf("%s%d", side, e), 37.6+float64(e%4)*0.01, -122.4, unix)
	}
	var recsE, recsI []model.Record
	for e := 0; e < entities; e++ {
		for band := int64(0); band < 3; band++ {
			recsE, recsI = append(recsE, at("e", e, band)), append(recsI, at("i", e, band))
		}
	}
	se, si := sigStore("E", recsE, p), sigStore("I", recsI, p)
	x := New(se, si, p)
	x.Update(nil, nil)
	worst := 0.0
	for burst := 1; burst <= 40; burst++ {
		dirtyE, dirtyI := map[uint32]struct{}{}, map[uint32]struct{}{}
		for j := 0; j < growing; j++ {
			e, band := (burst*growing+j)*7%entities, int64(2+burst)
			dirtyE[se.Add(at("e", e, band))] = struct{}{}
			dirtyI[si.Add(at("i", e, band))] = struct{}{}
		}
		x.Update(dirtyE, dirtyI)
		for side := range x.sides {
			s := &x.sides[side]
			most := 0 // one entity's keys may land past the bound
			for _, sp := range s.spans {
				most = max(most, int(sp.n))
			}
			if len(s.keys) > s.live+s.live/4+most {
				t.Fatalf("burst %d: side %d's keys column holds %d slots for %d live keys", burst, side, len(s.keys), s.live)
			}
			worst = max(worst, float64(len(s.keys))/float64(s.live))
		}
		requireParity(t, x, se, si, p, fmt.Sprintf("burst %d", burst))
	}
	t.Logf("a keys column held at most %.2fx its live keys", worst)
	if worst <= 1 {
		t.Fatal("no keys column ever held a dead or spare key: no entity moved")
	}
}
