package candidates

import (
	"math"
	"slices"
	"testing"

	"slim/internal/geo"
	"slim/internal/history"
	"slim/internal/model"
)

// The batch oracle: a from-scratch enumeration of the candidate set keyed
// by entity id. It shares the banding primitives (Banding, BandHash,
// AppendSignature) with the index, so both hash exactly the same bytes,
// and nothing else — no ordinals, no packed keys, no maintained state — so
// the parity suites compare the index against an independent definition.

// Pair is a candidate entity pair surviving the filter.
type Pair struct {
	U model.EntityID
	V model.EntityID
}

// BuildSignatures computes a signature for every entity of the store by
// querying each history's dominating cell for consecutive non-overlapping
// query windows covering [minWin, maxWin] (the union range of the two
// datasets, so that query q means the same time span on both sides).
//
// The store must have been built at the desired signature spatial level.
func BuildSignatures(s *history.Store, stepWindows int, minWin, maxWin int64) map[model.EntityID]Signature {
	n := SignatureLength(minWin, maxWin, stepWindows)
	out := make(map[model.EntityID]Signature, s.NumEntities())
	for _, e := range s.Entities() {
		out[e] = AppendSignature(make(Signature, 0, n), s.History(e), stepWindows, minWin, maxWin, n)
	}
	return out
}

// CandidatePairs runs the banding technique over the two signature sets and
// returns the distinct cross-dataset pairs that share a bucket in at least
// one band, sorted for determinism.
func CandidatePairs(sigsE, sigsI map[model.EntityID]Signature, p Params) []Pair {
	if len(sigsE) == 0 || len(sigsI) == 0 {
		return nil
	}
	sigLen := 0
	for _, sig := range sigsE {
		sigLen = len(sig)
		break
	}
	g := NewBanding(sigLen, p)
	if g.Bands == 0 {
		return nil
	}

	// Deterministic iteration: both id lists sorted into one shared buffer.
	ids := make([]model.EntityID, 0, len(sigsE)+len(sigsI))
	esIDs := appendSortedIDs(ids, sigsE)
	isIDs := appendSortedIDs(esIDs[len(esIDs):], sigsI)

	seen := make(map[Pair]struct{})
	var pairs []Pair
	buckets := make(map[uint64][]model.EntityID)
	for band := 0; band < g.Bands; band++ {
		clear(buckets)
		for _, e := range esIDs {
			if h, ok := g.BandHash(sigsE[e], band); ok {
				buckets[h] = append(buckets[h], e)
			}
		}
		for _, i := range isIDs {
			h, ok := g.BandHash(sigsI[i], band)
			if !ok {
				continue
			}
			for _, e := range buckets[h] {
				pr := Pair{U: e, V: i}
				if _, dup := seen[pr]; !dup {
					seen[pr] = struct{}{}
					pairs = append(pairs, pr)
				}
			}
		}
	}
	SortPairs(pairs)
	return pairs
}

// SortPairs orders pairs by (U, V) ascending — the canonical candidate
// order.
func SortPairs(pairs []Pair) {
	slices.SortFunc(pairs, func(a, b Pair) int {
		if a.U != b.U {
			if a.U < b.U {
				return -1
			}
			return 1
		}
		if a.V < b.V {
			return -1
		}
		if a.V > b.V {
			return 1
		}
		return 0
	})
}

// appendSortedIDs appends the map's keys to dst[:0] and sorts them, so one
// backing buffer can serve several id lists without per-call sort closures.
func appendSortedIDs(dst []model.EntityID, sigs map[model.EntityID]Signature) []model.EntityID {
	dst = dst[:0]
	for id := range sigs {
		dst = append(dst, id)
	}
	slices.Sort(dst)
	return dst
}

// SignatureSimilarity is the fraction of positions on which both
// signatures carry the same non-placeholder dominating cell, divided by
// the signature size (Sec. 4: "the number of matching dominating cells,
// divided by the signature size").
func SignatureSimilarity(a, b Signature) float64 {
	if len(a) == 0 || len(a) != len(b) {
		return 0
	}
	match := 0
	for i := range a {
		if a[i] != Placeholder && a[i] == b[i] {
			match++
		}
	}
	return float64(match) / float64(len(a))
}

// CandidateProbability returns the probability 1-(1-t^r)^b that two
// signatures with similarity t share at least one identical band.
func CandidateProbability(t float64, b, r int) float64 {
	if b <= 0 || r <= 0 {
		return 0
	}
	return 1 - math.Pow(1-math.Pow(t, float64(r)), float64(b))
}

func TestCandidateProbabilitySCurve(t *testing.T) {
	b, r := 16, 6
	// Monotone increasing in t.
	prev := -1.0
	for x := 0.0; x <= 1.0; x += 0.05 {
		p := CandidateProbability(x, b, r)
		if p < prev-1e-12 {
			t.Fatalf("probability not monotone at t=%g", x)
		}
		if p < 0 || p > 1 {
			t.Fatalf("probability out of [0,1]: %g", p)
		}
		prev = p
	}
	// Near the derived threshold the curve must be in transition, with low
	// probability well below and high probability well above.
	thr := math.Pow(1/float64(b), 1/float64(r))
	if p := CandidateProbability(thr-0.25, b, r); p > 0.45 {
		t.Errorf("probability below threshold too high: %g", p)
	}
	if p := CandidateProbability(thr+0.25, b, r); p < 0.8 {
		t.Errorf("probability above threshold too low: %g", p)
	}
	if CandidateProbability(0.5, 0, 5) != 0 {
		t.Error("degenerate bands should give probability 0")
	}
}

func TestBuildSignaturesShapes(t *testing.T) {
	// Entity active in windows 0..2 and 9..11 of a 12-window span; step 3
	// → 4 queries, middle two are placeholders.
	var recs []model.Record
	for k := 0; k < 3; k++ {
		recs = append(recs, rec("a", 37.7749, -122.4194, int64(900*k)))
		recs = append(recs, rec("a", 37.7749, -122.4194, int64(900*(9+k))))
	}
	d := model.Dataset{Name: "E", Records: recs}
	s := history.Build(&d, wnd, 12)
	sigs := BuildSignatures(s, 3, 0, 11)
	sig := sigs["a"]
	if len(sig) != 4 {
		t.Fatalf("signature length = %d, want 4", len(sig))
	}
	want := geo.CellIDFromLatLngLevel(geo.LatLng{Lat: 37.7749, Lng: -122.4194}, 12)
	if sig[0] != want || sig[3] != want {
		t.Errorf("active queries should carry the dominating cell: %v", sig)
	}
	if sig[1] != Placeholder || sig[2] != Placeholder {
		t.Errorf("silent queries should be placeholders: %v", sig)
	}
}

func TestBuildSignaturesDominanceCount(t *testing.T) {
	// Paper's illustrative example: 3 visits to one cell, 2 to another in
	// one query window → the 3-count cell dominates.
	recs := []model.Record{
		rec("a", 37.7749, -122.4194, 0),
		rec("a", 37.7749, -122.4194, 950),
		rec("a", 37.7749, -122.4194, 1900),
		rec("a", 37.9, -122.1, 100),
		rec("a", 37.9, -122.1, 1000),
	}
	d := model.Dataset{Name: "E", Records: recs}
	s := history.Build(&d, wnd, 12)
	sigs := BuildSignatures(s, 3, 0, 2)
	want := geo.CellIDFromLatLngLevel(geo.LatLng{Lat: 37.7749, Lng: -122.4194}, 12)
	if sigs["a"][0] != want {
		t.Errorf("dominating cell = %v, want the 3-visit cell %v", sigs["a"][0], want)
	}
}

func TestSignatureSimilarity(t *testing.T) {
	c1 := geo.CellID(0x89c2589 | 1)
	c2 := geo.CellID(0x89c25f1 | 1)
	a := Signature{c1, c2, Placeholder, c1}
	b := Signature{c1, c1, Placeholder, c1}
	// Matching non-placeholder positions: 0 and 3 → 2/4.
	if got := SignatureSimilarity(a, b); got != 0.5 {
		t.Errorf("similarity = %g, want 0.5", got)
	}
	// Placeholders never match (both silent ≠ same place).
	allP := Signature{Placeholder, Placeholder}
	if got := SignatureSimilarity(allP, allP); got != 0 {
		t.Errorf("placeholder similarity = %g, want 0", got)
	}
	if SignatureSimilarity(a, Signature{c1}) != 0 {
		t.Error("mismatched lengths should give 0")
	}
	if SignatureSimilarity(nil, nil) != 0 {
		t.Error("empty signatures should give 0")
	}
}

// TestAppendSignatureMatchesBuildSignatures verifies the single-entity
// primitive (with buffer reuse) agrees with the batch builder.
func TestAppendSignatureMatchesBuildSignatures(t *testing.T) {
	var recs []model.Record
	for e := 0; e < 8; e++ {
		id := string(rune('a' + e))
		for k := 0; k < 30; k++ {
			recs = append(recs, rec(id, 37+float64((e*5+k)%11)*0.05, -122.4, int64(900*(k*3+e))))
		}
	}
	s := history.Build(&model.Dataset{Name: "E", Records: recs}, wnd, 13)
	minW, maxW, _ := s.WindowRange()
	n := SignatureLength(minW, maxW, 4)
	batch := BuildSignatures(s, 4, minW, maxW)
	var buf Signature
	for _, e := range s.Entities() {
		buf = AppendSignature(buf, s.History(e), 4, minW, maxW, n)
		if !slices.Equal(buf, batch[e]) {
			t.Fatalf("entity %s: AppendSignature %v != BuildSignatures %v", e, buf, batch[e])
		}
	}
}
