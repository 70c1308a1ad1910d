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
// by entity id. It shares the banding primitives (AppendSignature,
// appendBands, RowsPerBand) with the index, so both hash exactly the same
// bytes, and nothing else — no ordinals, no packed keys, no maintained
// state — so the parity suites compare the index against an independent
// definition.

// Pair is a candidate entity pair surviving the filter.
type Pair struct {
	U model.EntityID
	V model.EntityID
}

// BuildSignatures computes the signature of every entity of a signature
// store: one (row, dominating cell) per row the entity was observed in.
// Rows are absolute, so row q means the same time span on both sides.
func BuildSignatures(s *history.Store) map[model.EntityID]Signature {
	out := make(map[model.EntityID]Signature, s.NumEntities())
	for _, e := range s.Entities() {
		out[e] = AppendSignature(nil, s.History(e))
	}
	return out
}

// CandidatePairs runs the banding technique over the two signature sets and
// returns the distinct cross-dataset pairs that share a bucket in at least
// one band, sorted for determinism.
func CandidatePairs(sigsE, sigsI map[model.EntityID]Signature, p Params) []Pair {
	r, numBuckets := int64(RowsPerBand(p.Threshold)), uint64(p.NumBuckets)
	buckets := make(map[bandKey][]model.EntityID)
	for _, e := range sortedIDs(sigsE) {
		for _, key := range appendBands(nil, sigsE[e], r, numBuckets) {
			buckets[key] = append(buckets[key], e)
		}
	}
	seen := make(map[Pair]struct{})
	pairs := []Pair{}
	for _, i := range sortedIDs(sigsI) {
		for _, key := range appendBands(nil, sigsI[i], r, numBuckets) {
			for _, e := range buckets[key] {
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

// sortedIDs returns the map's keys, sorted.
func sortedIDs(sigs map[model.EntityID]Signature) []model.EntityID {
	ids := make([]model.EntityID, 0, len(sigs))
	for id := range sigs {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// SignatureSimilarity is the fraction of a span of rows on which both
// signatures carry the same dominating cell (Sec. 4: "the number of
// matching dominating cells, divided by the signature size"). A row absent
// from either signature never matches: both silent is not the same place.
func SignatureSimilarity(a, b Signature, span int) float64 {
	if span <= 0 {
		return 0
	}
	match := 0
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch {
		case a[i].Row < b[j].Row:
			i++
		case a[i].Row > b[j].Row:
			j++
		default:
			if a[i].Cell == b[j].Cell {
				match++
			}
			i, j = i+1, j+1
		}
	}
	return float64(match) / float64(span)
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
	// → rows 0 and 3 observed, rows 1 and 2 silent and absent.
	var recs []model.Record
	for k := 0; k < 3; k++ {
		recs = append(recs, rec("a", 37.7749, -122.4194, int64(900*k)))
		recs = append(recs, rec("a", 37.7749, -122.4194, int64(900*(9+k))))
	}
	sig := BuildSignatures(sigStore("E", recs, Params{StepWindows: 3, SpatialLevel: 12}))["a"]
	want := geo.CellIDFromLatLngLevel(geo.LatLng{Lat: 37.7749, Lng: -122.4194}, 12)
	if !slices.Equal(sig, Signature{{Row: 0, Cell: want}, {Row: 3, Cell: want}}) {
		t.Errorf("signature = %v, want the dominating cell in rows 0 and 3 only", sig)
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
	sig := BuildSignatures(sigStore("E", recs, Params{StepWindows: 3, SpatialLevel: 12}))["a"]
	want := geo.CellIDFromLatLngLevel(geo.LatLng{Lat: 37.7749, Lng: -122.4194}, 12)
	if len(sig) != 1 || sig[0].Cell != want {
		t.Errorf("signature = %v, want the 3-visit cell %v in row 0", sig, want)
	}
}

func TestSignatureSimilarity(t *testing.T) {
	c1 := geo.CellID(0x89c2589 | 1)
	c2 := geo.CellID(0x89c25f1 | 1)
	a := Signature{{0, c1}, {1, c2}, {3, c1}}
	b := Signature{{0, c1}, {1, c1}, {2, c2}, {3, c1}}
	// Matching rows: 0 and 3 of a four-row span → 2/4.
	if got := SignatureSimilarity(a, b, 4); got != 0.5 {
		t.Errorf("similarity = %g, want 0.5", got)
	}
	// Silent rows never match (both silent ≠ same place).
	if got := SignatureSimilarity(nil, nil, 2); got != 0 {
		t.Errorf("silent similarity = %g, want 0", got)
	}
	if SignatureSimilarity(a, a, 0) != 0 {
		t.Error("an empty span should give 0")
	}
}

// TestAppendSignatureMatchesBuildSignatures verifies the single-entity
// primitive, with buffer reuse, against a naive per-row scan of the
// history's bins: the heaviest cell of each observed row, ties to the
// smaller id.
func TestAppendSignatureMatchesBuildSignatures(t *testing.T) {
	var recs []model.Record
	for e := 0; e < 8; e++ {
		id := string(rune('a' + e))
		for k := 0; k < 30; k++ {
			recs = append(recs, rec(id, 37+float64((e*5+k)%11)*0.05, -122.4, int64(900*(k*3+e))))
		}
	}
	s := sigStore("E", recs, Params{StepWindows: 4, SpatialLevel: 13})
	batch := BuildSignatures(s)
	var buf Signature
	for _, e := range s.Entities() {
		h := s.History(e)
		buf = AppendSignature(buf, h)
		if !slices.Equal(buf, batch[e]) {
			t.Fatalf("entity %s: AppendSignature %v != BuildSignatures %v", e, buf, batch[e])
		}
		var naive Signature
		for _, row := range h.Windows() {
			cells, weights := h.WindowBins(row)
			best := 0
			for j := range cells {
				if weights[j] > weights[best] || weights[j] == weights[best] && cells[j] < cells[best] {
					best = j
				}
			}
			naive = append(naive, Row{Row: row, Cell: cells[best]})
		}
		if !slices.Equal(buf, naive) {
			t.Fatalf("entity %s: AppendSignature %v, naive per-row scan %v", e, buf, naive)
		}
	}
}
