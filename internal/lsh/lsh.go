// Package lsh implements SLIM's locality-sensitive-hashing filter (Sec. 4):
// each mobility history is summarized as a signature of dominating grid
// cells (one per non-overlapping query time window), the signatures are
// divided into b bands of r rows with b solved from the Lambert W function,
// and each band is hashed into a large bucket array. Only cross-dataset
// pairs that share a bucket in at least one band become linkage candidates,
// which is what delivers the paper's two-to-four orders of magnitude
// speedup.
//
// The banding primitives (Banding, BandHash, AppendSignature) are shared
// between the batch enumeration below and the incremental candidate index
// in internal/candidates, so both paths hash exactly the same bytes and
// can never disagree on which pairs collide.
//
// The batch enumeration (BuildSignatures, CandidatePairs, Pair, SortPairs)
// is keyed by entity id on purpose: it is the from-scratch oracle the
// index's parity suites compare against, and shares no representation
// with it — the index names entities by ordinal and pairs by a packed
// uint64, and no linker path calls the batch form.
package lsh

import (
	"math"
	"slices"

	"slim/internal/geo"
	"slim/internal/history"
	"slim/internal/mathx"
	"slim/internal/model"
)

// Placeholder marks query windows in which the entity has no records. Per
// the paper, placeholders keep signature structure aligned across entities
// but are omitted when hashing.
const Placeholder geo.CellID = 0

// DefaultNumBuckets is the per-band bucket count used when Params leaves
// NumBuckets unset (the paper's default).
const DefaultNumBuckets = 4096

// Params configures the LSH filter.
type Params struct {
	// Threshold is the target signature similarity t: entities whose
	// signatures agree on at least a t-fraction of dominating cells should
	// become candidates with high probability.
	Threshold float64
	// StepWindows is the query window size in leaf temporal windows (the
	// "temporal step size" axis of Fig. 8).
	StepWindows int
	// SpatialLevel is the grid level of the dominating cells (independent
	// of the similarity score's spatial level, per Sec. 5.3.1).
	SpatialLevel int
	// NumBuckets is the number of hash buckets per band (Fig. 9 axis).
	NumBuckets int
}

// DefaultParams mirrors the paper's defaults: t = 0.6, 4096 buckets.
func DefaultParams(stepWindows, spatialLevel int) Params {
	return Params{Threshold: 0.6, StepWindows: stepWindows, SpatialLevel: spatialLevel, NumBuckets: DefaultNumBuckets}
}

// Signature is the ordered list of dominating grid cells of one entity,
// one entry per query window (Placeholder where the entity was silent).
type Signature []geo.CellID

// Pair is a candidate entity pair surviving the filter.
type Pair struct {
	U model.EntityID
	V model.EntityID
}

// Stats reports filter effectiveness.
type Stats struct {
	SignatureLen int
	Bands        int
	Rows         int
	// BandsHashed counts (entity, band) hashes actually performed
	// (placeholder-only bands are skipped).
	BandsHashed int64
	// Candidates is the number of distinct cross-dataset candidate pairs.
	Candidates int64
}

// SignatureLength returns the number of query windows needed to span the
// inclusive leaf-window range [minWin, maxWin] with the given step.
func SignatureLength(minWin, maxWin int64, stepWindows int) int {
	if stepWindows <= 0 || maxWin < minWin {
		return 0
	}
	span := maxWin - minWin + 1
	return int((span + int64(stepWindows) - 1) / int64(stepWindows))
}

// Bands solves the banding parameters for a signature length s and target
// threshold t: b = exp(W(-s·ln t)) rounded and clamped into [1, s], and
// r = ceil(s/b) (the final band may be short; Design decision 6).
func Bands(sigLen int, t float64) (b, r int) {
	if sigLen <= 0 {
		return 0, 0
	}
	t = mathx.Clamp(t, 1e-6, 1-1e-6)
	w, err := mathx.LambertW0(-float64(sigLen) * math.Log(t))
	if err != nil {
		return 1, sigLen
	}
	b = int(math.Round(math.Exp(w)))
	if b < 1 {
		b = 1
	}
	if b > sigLen {
		b = sigLen
	}
	r = (sigLen + b - 1) / b
	return b, r
}

// CandidateProbability returns the probability 1-(1-t^r)^b that two
// signatures with similarity t share at least one identical band.
func CandidateProbability(t float64, b, r int) float64 {
	if b <= 0 || r <= 0 {
		return 0
	}
	return 1 - math.Pow(1-math.Pow(t, float64(r)), float64(b))
}

// Banding is the resolved banded-hashing geometry of one signature grid:
// how many bands, how many rows per band, and how many buckets each band
// hashes into. It is derived once per grid (NewBanding) and shared by the
// batch CandidatePairs enumeration and the incremental candidate index.
type Banding struct {
	SigLen     int
	Bands      int
	Rows       int
	NumBuckets int
}

// NewBanding resolves the banding geometry for a signature length under
// the given params (Bands for b/r, DefaultNumBuckets when unset).
func NewBanding(sigLen int, p Params) Banding {
	b, r := Bands(sigLen, p.Threshold)
	nb := p.NumBuckets
	if nb <= 0 {
		nb = DefaultNumBuckets
	}
	return Banding{SigLen: sigLen, Bands: b, Rows: r, NumBuckets: nb}
}

// BandRange returns the [lo, hi) signature row range of one band; the
// final band may be short (Design decision 6).
func (g Banding) BandRange(band int) (lo, hi int) {
	lo = band * g.Rows
	hi = lo + g.Rows
	if hi > g.SigLen {
		hi = g.SigLen
	}
	return lo, hi
}

// FNV-1a constants (identical to hash/fnv's 64a variant; inlined so band
// hashing performs zero allocations on the hot incremental path).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvWrite64 folds the 8 little-endian bytes of v into an FNV-1a state,
// byte-for-byte identical to writing the same buffer into fnv.New64a.
func fnvWrite64(h, v uint64) uint64 {
	for k := 0; k < 8; k++ {
		h ^= v >> (8 * k) & 0xff
		h *= fnvPrime64
	}
	return h
}

// BandHash hashes the non-placeholder rows of one band into the bucket
// space; ok is false when the band holds only placeholders (such bands are
// never hashed, so two entirely silent entities do not collide).
func (g Banding) BandHash(sig Signature, band int) (uint64, bool) {
	lo, hi := g.BandRange(band)
	if lo >= hi {
		return 0, false
	}
	h := uint64(fnvOffset64)
	h = fnvWrite64(h, uint64(band))
	any := false
	for row := lo; row < hi && row < len(sig); row++ {
		if sig[row] == Placeholder {
			continue
		}
		any = true
		h = fnvWrite64(h, uint64(row))
		h = fnvWrite64(h, uint64(sig[row]))
	}
	if !any {
		return 0, false
	}
	return h % uint64(g.NumBuckets), true
}

// AppendSignature computes one entity's signature over the query grid that
// starts at leaf window minWin, covers n query windows of stepWindows
// leaves each, and clamps the final query window to maxWin+1. The result
// is appended to dst[:0] (pass nil to allocate) so incremental callers can
// reuse one buffer.
//
// Query windows do not overlap, so the whole signature is one forward
// sweep over the history's sorted windows: each leaf is read exactly once.
//
// The clamp matches the historical batch behavior but is semantically
// inert: DominatingCell sums record counts, and a history holds no records
// past its dataset's max window ≤ maxWin, so extending the final query
// window past maxWin+1 could never change the outcome. This is what lets
// the incremental index keep signatures computed under an older maxWin
// when later ingest grows the range without growing n.
func AppendSignature(dst Signature, h *history.History, stepWindows int, minWin, maxWin int64, n int) Signature {
	dst = dst[:0]
	wins := h.Windows()
	k, _ := slices.BinarySearch(wins, minWin)
	for q := 1; q <= n; q++ {
		end := min(minWin+int64(q)*int64(stepWindows), maxWin+1)
		lo := k
		for k < len(wins) && wins[k] < end {
			k++
		}
		cell, ok := h.DominatingCellAt(lo, k)
		if !ok {
			cell = Placeholder
		}
		dst = append(dst, cell)
	}
	return dst
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

// CandidatePairs runs the banding technique over the two signature sets and
// returns the distinct cross-dataset pairs that share a bucket in at least
// one band, sorted for determinism.
func CandidatePairs(sigsE, sigsI map[model.EntityID]Signature, p Params) ([]Pair, Stats) {
	var st Stats
	if len(sigsE) == 0 || len(sigsI) == 0 {
		return nil, st
	}
	sigLen := 0
	for _, sig := range sigsE {
		sigLen = len(sig)
		break
	}
	g := NewBanding(sigLen, p)
	st.SignatureLen = sigLen
	st.Bands = g.Bands
	st.Rows = g.Rows
	if g.Bands == 0 {
		return nil, st
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
				st.BandsHashed++
			}
		}
		for _, i := range isIDs {
			h, ok := g.BandHash(sigsI[i], band)
			if !ok {
				continue
			}
			st.BandsHashed++
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
	st.Candidates = int64(len(pairs))
	return pairs, st
}

// SortPairs orders pairs by (U, V) ascending — the canonical candidate
// order shared by the batch path and the incremental index.
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
