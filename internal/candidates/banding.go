package candidates

import (
	"fmt"
	"math"
	"slices"

	"slim/internal/geo"
	"slim/internal/history"
	"slim/internal/mathx"
)

// Placeholder marks query windows in which the entity has no records. Per
// the paper, placeholders keep signature structure aligned across entities
// but are omitted when hashing.
const Placeholder geo.CellID = 0

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

// DefaultParams is the paper's filter: t = 0.6, dominating cells at level
// 16 over query windows of 48 temporal windows (12 h of 15-minute
// windows, the paper's sweet spot), 4096 buckets per band.
func DefaultParams() Params {
	return Params{Threshold: 0.6, StepWindows: 48, SpatialLevel: 16, NumBuckets: 4096}
}

// Normalize returns p with every zero field taken from DefaultParams, or
// an error naming the first field outside its range.
func (p Params) Normalize() (Params, error) {
	d := DefaultParams()
	if p.Threshold == 0 {
		p.Threshold = d.Threshold
	}
	if p.StepWindows == 0 {
		p.StepWindows = d.StepWindows
	}
	if p.SpatialLevel == 0 {
		p.SpatialLevel = d.SpatialLevel
	}
	if p.NumBuckets == 0 {
		p.NumBuckets = d.NumBuckets
	}
	switch {
	case p.Threshold <= 0 || p.Threshold >= 1:
		return p, fmt.Errorf("LSH threshold %g outside (0, 1)", p.Threshold)
	case p.SpatialLevel < 0 || p.SpatialLevel > 30:
		return p, fmt.Errorf("LSH spatial level %d outside [0, 30]", p.SpatialLevel)
	case p.NumBuckets < 0:
		return p, fmt.Errorf("LSH bucket count %d is negative", p.NumBuckets)
	}
	return p, nil
}

// Signature is the ordered list of dominating grid cells of one entity,
// one entry per query window (Placeholder where the entity was silent).
type Signature []geo.CellID

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

// Banding is the resolved banded-hashing geometry of one signature grid:
// how many bands, how many rows per band, and how many buckets each band
// hashes into. It is derived once per grid (NewBanding).
type Banding struct {
	SigLen     int
	Bands      int
	Rows       int
	NumBuckets int
}

// NewBanding resolves the banding geometry for a signature length under
// the given params (Bands for b/r). p.NumBuckets must be positive.
func NewBanding(sigLen int, p Params) Banding {
	b, r := Bands(sigLen, p.Threshold)
	return Banding{SigLen: sigLen, Bands: b, Rows: r, NumBuckets: p.NumBuckets}
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
func AppendSignature(dst Signature, h history.History, stepWindows int, minWin, maxWin int64, n int) Signature {
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
