package candidates

import (
	"fmt"
	"math"

	"slim/internal/geo"
	"slim/internal/history"
	"slim/internal/mathx"
	"slim/internal/model"
)

// Params configures the LSH filter.
type Params struct {
	// Threshold is the target signature similarity t: entities whose
	// signatures agree on at least a t-fraction of dominating cells should
	// become candidates with high probability.
	Threshold float64
	// StepWindows is the query window size in leaf temporal windows (the
	// "temporal step size" axis of Fig. 8): one signature row.
	StepWindows int
	// SpatialLevel is the grid level of the dominating cells (independent
	// of the similarity score's spatial level, per Sec. 5.3.1).
	SpatialLevel int
	// NumBuckets is the number of hash buckets per band (Fig. 9 axis), at
	// most 2^32: a posting packs the hash in 32 bits.
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
	case p.StepWindows < 0:
		return p, fmt.Errorf("LSH step %d is negative", p.StepWindows)
	case p.SpatialLevel < 0 || p.SpatialLevel > 30:
		return p, fmt.Errorf("LSH spatial level %d outside [0, 30]", p.SpatialLevel)
	case p.NumBuckets < 0 || uint64(p.NumBuckets) > 1<<32:
		return p, fmt.Errorf("LSH bucket count %d outside [1, 2^32]", p.NumBuckets)
	}
	return p, nil
}

// RowWindowing is the windowing of a side's signature store: one window —
// one signature row — per StepWindows leaf windows of the given leaf
// windowing. Like every window grid it is absolute: row q covers
// [q·width, (q+1)·width) of Unix time for every dataset and every ingest
// order.
func (p Params) RowWindowing(leaf model.Windowing) model.Windowing {
	return model.Windowing{WidthSeconds: leaf.WidthSeconds * int64(max(p.StepWindows, 1))}
}

// NominalRows is the signature length L the rows per band are solved at:
// 26 days of 12-hour rows, the span of the paper's SM workload. Bands
// themselves are not counted — a band is any r consecutive absolute rows
// — so L fixes r alone (DESIGN.md §8 says what t then means for spans
// shorter or longer than L).
const NominalRows = 52

// Bands solves the banding parameters for a signature length s and target
// threshold t: b = exp(W(-s·ln t)) rounded and clamped into [1, s], and
// r = ceil(s/b).
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

// RowsPerBand is r for threshold t: Bands at the nominal length.
func RowsPerBand(t float64) int {
	_, r := Bands(NominalRows, t)
	return r
}

// Row is one observed row of a signature: a signature-store window and
// the entity's dominating cell in it.
type Row struct {
	Row  int64
	Cell geo.CellID
}

// Signature is the sparse signature of one entity: its observed rows in
// ascending order, one per window of its signature-store history. A row
// the entity was silent in is simply absent.
type Signature []Row

// AppendSignature appends the signature of a signature-store history to
// dst[:0] (pass nil to allocate), so incremental callers can reuse one
// buffer.
func AppendSignature(dst Signature, h history.History) Signature {
	dst = dst[:0]
	for k, row := range h.Windows() {
		dst = append(dst, Row{Row: row, Cell: h.DominatingCellAt(k)})
	}
	return dst
}

// bandKey names one bucket: an absolute band and a bucket hash within it.
type bandKey struct {
	band int64
	hash uint64
}

// bandOf returns the band holding a row: band q holds rows [q·r, (q+1)·r).
func bandOf(row, r int64) int64 {
	q := row / r
	if row%r < 0 {
		q-- // floor division for rows before Unix 0
	}
	return q
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

// appendBands appends the bucket keys of a signature to dst, one per band
// the signature has a row in, ascending by band: the band's hash folds the
// band and each of its observed rows (index and cell), reduced into
// numBuckets buckets. A band without an observed row is never hashed, so
// two entities silent there do not collide.
func appendBands(dst []bandKey, sig Signature, r int64, numBuckets uint64) []bandKey {
	for i := 0; i < len(sig); {
		band := bandOf(sig[i].Row, r)
		h := fnvWrite64(fnvOffset64, uint64(band))
		for ; i < len(sig) && bandOf(sig[i].Row, r) == band; i++ {
			h = fnvWrite64(h, uint64(sig[i].Row))
			h = fnvWrite64(h, uint64(sig[i].Cell))
		}
		dst = append(dst, bandKey{band: band, hash: h % numBuckets})
	}
	return dst
}

// countBands returns how many keys appendBands makes of a history's rows.
func countBands(rows []int64, r int64) int {
	n := 0
	for i, row := range rows {
		if i == 0 || bandOf(row, r) != bandOf(rows[i-1], r) {
			n++
		}
	}
	return n
}

// sharesBand reports whether two entities' band keys (each ascending by
// band) agree in some band both of them have: the definition of a
// candidate pair.
func sharesBand(a, b []bandKey) bool {
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
