package threshold

import "math"

// CacheStats counts how often a Cache had to run the underlying fit vs
// how often it reused the previous result. The json tags are its keys in
// /v1/stats' publish_tail block (slim's PublishTailStats embeds it).
type CacheStats struct {
	Fits   uint64 `json:"threshold_fits_total"`
	Reuses uint64 `json:"threshold_reuses_total"`
}

// Cache memoizes the most recent threshold fit of its Method, keyed on the
// exact score sequence. Scores are compared via math.Float64bits, so reuse
// happens only when the input is bit-identical to the previous call — the
// returned Result is then byte-for-byte the same decision, which keeps
// cached selection bit-compatible with always refitting. Callers pass the
// matched score list in its published (descending-sorted) order, making
// sequence equality equivalent to multiset equality.
//
// The zero value is ready to use and runs the GMM detector; set Method
// before the first Select. Not safe for concurrent use. The cached Result
// (including its *GMM model) is shared across calls and must be treated
// as read-only.
type Cache struct {
	// Method is the detector Select runs (see the package function Select).
	Method Method

	key    []uint64
	result Result
	valid  bool

	fits, reuses uint64
}

// Select returns the threshold decision of c.Method for scores, fitting
// only when the score sequence differs bitwise from the previous call.
func (c *Cache) Select(scores []float64) Result {
	if c.valid && len(scores) == len(c.key) {
		same := true
		for i, s := range scores {
			if math.Float64bits(s) != c.key[i] {
				same = false
				break
			}
		}
		if same {
			c.reuses++
			return c.result
		}
	}
	r := Select(c.Method, scores)
	c.key = c.key[:0]
	for _, s := range scores {
		c.key = append(c.key, math.Float64bits(s))
	}
	c.result = r
	c.valid = true
	c.fits++
	return r
}

// Stats returns fit/reuse counts since the cache was created.
func (c *Cache) Stats() CacheStats { return CacheStats{Fits: c.fits, Reuses: c.reuses} }
