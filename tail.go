package slim

import (
	"sort"
	"time"

	"slim/internal/matching"
	"slim/internal/threshold"
)

// EdgeDelta describes one edge-store update at the granularity the
// incremental publish tail consumes: the edges that entered the store or
// changed score (with their fresh scores) and the edges that left it
// (with the scores they held — a score change contributes one of each).
type EdgeDelta struct {
	// Full marks an update that was a full rescore (epoch rebuild) or is
	// otherwise not describable incrementally; the tail must rebuild from
	// the complete edge set.
	Full bool
	// Seq is the producing edge store's update counter, letting a consumer
	// detect that it missed an intermediate update (and must treat the
	// delta as Full).
	Seq uint64
	// Changed and Removed may alias the producer's reused buffers: they
	// are only valid until that store's next update, and a consumer may
	// reorder them (the matcher sorts them in place).
	Changed []Link
	Removed []Link
}

// PublishTailStats reports the incremental publish tail's state and the
// work profile of its most recent Publish. The headline is
// ReusedPrefixLen vs SuffixWalked: reused matched links were adopted from
// the previous run without re-examining any edge above the first changed
// position, and ThresholdReuses counts runs that skipped the GMM refit
// entirely because the matched score list was bit-unchanged. The json tags
// are its keys in /v1/stats' publish_tail block (internal/server's wire
// encoder prints a Duration as milliseconds, hence "_ms").
type PublishTailStats struct {
	// Edges is the size of the maintained sorted edge list; Matched the
	// size of the current matching.
	Edges   int64 `json:"edges"`
	Matched int64 `json:"matched"`
	// ReusedPrefixLen / SuffixWalked describe the last matcher update:
	// matched links reused verbatim, and sorted-order entries re-walked
	// below the first changed position.
	ReusedPrefixLen int64 `json:"reused_prefix_len"`
	SuffixWalked    int64 `json:"suffix_walked"`
	// FullRebuilds counts full sort+walk rebuilds (first build, epoch
	// invalidations, missed deltas); Applies counts delta updates.
	FullRebuilds uint64 `json:"full_rebuilds_total"`
	Applies      uint64 `json:"applies_total"`
	// ThresholdFits / ThresholdReuses count threshold selections that ran
	// the detector vs reused the cached fit (bit-identical score list).
	ThresholdFits   uint64 `json:"threshold_fits_total"`
	ThresholdReuses uint64 `json:"threshold_reuses_total"`
	// LastFull reports whether the last Publish was a full rebuild.
	LastFull bool `json:"last_full_rebuild"`
	// LastUpdate is the wall-clock duration of the last Publish;
	// LastMatch and LastThreshold split out the matching and threshold
	// stages.
	LastUpdate    time.Duration `json:"last_update_ms"`
	LastMatch     time.Duration `json:"last_match_ms"`
	LastThreshold time.Duration `json:"last_threshold_ms"`
}

// PublishTail maintains the merge→match→threshold pipeline of a linkage
// across runs, turning the publish tail from O(n log n) per run into
// O(delta log n): a globally sorted edge list updated by splice, a
// prefix-reusing greedy matcher (see matching.Incremental), and a
// threshold fit cache keyed on the matched score list (see
// threshold.Cache). Its published output is bit-identical to the
// from-scratch MatchLinks → SelectStopThreshold → FilterLinks pipeline
// over the same edge set, which stays in the tree as the reference the
// parity tests compare it against. Not safe for concurrent use.
type PublishTail struct {
	method ThresholdMethod
	fit    func([]float64) threshold.Result
	m      matching.Incremental
	thr    threshold.Cache
	// scoresBuf is the matched score column handed to the fit cache.
	scoresBuf []float64

	lastFull                             bool
	lastUpdate, lastMatch, lastThreshold time.Duration
}

// NewPublishTail returns a tail publishing with the given stop-threshold
// method.
func NewPublishTail(method ThresholdMethod) *PublishTail {
	return &PublishTail{
		method: method,
		fit: func(scores []float64) threshold.Result {
			return selectThresholdResult(method, scores)
		},
	}
}

// Publish folds one edge-store delta into the maintained pipeline and
// returns the updated matching (descending score), the links above the
// selected stop threshold, and the threshold decision. all is called only
// when a full rebuild is needed (a delta marked Full, an inconsistent
// delta, or the first Publish) and must return the complete current edge
// set; it is copied, not adopted. d.Changed and d.Removed are reordered in
// place. matched is the matcher's own slice and links a prefix of it:
// neither is written again once returned — an update that changes the
// matching allocates a fresh slice — so callers may retain and read them
// while later Publish calls proceed, and must not modify them.
func (t *PublishTail) Publish(d EdgeDelta, all func() []Link) (matched, links []Link, thr StopThreshold) {
	start := time.Now()
	full := d.Full || !t.built()
	if !full {
		var ok bool
		matched, ok = t.m.Apply(d.Removed, d.Changed)
		// An inconsistent delta (producer out of sync) degrades to a full
		// rebuild rather than failing: exactness first, speed second.
		full = !ok
	}
	if full {
		matched = t.m.Rebuild(all())
	}
	t.lastMatch = time.Since(start)

	thrStart := time.Now()
	t.scoresBuf = t.scoresBuf[:0]
	for _, l := range matched {
		t.scoresBuf = append(t.scoresBuf, l.Score)
	}
	r := t.thr.Select(t.scoresBuf, t.fit)
	thr = StopThreshold{Threshold: r.Threshold, Method: string(r.Method)}
	t.lastThreshold = time.Since(thrStart)

	// matched is in greedy order — descending score — so the links above
	// the threshold are exactly a prefix; nil when empty, matching
	// FilterLinks.
	k := sort.Search(len(matched), func(i int) bool { return !(matched[i].Score > thr.Threshold) })
	if k > 0 {
		links = matched[:k:k]
	}
	t.lastFull = full
	t.lastUpdate = time.Since(start)
	return matched, links, thr
}

// built reports whether the tail has published at least once (the matcher
// holds a maintained order).
func (t *PublishTail) built() bool {
	return t.m.Stats().Rebuilds > 0
}

// Stats returns the tail's state and last-Publish work profile.
func (t *PublishTail) Stats() PublishTailStats {
	ms := t.m.Stats()
	cs := t.thr.Stats()
	return PublishTailStats{
		Edges:           int64(ms.Edges),
		Matched:         int64(ms.Matched),
		ReusedPrefixLen: int64(ms.ReusedPrefix),
		SuffixWalked:    int64(ms.SuffixWalked),
		FullRebuilds:    ms.Rebuilds,
		Applies:         ms.Applies,
		ThresholdFits:   cs.Fits,
		ThresholdReuses: cs.Reuses,
		LastFull:        t.lastFull,
		LastUpdate:      t.lastUpdate,
		LastMatch:       t.lastMatch,
		LastThreshold:   t.lastThreshold,
	}
}
