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
	// Full marks an update that was a full rescore (IDF-epoch move) or is
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
// work profile of its most recent Publish: the matcher's counters and the
// threshold fit cache's, embedded as they are, plus the tail's own. The
// headline is ReusedPrefix vs SuffixWalked: reused matched links were
// adopted from the previous run without re-examining any edge above the
// first changed position, and Reuses counts runs that skipped the GMM
// refit entirely because the matched score list was bit-unchanged. The
// json tags (the embedded structs' included) are its keys in /v1/stats'
// publish_tail block (internal/server's wire encoder flattens an embedded
// struct and prints a Duration as milliseconds, hence "_ms").
type PublishTailStats struct {
	matching.IncrementalStats
	threshold.CacheStats
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
	m   matching.Incremental
	thr threshold.Cache
	// scoresBuf is the matched score column handed to the fit cache.
	scoresBuf []float64

	lastFull                             bool
	lastUpdate, lastMatch, lastThreshold time.Duration
}

// NewPublishTail returns a tail publishing with the given stop-threshold
// method.
func NewPublishTail(method ThresholdMethod) *PublishTail {
	return &PublishTail{thr: threshold.Cache{Method: method}}
}

// Publish folds one edge-store delta into the maintained pipeline and
// returns the updated matching (descending score), the links above the
// selected stop threshold, and the threshold decision. all is called only
// when a full rebuild is needed (a delta marked Full, an inconsistent
// delta, or the first Publish) and must return the complete current edge
// set, freshly allocated: the tail adopts it. d.Changed and d.Removed
// are reordered in place. matched is the matcher's own slice and links a
// prefix of it: neither is written again once returned — an update that
// changes the matching allocates a fresh slice — so callers may retain
// and read them while later Publish calls proceed, and must not modify
// them.
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
	thr = t.thr.Select(t.scoresBuf)
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
	return PublishTailStats{
		IncrementalStats: t.m.Stats(),
		CacheStats:       t.thr.Stats(),
		LastFull:         t.lastFull,
		LastUpdate:       t.lastUpdate,
		LastMatch:        t.lastMatch,
		LastThreshold:    t.lastThreshold,
	}
}
