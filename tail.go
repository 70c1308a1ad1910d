package slim

import (
	"sort"
	"time"

	"slim/internal/threshold"
)

// PublishTailStats reports the work profile of the most recent Publish:
// the size of its matching, the threshold fit cache's counters (embedded
// as they are) and the stage timings. The json tags (the embedded
// struct's included) are its keys in /v1/stats' publish_tail block
// (internal/server's wire encoder flattens an embedded struct and prints
// a Duration as milliseconds, hence "_ms").
type PublishTailStats struct {
	// Matched is the size of the published matching.
	Matched int `json:"matched"`
	threshold.CacheStats
	// LastUpdate is the wall-clock duration of the last Publish;
	// LastMatch and LastThreshold split out the matching and threshold
	// stages.
	LastUpdate    time.Duration `json:"last_update_ms"`
	LastMatch     time.Duration `json:"last_match_ms"`
	LastThreshold time.Duration `json:"last_threshold_ms"`
}

// publishTail is what Publish keeps from one call to the next: the
// threshold fit cache keyed on the matched score list (see
// threshold.Cache), the score column handed to it, and the last call's
// stats. The matching itself is walked from scratch every time.
type publishTail struct {
	thr    threshold.Cache
	scores []float64
	stats  PublishTailStats
}

// publish matches the edge store's order and cuts the matching at the
// selected stop threshold: bit for bit the MatchLinks →
// SelectStopThreshold → FilterLinks reference over es.materialize().
func (t *publishTail) publish(es *edgeStore) (matched, links []Link, thr StopThreshold) {
	start := time.Now()
	matched = es.greedy(t.stats.Matched + 8)
	t.stats.LastMatch = time.Since(start)

	thrStart := time.Now()
	t.scores = t.scores[:0]
	for _, l := range matched {
		t.scores = append(t.scores, l.Score)
	}
	thr = t.thr.Select(t.scores)
	t.stats.LastThreshold = time.Since(thrStart)

	// matched is in greedy order — descending score — so the links above
	// the threshold are exactly a prefix; nil when empty, matching
	// FilterLinks.
	k := sort.Search(len(matched), func(i int) bool { return !(matched[i].Score > thr.Threshold) })
	if k > 0 {
		links = matched[:k:k]
	}
	t.stats.Matched = len(matched)
	t.stats.CacheStats = t.thr.Stats()
	t.stats.LastUpdate = time.Since(start)
	return matched, links, thr
}
