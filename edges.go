package slim

import (
	"cmp"
	"slices"
	"time"

	"slim/internal/candidates"
	"slim/internal/history"
)

// EdgeStoreStats reports the state of a Linker's incremental edge store
// and the work profile of its most recent update. The headline ratio is
// Retained vs Rescored: retained pairs kept their cached score without
// touching the scorer, which is exactly the work an incremental relink
// saves over the full rescan it replaced.
type EdgeStoreStats struct {
	// Pairs is the number of retained scored edges (candidate pairs with a
	// positive score) — the store's state size.
	Pairs int64
	// Epoch counts full rescores: 1 after the first run, bumped every time
	// an IDF-epoch or grid change invalidated every cached score.
	Epoch uint64
	// Retained / Rescored / Dropped describe the last update: candidate
	// pairs kept with their cached score, pairs (re)scored, and edges
	// removed from the store (candidate-set removals plus pairs whose
	// fresh score was no longer positive).
	Retained int64
	Rescored int64
	Dropped  int64
	// FullRescore reports whether the last update was an epoch rebuild.
	FullRescore bool
	// LastUpdate is the wall-clock duration of the last update (scoring,
	// store maintenance and edge materialization; excludes matching).
	LastUpdate time.Duration
	// ResidentBytes estimates the store's resident memory: a fixed
	// map/cache cost per retained pair (Go map internals are not directly
	// measurable; see edgePairBytes).
	ResidentBytes int64
}

// EdgeLineage is the provenance of one pair in the edge store: whether it
// is currently a retained edge, its score, and which runs produced it.
// Run sequence numbers are the ones stamped by RunEdges — inside
// internal/engine they are the engine's published result versions, so a
// lineage seq can be joined against the engine's run journal.
type EdgeLineage struct {
	// Linked reports whether the pair is currently a retained (positive
	// scored) edge; the remaining fields are zero when it is not.
	Linked bool
	// Score is the retained score.
	Score float64
	// RescoredSeq is the run that last actually scored this pair (every
	// later run retained the cached value).
	RescoredSeq uint64
	// RetainedSinceSeq is the run the pair first entered the store in its
	// current tenure (dropping and re-adding a pair restarts it).
	RetainedSinceSeq uint64
	// LastFullSeq / ScoreAtLastFull are the most recent full (epoch)
	// rescore that scored this pair and the score it produced then — the
	// anchor for "has this edge drifted since the last global rescore".
	// Both are zero for pairs added after the last full rescore.
	LastFullSeq     uint64
	ScoreAtLastFull float64
	// StoreEpoch counts the store's full rescores (see EdgeStoreStats).
	StoreEpoch uint64
}

// edgeMeta is the per-pair provenance behind EdgeLineage, stamped by
// resetFull/apply as scores are installed.
type edgeMeta struct {
	rescoredSeq uint64
	sinceSeq    uint64
	fullSeq     uint64
	fullScore   float64
}

// edgePairBytes is the estimated resident cost of one retained edge: a
// 40-byte slot of the materialised links cache, a 17-byte scores map slot
// (8-byte packed pair, float64, control byte) and a 41-byte meta map slot
// (packed pair, 32 bytes of provenance, control byte). Go sizes a map to a
// power of two, so the two slots cost between 8/7 and 16/7 of that per
// live entry — 106 to 173 B per edge in all; the constant is the middle.
// Entity ids cost nothing here: a Link's strings share the bytes the
// side's entity table already holds.
const edgePairBytes = 140

// scoredPair is one candidate pair (candidates.Key) with its score.
type scoredPair struct {
	key   uint64
	score float64
}

// edgeStore is the maintained pair→score state behind Linker.RunEdges.
// Where scoring used to be per-run output (every candidate rescanned on
// every run), the store keeps the scored edges alive between runs and
// updates them by delta: rescore the added/dirty pairs, drop the removed
// ones, keep the rest untouched.
//
// Soundness mirrors the epoch discipline of the compiled scoring views
// (history/compiled.go) and the candidate index (internal/candidates):
// a pair's score is a pure function of its two histories, the similarity
// parameters, and the stores' dataset-level statistics (IDF weights and
// the average history size). The latter are versioned by history.Store's
// IDF epoch — new bin, new entity — so while both epochs stand still, a
// retained edge's score is bit-identical to what a rescore would produce,
// and any epoch movement forces a full rescore (amortized exactly like
// candidate-index rebuilds: dataset-level shifts grow ever rarer as a
// feed ages, while per-entity churn never stops).
type edgeStore struct {
	built bool
	// epochE / epochI are the history-store IDF epochs the retained scores
	// were computed under; any movement invalidates them all.
	epochE, epochI uint64

	// idsE / idsI are the two sides' entity tables: every map below is
	// keyed by the packed ordinal pair (candidates.Key), and names are
	// resolved only where an edge becomes a Link.
	idsE, idsI *history.Ordinals

	// scores holds every candidate pair with a positive score; meta holds
	// the matching per-pair provenance (same key set as scores).
	scores map[uint64]float64
	meta   map[uint64]edgeMeta
	// seq is the run sequence of the last update (see Linker.RunEdges for
	// how it is assigned).
	seq uint64
	// links caches the sorted materialization of scores; linksStale marks
	// it outdated.
	links      []Link
	linksStale bool

	// Pending work accumulated between runs: pairs to (re)score, pairs to
	// drop, and a forced-full flag, set on candidate-index rebuilds (the
	// pair lists are not tracked across one) and by
	// Linker.ForceFullRescore.
	pendFull    bool
	pendRescore map[uint64]struct{}
	pendRemoved map[uint64]struct{}

	fullRescores                            uint64
	lastRetained, lastRescored, lastDropped int64
	lastFull                                bool
	lastUpdate                              time.Duration

	// deltaChanged / deltaRemoved record the exact edge-level delta of the
	// last update for the incremental publish tail: edges that entered the
	// store or changed score (with their fresh scores) and edges that left
	// it (with the scores they held). A score change records both. The
	// buffers are reused across updates — consumers must not retain them —
	// and updates counts every resetFull/apply so a consumer can detect a
	// missed delta and fall back to a full rebuild.
	deltaChanged []Link
	deltaRemoved []Link
	updates      uint64
}

func newEdgeStore(idsE, idsI *history.Ordinals) edgeStore {
	return edgeStore{
		idsE:        idsE,
		idsI:        idsI,
		scores:      make(map[uint64]float64),
		meta:        make(map[uint64]edgeMeta),
		pendRescore: make(map[uint64]struct{}),
		pendRemoved: make(map[uint64]struct{}),
	}
}

// link materialises one edge: the only place a packed pair is resolved
// back to entity ids.
func (es *edgeStore) link(p uint64, score float64) Link {
	u, v := candidates.Ends(p)
	return Link{U: es.idsE.ID(u), V: es.idsI.ID(v), Score: score}
}

// sortLinks imposes the canonical (U, V) id order on materialised edges.
// Candidates and scores are enumerated in packed-pair order, which agrees
// with it only while ordinals happen to be in id order.
func sortLinks(links []Link) {
	slices.SortFunc(links, func(a, b Link) int {
		return cmp.Or(cmp.Compare(a.U, b.U), cmp.Compare(a.V, b.V))
	})
}

// mergeDelta folds one candidate-index Delta into the pending work set.
// Later deltas win: a pair removed after being queued for rescore is
// dropped, and vice versa, so the pending sets always describe the net
// transition from the store's last synced state to the current one. A
// Rebuilt delta supersedes them: the next run rescores the whole candidate
// set, so nothing pair-level is worth remembering.
func (es *edgeStore) mergeDelta(d candidates.Delta) {
	if d.Rebuilt {
		es.pendFull = true
		clear(es.pendRescore)
		clear(es.pendRemoved)
		return
	}
	for _, p := range d.Removed {
		delete(es.pendRescore, p)
		es.pendRemoved[p] = struct{}{}
	}
	for _, p := range d.Added {
		delete(es.pendRemoved, p)
		es.pendRescore[p] = struct{}{}
	}
	for _, p := range d.Dirty {
		delete(es.pendRemoved, p)
		es.pendRescore[p] = struct{}{}
	}
}

// resetFull replaces the whole store with a freshly scored edge set (the
// full-rescore path), stamped with the given run seq, and materialises it
// in canonical order for the links cache. Pairs that were already retained
// keep their RetainedSinceSeq tenure; everything is (by definition)
// rescored, so every pair's rescored-seq, last-full-seq and
// score-at-last-full move to this run.
func (es *edgeStore) resetFull(edges []scoredPair, seq uint64) {
	clear(es.scores)
	old := es.meta
	es.meta = make(map[uint64]edgeMeta, len(edges))
	links := make([]Link, len(edges))
	for k, e := range edges {
		es.scores[e.key] = e.score
		m := edgeMeta{rescoredSeq: seq, sinceSeq: seq, fullSeq: seq, fullScore: e.score}
		if prev, ok := old[e.key]; ok {
			m.sinceSeq = prev.sinceSeq
		}
		es.meta[e.key] = m
		links[k] = es.link(e.key, e.score)
	}
	sortLinks(links)
	es.links = links
	es.linksStale = false
	es.pendFull = false
	clear(es.pendRescore)
	clear(es.pendRemoved)
	es.fullRescores++
	es.lastFull = true
	es.seq = seq
	es.deltaChanged = es.deltaChanged[:0]
	es.deltaRemoved = es.deltaRemoved[:0]
	es.updates++
}

// apply performs one delta update stamped with the given run seq: drop
// the pending removals, then install the fresh scores of the rescored
// pairs (deleting pairs that scored non-positive). It returns how many
// edges were dropped from the store.
func (es *edgeStore) apply(pairs []uint64, scores []float64, seq uint64) (dropped int64) {
	es.deltaChanged = es.deltaChanged[:0]
	es.deltaRemoved = es.deltaRemoved[:0]
	drop := func(p uint64, old float64) {
		delete(es.scores, p)
		delete(es.meta, p)
		es.linksStale = true
		es.deltaRemoved = append(es.deltaRemoved, es.link(p, old))
		dropped++
	}
	for p := range es.pendRemoved {
		if old, ok := es.scores[p]; ok {
			drop(p, old)
		}
	}
	for i, p := range pairs {
		s := scores[i]
		old, had := es.scores[p]
		if s > 0 {
			if !had || old != s {
				es.scores[p] = s
				es.linksStale = true
				if had {
					es.deltaRemoved = append(es.deltaRemoved, es.link(p, old))
				}
				es.deltaChanged = append(es.deltaChanged, es.link(p, s))
			}
			m, hadMeta := es.meta[p]
			if !hadMeta {
				m.sinceSeq = seq
			}
			m.rescoredSeq = seq
			es.meta[p] = m
		} else if had {
			drop(p, old)
		}
	}
	clear(es.pendRescore)
	clear(es.pendRemoved)
	es.lastFull = false
	es.seq = seq
	es.updates++
	return dropped
}

// lineage returns the provenance of one pair (zero-valued, Linked=false,
// when the pair is not a retained edge).
func (es *edgeStore) lineage(p uint64) EdgeLineage {
	s, ok := es.scores[p]
	if !ok {
		return EdgeLineage{StoreEpoch: es.fullRescores}
	}
	m := es.meta[p]
	return EdgeLineage{
		Linked:           true,
		Score:            s,
		RescoredSeq:      m.rescoredSeq,
		RetainedSinceSeq: m.sinceSeq,
		LastFullSeq:      m.fullSeq,
		ScoreAtLastFull:  m.fullScore,
		StoreEpoch:       es.fullRescores,
	}
}

// materialize returns the retained edges sorted by (U, V) — the exact
// order the per-run scoring path used to produce — rebuilding the cache
// only when the edge set changed. The returned slice is shared across
// runs until the next change; callers must not modify it.
func (es *edgeStore) materialize() []Link {
	if es.linksStale {
		links := make([]Link, 0, len(es.scores))
		for p, s := range es.scores {
			links = append(links, es.link(p, s))
		}
		sortLinks(links)
		es.links = links
		es.linksStale = false
	}
	if es.links == nil {
		es.links = []Link{}
	}
	return es.links
}

// delta returns the edge-level delta of the last update, for the
// incremental publish tail. The slices alias the store's reused buffers:
// consumers must fold them in before the next update.
func (es *edgeStore) delta() EdgeDelta {
	return EdgeDelta{
		Full:    es.lastFull,
		Seq:     es.updates,
		Changed: es.deltaChanged,
		Removed: es.deltaRemoved,
	}
}

// statsSnapshot returns a fresh stats copy (safe for callers to retain
// across later runs).
func (es *edgeStore) statsSnapshot() *EdgeStoreStats {
	return &EdgeStoreStats{
		Pairs:         int64(len(es.scores)),
		Epoch:         es.fullRescores,
		Retained:      es.lastRetained,
		Rescored:      es.lastRescored,
		Dropped:       es.lastDropped,
		FullRescore:   es.lastFull,
		LastUpdate:    es.lastUpdate,
		ResidentBytes: int64(len(es.scores)) * edgePairBytes,
	}
}
