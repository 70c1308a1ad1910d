package slim

import (
	"cmp"
	"slices"
	"time"
	"unsafe"

	"slim/internal/candidates"
	"slim/internal/history"
	"slim/internal/matching"
)

// EdgeStoreStats reports the state of a Linker's incremental edge store
// and the work profile of its most recent update. The headline ratio is
// Retained vs Rescored: retained pairs kept their cached score without
// touching the scorer, which is exactly the work an incremental relink
// saves over the full rescan it replaced. The json tags are its keys in
// /v1/stats' edge_store block (internal/server's wire encoder prints a
// Duration as milliseconds, hence "_ms").
type EdgeStoreStats struct {
	// Pairs is the number of retained scored edges (candidate pairs with a
	// positive score) — the store's state size.
	Pairs int64 `json:"pairs"`
	// Epoch counts full rescores: 1 after the first run, bumped every time
	// an IDF-epoch or grid change invalidated every cached score.
	Epoch uint64 `json:"epoch"`
	// Retained / Rescored / Dropped describe the last update: candidate
	// pairs kept with their cached score, pairs (re)scored, and edges
	// removed from the store (candidate-set removals plus pairs whose
	// fresh score was no longer positive).
	Retained int64 `json:"retained_last"`
	Rescored int64 `json:"rescored_last"`
	Dropped  int64 `json:"dropped_last"`
	// FullRescore reports whether the last update rescored every pair (the
	// first run, an IDF-epoch move or a forced rescore).
	FullRescore bool `json:"full_rescore_last"`
	// LastUpdate is the wall-clock duration of the last update (scoring and
	// store maintenance; excludes matching).
	LastUpdate time.Duration `json:"last_update_ms"`
	// ResidentBytes estimates the store's resident memory: a fixed map cost
	// per retained pair (see edgePairBytes) plus the order column's
	// capacity.
	ResidentBytes int64 `json:"resident_bytes"`
}

// EdgeLineage is the provenance of one pair in the edge store: whether it
// is currently a retained edge, its score, and which runs produced it.
// Run sequence numbers are the ones stamped by Rescore — inside
// internal/engine they are the engine's published result versions, so a
// lineage seq can be joined against the engine's run journal. The json
// tags are its keys in /v1/explain's edge block.
type EdgeLineage struct {
	// Linked reports whether the pair is currently a retained (positive
	// scored) edge; the remaining fields are zero when it is not.
	Linked bool `json:"linked"`
	// Score is the retained score.
	Score float64 `json:"score,omitempty"`
	// RescoredSeq is the run that last actually scored this pair (every
	// later run retained the cached value).
	RescoredSeq uint64 `json:"rescored_seq,omitempty"`
	// RetainedSinceSeq is the run the pair first entered the store in its
	// current tenure (dropping and re-adding a pair restarts it).
	RetainedSinceSeq uint64 `json:"retained_since_seq,omitempty"`
	// LastFullSeq / ScoreAtLastFull are the most recent full (epoch)
	// rescore that scored this pair and the score it produced then — the
	// anchor for "has this edge drifted since the last global rescore".
	// Both are zero for pairs added after the last full rescore.
	LastFullSeq     uint64  `json:"last_full_seq,omitempty"`
	ScoreAtLastFull float64 `json:"score_at_last_full,omitempty"`
	// StoreEpoch counts the store's full rescores (see EdgeStoreStats).
	StoreEpoch uint64 `json:"store_epoch"`
}

// edge is the one record the store keeps per retained pair: its score and
// the provenance behind EdgeLineage, stamped by resetFull/apply as the
// score is installed.
type edge struct {
	score       float64
	rescoredSeq uint64
	sinceSeq    uint64
	fullSeq     uint64
	fullScore   float64
}

// edgePairBytes is the estimated resident cost of one retained edge's map
// entry: one 49-byte map slot (8-byte packed pair, the 40-byte edge,
// control byte). Go sizes a map to a power of two, so a live entry costs
// between 8/7 and 16/7 of its slot — 56 to 112 B; the constant is the
// middle. The order column adds its own capacity (statsSnapshot).
const edgePairBytes = 84

// scoredPair is one candidate pair (candidates.Key) with its score.
type scoredPair struct {
	key   uint64
	score float64
}

// edgeStore is the maintained pair→score state behind Linker.Rescore.
// Where scoring used to be per-run output (every candidate rescanned on
// every run), the store keeps the scored edges alive between runs and
// updates them by the delta each Rescore computes: rescore the added/dirty
// pairs, drop the removed ones, keep the rest untouched. It carries no
// pair-level work from one Rescore to the next.
//
// Soundness mirrors the epoch discipline of the compiled scoring views
// (history/compiled.go) and the candidate index (internal/candidates):
// a pair's score is a pure function of its two histories, the similarity
// parameters, and the stores' dataset-level statistics (IDF weights and
// the average history size). The latter are versioned by history.Store's
// IDF epoch — new bin, new entity — so while both epochs stand still, a
// retained edge's score is bit-identical to what a rescore would produce,
// and any epoch movement forces a full rescore. How often is the feed's
// property: re-observations of known bins leave the epochs alone (≈ 98 % of
// pairs retained on serve_revisit), while a feed whose time range advances
// opens a new bin at every flush, so every run is a full rescore
// (serve_fresh: retained_ratio 0 on every seed; ROADMAP item 4).
type edgeStore struct {
	built bool
	// epochE / epochI are the history-store IDF epochs the retained scores
	// were computed under; any movement invalidates them all.
	epochE, epochI uint64

	// idsE / idsI are the two sides' entity tables: every map below is
	// keyed by the packed ordinal pair (candidates.Key), and names are
	// resolved only where an edge becomes a Link.
	idsE, idsI *history.Ordinals

	// pairs holds every candidate pair with a positive score.
	pairs map[uint64]edge
	// order holds the same edges as (pair, score) in greedy order (see
	// cmp), the order greedy walks them in. resetFull sorts the scored
	// slice it is handed and keeps it; apply splices its changes in, so
	// order and pairs change in the same call and greedy reads no state
	// older than the last update.
	order []scoredPair
	// seq is the run sequence of the last update (see Linker.Rescore for
	// how it is assigned).
	seq uint64

	// forceFull makes the next update a full one (Linker.ForceFullRescore).
	forceFull bool

	fullRescores                            uint64
	lastRetained, lastRescored, lastDropped int64
	lastFull                                bool
	lastUpdate                              time.Duration
}

func newEdgeStore(idsE, idsI *history.Ordinals) edgeStore {
	return edgeStore{idsE: idsE, idsI: idsI, pairs: make(map[uint64]edge)}
}

// link materialises one edge: the only place a packed pair is resolved
// back to entity ids.
func (es *edgeStore) link(p uint64, score float64) Link {
	u, v := candidates.Ends(p)
	return Link{U: es.idsE.ID(u), V: es.idsI.ID(v), Score: score}
}

// cmp is matching.Compare over stored edges: descending score, ties by U
// id, then V id. Only a tie resolves ids, since ordinals are assigned in
// arrival order, not id order.
func (es *edgeStore) cmp(a, b scoredPair) int {
	if a.score != b.score {
		return cmp.Compare(b.score, a.score)
	}
	return matching.Compare(es.link(a.key, a.score), es.link(b.key, b.score))
}

// resetFull replaces the whole store with a freshly scored edge set (the
// full-rescore path), stamped with the given run seq. Pairs that were
// already retained keep their RetainedSinceSeq tenure; everything is (by
// definition) rescored, so every pair's rescored-seq, last-full-seq and
// score-at-last-full move to this run. The store adopts edges as its
// order, sorting it in place.
func (es *edgeStore) resetFull(edges []scoredPair, seq uint64) {
	old := es.pairs
	es.pairs = make(map[uint64]edge, len(edges))
	for _, sp := range edges {
		e := edge{score: sp.score, rescoredSeq: seq, sinceSeq: seq, fullSeq: seq, fullScore: sp.score}
		if prev, ok := old[sp.key]; ok {
			e.sinceSeq = prev.sinceSeq
		}
		es.pairs[sp.key] = e
	}
	slices.SortFunc(edges, es.cmp)
	es.order = edges
	es.forceFull = false
	es.fullRescores++
	es.lastFull = true
	es.seq = seq
}

// apply performs one delta update stamped with the given run seq: drop
// the removed pairs, then install the fresh scores of the rescored pairs.
// positive is the scoring fan-out's output over rescored — its pairs that
// scored positive, in rescored's order — so a rescored pair missing from it
// is dropped if the store held it. It returns how many edges were dropped.
func (es *edgeStore) apply(rescored []uint64, positive []scoredPair, removed []uint64, seq uint64) (dropped int64) {
	// gone and fresh are the order's delta: edges leaving it (with the
	// scores they held) and edges entering it. A score change is one of
	// each; a rescore to the same score is neither.
	var gone, fresh []scoredPair
	drop := func(p uint64, old float64) {
		delete(es.pairs, p)
		gone = append(gone, scoredPair{p, old})
		dropped++
	}
	for _, p := range removed {
		if old, ok := es.pairs[p]; ok {
			drop(p, old.score)
		}
	}
	for _, p := range rescored {
		e, had := es.pairs[p]
		if len(positive) == 0 || positive[0].key != p {
			if had {
				drop(p, e.score)
			}
			continue
		}
		s := positive[0].score
		positive = positive[1:]
		if !had || e.score != s {
			if had {
				gone = append(gone, scoredPair{p, e.score})
			}
			fresh = append(fresh, scoredPair{p, s})
		}
		if !had {
			e.sinceSeq = seq
		}
		e.score, e.rescoredSeq = s, seq
		es.pairs[p] = e
	}
	es.splice(gone, fresh)
	es.lastFull = false
	es.seq = seq
	return dropped
}

// splice folds one delta into order in one linear pass each way, in place:
// a forward pass closes the gaps gone leaves, then a back-to-front merge
// opens room for fresh, as postings.update does. Both lists are sorted
// here; every gone edge is in order, and no fresh pair is left in it.
func (es *edgeStore) splice(gone, fresh []scoredPair) {
	slices.SortFunc(gone, es.cmp)
	slices.SortFunc(fresh, es.cmp)
	rest, w := es.order, 0
	for _, g := range gone {
		i, _ := slices.BinarySearchFunc(rest, g, es.cmp)
		w += copy(es.order[w:], rest[:i])
		rest = rest[i+1:]
	}
	w += copy(es.order[w:], rest)

	es.order = slices.Grow(es.order[:w], len(fresh))[:w+len(fresh)]
	kept, out := es.order[:w], len(es.order)
	for k := len(fresh) - 1; k >= 0; k-- {
		i, _ := slices.BinarySearchFunc(kept, fresh[k], es.cmp)
		out -= copy(es.order[out-(len(kept)-i):], kept[i:]) + 1
		es.order[out] = fresh[k]
		kept = kept[:i]
	}
}

// greedy is the paper's greedy maximum-sum matching over the retained
// edges: one walk down order, linking an edge when both its ends are
// still free, with used-sets indexed by ordinal. It is matching.Greedy
// over materialize(), bit for bit, and materialises the matched edges
// alone, in a fresh slice (never nil) the caller owns; capHint sizes it.
func (es *edgeStore) greedy(capHint int) []Link {
	usedE, usedI := make([]bool, es.idsE.Len()), make([]bool, es.idsI.Len())
	matched := make([]Link, 0, capHint)
	for _, sp := range es.order {
		u, v := candidates.Ends(sp.key)
		if usedE[u] || usedI[v] {
			continue
		}
		usedE[u], usedI[v] = true, true
		matched = append(matched, es.link(sp.key, sp.score))
	}
	return slices.Clip(matched)
}

// lineage returns the provenance of one pair (zero-valued, Linked=false,
// when the pair is not a retained edge).
func (es *edgeStore) lineage(p uint64) EdgeLineage {
	e, ok := es.pairs[p]
	if !ok {
		return EdgeLineage{StoreEpoch: es.fullRescores}
	}
	return EdgeLineage{
		Linked:           true,
		Score:            e.score,
		RescoredSeq:      e.rescoredSeq,
		RetainedSinceSeq: e.sinceSeq,
		LastFullSeq:      e.fullSeq,
		ScoreAtLastFull:  e.fullScore,
		StoreEpoch:       es.fullRescores,
	}
}

// materialize returns the retained edges in a freshly allocated slice
// (never nil) the caller owns, in the map's hash order. Its readers are
// RunEdges, which sorts it by id, and the tests' from-scratch reference.
func (es *edgeStore) materialize() []Link {
	links := make([]Link, 0, len(es.pairs))
	for p, e := range es.pairs {
		links = append(links, es.link(p, e.score))
	}
	return links
}

// statsSnapshot returns a fresh stats copy (safe for callers to retain
// across later runs).
func (es *edgeStore) statsSnapshot() *EdgeStoreStats {
	return &EdgeStoreStats{
		Pairs:         int64(len(es.pairs)),
		Epoch:         es.fullRescores,
		Retained:      es.lastRetained,
		Rescored:      es.lastRescored,
		Dropped:       es.lastDropped,
		FullRescore:   es.lastFull,
		LastUpdate:    es.lastUpdate,
		ResidentBytes: int64(len(es.pairs))*edgePairBytes + int64(cap(es.order))*int64(unsafe.Sizeof(scoredPair{})),
	}
}
