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
// and the work profile of the update made by the Rescore call that
// returned it. The headline ratio is Retained vs Rescored: retained pairs
// kept their cached score without touching the scorer, which is exactly
// the work an incremental relink saves over the full rescan it replaced. The json tags are its keys in
// /v1/stats' edge_store block (internal/server's wire encoder prints a
// Duration as milliseconds, hence "_ms").
type EdgeStoreStats struct {
	// Pairs is the number of retained scored edges (candidate pairs with a
	// positive score) — the store's state size.
	Pairs int64 `json:"pairs"`
	// Epoch counts full rescores: 1 after the first run, bumped every time
	// an IDF-epoch move or a forced rescore invalidated every cached score.
	Epoch uint64 `json:"epoch"`
	// Retained / Rescored / Dropped describe this update: candidate
	// pairs kept with their cached score, pairs (re)scored, and edges
	// removed from the store (on a delta update, the edges of dirty
	// entities that left the candidate set or rescored to zero).
	Retained int64 `json:"retained_last"`
	Rescored int64 `json:"rescored_last"`
	Dropped  int64 `json:"dropped_last"`
	// FullRescore reports whether this update rescored every pair (the
	// first run, an IDF-epoch move or a forced rescore).
	FullRescore bool `json:"full_rescore_last"`
	// LastUpdate is the wall-clock duration of this update (scoring and
	// store maintenance; excludes matching).
	LastUpdate time.Duration `json:"last_update_ms"`
	// ResidentBytes is the store's resident memory: the order column's
	// capacity, one edge record a slot.
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

// edge is the one record the store keeps per retained pair, in greedy
// order: the pair, its score and the provenance behind EdgeLineage,
// stamped by resetFull/apply as the score is installed. A pair's last
// full rescore is the store's (fullSeq) when fullScore is set and none
// when it is zero, so only the score that rescore gave is per edge.
type edge struct {
	key         uint64
	score       float64
	rescoredSeq uint64
	sinceSeq    uint64
	fullScore   float64
}

// scoredPair is one candidate pair (candidates.Key) with its score: the
// scoring fan-out's output.
type scoredPair struct {
	key   uint64
	score float64
}

// edgeStore is the maintained pair→score state behind Linker.Rescore.
// Where scoring used to be per-run output (every candidate rescanned on
// every run), the store keeps the scored edges alive between runs and
// updates them by one rule each Rescore: rescore the current candidate
// pairs of the dirty entities, drop their other edges, keep the rest
// untouched. It carries no pair-level work from one Rescore to the next.
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

	// idsE / idsI are the two sides' entity tables: an edge's pair is the
	// packed ordinal pair (candidates.Key), and names are resolved only
	// where an edge becomes a Link.
	idsE, idsI *history.Ordinals

	// order holds every candidate pair with a positive score, once, in
	// greedy order (see cmp): the order greedy walks them in. resetFull
	// sorts a fresh column; apply merges its changes in, so greedy reads
	// no state older than the last update.
	order []edge
	// seq is the run sequence of the last update (see Linker.Rescore for
	// how it is assigned); fullSeq that of the last full one.
	seq, fullSeq uint64

	// forceFull makes the next update a full one (Linker.ForceFullRescore).
	forceFull bool

	fullRescores uint64
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
func (es *edgeStore) cmp(a, b edge) int {
	if a.score != b.score {
		return cmp.Compare(b.score, a.score)
	}
	return matching.Compare(es.link(a.key, a.score), es.link(b.key, b.score))
}

// resetFull replaces the whole store with a freshly scored edge set (the
// full-rescore path), stamped with the given run seq; parts read in turn
// are in ascending pair order, as the scoring fan-out's workers return
// them, and are copied straight into the new column, never concatenated
// first. Pairs that were already retained keep their RetainedSinceSeq
// tenure, found by one merge against the old column sorted by pair in
// place (it is discarded); everything is (by definition) rescored, so
// every pair's rescored-seq, last-full-seq and score-at-last-full move to
// this run.
func (es *edgeStore) resetFull(parts [][]scoredPair, seq uint64) {
	old := es.order
	slices.SortFunc(old, func(a, b edge) int { return cmp.Compare(a.key, b.key) })
	n := 0
	for _, part := range parts {
		n += len(part)
	}
	es.order = make([]edge, 0, n)
	for _, part := range parts {
		for _, sp := range part {
			for len(old) > 0 && old[0].key < sp.key {
				old = old[1:]
			}
			e := edge{key: sp.key, score: sp.score, rescoredSeq: seq, sinceSeq: seq, fullScore: sp.score}
			if len(old) > 0 && old[0].key == sp.key {
				e.sinceSeq = old[0].sinceSeq
			}
			es.order = append(es.order, e)
		}
	}
	slices.SortFunc(es.order, es.cmp)
	es.forceFull = false
	es.fullRescores++
	es.seq, es.fullSeq = seq, seq
}

// apply performs one delta update stamped with the given run seq.
// positive holds the pairs of P — the current candidate pairs with an
// endpoint in dirtyE or dirtyI — that scored positive, sorted by pair. An
// edge with no dirty endpoint stays as it is; one with a dirty endpoint
// takes its score in positive, or leaves the store when positive does not
// name it (it scored zero or is no longer a candidate). It returns how
// many edges were dropped.
//
// One walk down order looks each edge with a dirty endpoint up in
// positive: one rescored to the same score is restamped in place, the rest
// leave. Those rescored to a new score keep their tenure; they and the
// pairs of positive the store did not hold are merged back in from the
// back, as postings.update does.
func (es *edgeStore) apply(positive []scoredPair, dirtyE, dirtyI map[uint32]struct{}, seq uint64) (dropped int64) {
	inE, inI := marks(es.idsE.Len(), dirtyE), marks(es.idsI.Len(), dirtyI)
	held := make([]bool, len(positive))
	var fresh []edge
	w := 0
	for _, e := range es.order {
		if u, v := candidates.Ends(e.key); inE[u] || inI[v] {
			k, found := slices.BinarySearchFunc(positive, e.key, func(sp scoredPair, p uint64) int { return cmp.Compare(sp.key, p) })
			if !found {
				dropped++
				continue
			}
			held[k] = true
			if s := positive[k].score; s != e.score {
				fresh = append(fresh, edge{key: e.key, score: s, rescoredSeq: seq, sinceSeq: e.sinceSeq, fullScore: e.fullScore})
				continue
			}
			e.rescoredSeq = seq
		}
		es.order[w] = e
		w++
	}
	for k, sp := range positive {
		if !held[k] {
			fresh = append(fresh, edge{key: sp.key, score: sp.score, rescoredSeq: seq, sinceSeq: seq})
		}
	}
	slices.SortFunc(fresh, es.cmp)
	es.order = slices.Grow(es.order[:w], len(fresh))[:w+len(fresh)]
	kept, out := es.order[:w], len(es.order)
	for k := len(fresh) - 1; k >= 0; k-- {
		i, _ := slices.BinarySearchFunc(kept, fresh[k], es.cmp)
		out -= copy(es.order[out-(len(kept)-i):], kept[i:]) + 1
		es.order[out] = fresh[k]
		kept = kept[:i]
	}
	es.seq = seq
	return dropped
}

// marks returns a side's n ordinals as a column, true for those in set.
func marks(n int, set map[uint32]struct{}) []bool {
	in := make([]bool, n)
	for ord := range set {
		in[ord] = true
	}
	return in
}

// greedy is the paper's greedy maximum-sum matching over the retained
// edges: one walk down order, linking an edge when both its ends are
// still free, with used-sets indexed by ordinal. It is matching.Greedy
// over materialize(), bit for bit, and materialises the matched edges
// alone, in a fresh slice (never nil) the caller owns; capHint sizes it.
func (es *edgeStore) greedy(capHint int) []Link {
	usedE, usedI := make([]bool, es.idsE.Len()), make([]bool, es.idsI.Len())
	matched := make([]Link, 0, capHint)
	for _, e := range es.order {
		u, v := candidates.Ends(e.key)
		if usedE[u] || usedI[v] {
			continue
		}
		usedE[u], usedI[v] = true, true
		matched = append(matched, es.link(e.key, e.score))
	}
	return slices.Clip(matched)
}

// lineage returns the provenance of one pair (zero-valued, Linked=false,
// when the pair is not a retained edge). It scans the column: its one
// caller is /v1/explain.
func (es *edgeStore) lineage(p uint64) EdgeLineage {
	k := slices.IndexFunc(es.order, func(e edge) bool { return e.key == p })
	if k < 0 {
		return EdgeLineage{StoreEpoch: es.fullRescores}
	}
	e := es.order[k]
	l := EdgeLineage{
		Linked:           true,
		Score:            e.score,
		RescoredSeq:      e.rescoredSeq,
		RetainedSinceSeq: e.sinceSeq,
		ScoreAtLastFull:  e.fullScore,
		StoreEpoch:       es.fullRescores,
	}
	if e.fullScore != 0 {
		l.LastFullSeq = es.fullSeq
	}
	return l
}

// materialize returns the retained edges in a freshly allocated slice
// (never nil) the caller owns, in greedy order. Its readers are RunEdges,
// which sorts it by id, and the tests' from-scratch reference.
func (es *edgeStore) materialize() []Link {
	links := make([]Link, len(es.order))
	for k, e := range es.order {
		links[k] = es.link(e.key, e.score)
	}
	return links
}

// statsSnapshot returns a fresh copy of the store's state (safe for
// callers to retain across later runs): its pairs, epoch and resident
// bytes. The update fields are the updating call's to fill (Rescore).
func (es *edgeStore) statsSnapshot() *EdgeStoreStats {
	return &EdgeStoreStats{
		Pairs:         int64(len(es.order)),
		Epoch:         es.fullRescores,
		ResidentBytes: int64(cap(es.order)) * int64(unsafe.Sizeof(edge{})),
	}
}
