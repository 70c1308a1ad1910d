// Package slim is a from-scratch Go implementation of SLIM — Scalable
// Linkage of Mobility Data (Basık, Ferhatosmanoğlu, Gedik; SIGMOD 2020).
//
// SLIM links entities across two mobility datasets using only their
// spatio-temporal records: it summarizes each entity as a mobility history
// (its ordered time-location bins over a spatial grid), filters candidate
// pairs with an LSH over dominating-cell signatures, scores pairs with an
// alibi-aware, IDF- and length-normalized proximity aggregation, matches
// them with maximum-sum bipartite matching, and cuts the matching at an
// automatically detected stop threshold.
//
// Quick start:
//
//	res, err := slim.LinkDatasets(datasetE, datasetI, slim.Defaults())
//	for _, l := range res.Links {
//	    fmt.Println(l.U, "<->", l.V, l.Score)
//	}
//
// See the examples/ directory for complete programs and DESIGN.md for the
// mapping between the paper and this repository.
package slim

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"time"

	"slim/internal/candidates"
	"slim/internal/history"
	"slim/internal/matching"
	"slim/internal/model"
	"slim/internal/par"
	"slim/internal/similarity"
	"slim/internal/threshold"
	"slim/internal/tuning"
)

// Link is one linked entity pair with its similarity score: the matcher's
// edge itself, so a link is the same value from the edge store through
// Publish to the /v1/links wire (its json tags are the keys there).
type Link = matching.Edge

// Stats aggregates the work counters of one linkage run.
type Stats struct {
	// CandidatePairs is the number of cross-dataset pairs scored.
	CandidatePairs int64
	// PositiveEdges is how many scored pairs produced a positive score.
	PositiveEdges int64
	// BinComparisons / RecordComparisons / AlibiBinPairs mirror the
	// similarity scorer's counters (Fig. 4c/4d instrumentation).
	BinComparisons    int64
	RecordComparisons int64
	AlibiBinPairs     int64
	// LSH is the candidate index's snapshot when the filter was enabled.
	LSH *CandidateIndexStats
	// EdgeStore reports the incremental edge store behind this run: how
	// many scored pairs were retained from the previous run versus
	// rescored or dropped (see EdgeStoreStats).
	EdgeStore *EdgeStoreStats
}

// Result is the outcome of a linkage run.
type Result struct {
	// Links are the final links (score above the stop threshold), sorted
	// by descending score.
	Links []Link
	// Matched is the full maximum-sum matching before thresholding.
	Matched []Link
	// Threshold is the automatically selected stop score; links strictly
	// above it are kept.
	Threshold float64
	// ThresholdMethod reports which detector produced the threshold.
	ThresholdMethod string
	// SpatialLevel is the history grid level used (after auto-tuning).
	SpatialLevel int
	// Stats carries the work counters.
	Stats Stats
	// Elapsed is the wall-clock duration of the run.
	Elapsed time.Duration
}

// Linker is a prepared linkage: histories built, candidates enumerable,
// pairs scorable. Use NewLinker + Run for the full pipeline, Score for
// targeted pair scoring (e.g. ranking experiments), and AddE/AddI + Run
// for dynamic feeds (incremental re-linking): each Run, or Rescore,
// consumes everything added since the previous one in a single pass.
type Linker struct {
	cfg    Config
	wnd    model.Windowing
	storeE *history.Store
	storeI *history.Store
	scorer *similarity.Scorer
	// Signature stores for LSH: each side's records at the LSH spatial
	// level, one window per signature row (nil without LSH).
	sigStoreE *history.Store
	sigStoreI *history.Store
	// candIndex incrementally maintains the LSH candidate set (non-nil
	// exactly when cfg.LSH is set; nil means brute force, where the cross
	// product is streamed by index, never materialized); dirtyE/dirtyI
	// collect, by ordinal, the entities touched by AddE/AddI since the
	// last Rescore in every mode. Rescore hands them to the index's one
	// Update of the run, so a relink re-signs O(dirty) index entries and —
	// via the edge store — rescores O(dirty) pairs instead of rescanning
	// the world.
	//
	// Inside the linker an entity is the ordinal of its side's entity table
	// (history.Ordinals, shared by the side's two stores) and a pair one
	// packed uint64 (candidates.Key). Ids come in through the table at
	// Add/Score/Explain and go out where the edge store materialises Links.
	candIndex *candidates.Index
	dirtyE    map[uint32]struct{}
	dirtyI    map[uint32]struct{}
	// edges is the maintained pair→score state Rescore updates by delta,
	// kept in greedy order; see edges.go for the epoch-invalidation
	// discipline.
	edges edgeStore
	// tail is the threshold fit cache and stats behind Publish (made by
	// the first one).
	tail *publishTail
	// prevStats snapshots the scorer counters so repeated Run calls report
	// per-run work.
	prevStats similarity.Stats
}

// NewLinker validates the configuration and both datasets, drops entities
// at or below cfg.MinRecords, resolves the spatial level (auto-tuning when
// cfg.SpatialLevel is 0), builds both datasets' mobility histories on the
// absolute window grid (model.Windowing) and, when LSH is enabled, the
// candidate pair set.
func NewLinker(dsE, dsI Dataset, cfg Config) (*Linker, error) {
	in, err := prepare(dsE, dsI, cfg)
	if err != nil {
		return nil, err
	}
	cfg = in.cfg
	if cfg.SpatialLevel == 0 {
		cfg.SpatialLevel, _, _ = tuning.SpatialLevel(&in.ge, &in.gi, in.wnd, in.params)
	}

	lk := &Linker{
		cfg:    cfg,
		wnd:    in.wnd,
		dirtyE: make(map[uint32]struct{}),
		dirtyI: make(map[uint32]struct{}),
	}
	lk.storeE = history.BuildGrouped(&in.ge, in.wnd, cfg.SpatialLevel, cfg.Workers)
	lk.storeI = history.BuildGrouped(&in.gi, in.wnd, cfg.SpatialLevel, cfg.Workers)
	lk.edges = newEdgeStore(lk.storeE.Ordinals(), lk.storeI.Ordinals())
	lk.scorer = similarity.NewScorer(lk.storeE, lk.storeI, in.params)

	if cfg.LSH != nil {
		lk.buildLSHCandidates(&in.ge, &in.gi)
	}
	return lk, nil
}

// inputs is what a linkage is built from. NewLinker and
// AutoTuneSpatialLevel both make it with prepare, so the auto-tuner probes
// exactly the entities, window grid and similarity parameters the linker
// builds and scores with.
type inputs struct {
	cfg    Config
	ge, gi model.Grouped
	wnd    model.Windowing
	params similarity.Params
}

// prepare normalizes cfg, validates both datasets and groups each side
// once, dropping entities at or below cfg.MinRecords. The tuner and both
// spatial levels are built from the grouped form, which indexes the
// caller's records themselves when they are already grouped
// (model.GroupByEntity).
func prepare(dsE, dsI Dataset, cfg Config) (*inputs, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	if err := dsE.Validate(); err != nil {
		return nil, fmt.Errorf("slim: dataset E: %w", err)
	}
	if err := dsI.Validate(); err != nil {
		return nil, fmt.Errorf("slim: dataset I: %w", err)
	}
	in := &inputs{cfg: cfg, ge: dsE.GroupByEntity(cfg.MinRecords), gi: dsI.GroupByEntity(cfg.MinRecords)}
	in.wnd, in.params = cfg.scoring()
	return in, nil
}

// buildLSHCandidates constructs the dominating-cell signature stores (at
// the LSH's own spatial level, over absolute signature rows) and the
// incremental candidate index over them.
func (lk *Linker) buildLSHCandidates(ge, gi *model.Grouped) {
	c := lk.cfg.LSH
	rows := c.RowWindowing(lk.wnd)
	lk.sigStoreE = lk.storeE.SignatureStore(ge, rows, c.SpatialLevel, lk.cfg.Workers)
	lk.sigStoreI = lk.storeI.SignatureStore(gi, rows, c.SpatialLevel, lk.cfg.Workers)
	lk.candIndex = candidates.New(lk.sigStoreE, lk.sigStoreI, *c)
	lk.candIndex.Workers = lk.cfg.Workers
	// The initial build. Its delta needs no bookkeeping: the first Rescore
	// scores the whole candidate set.
	lk.candIndex.Update(nil, nil)
}

// CandidateIndexStats reports the state of the incremental LSH candidate
// index: maintained signatures, bucket occupancy, candidate count, and
// the dirty-entity count and wall-clock duration of the most recent index
// update (see candidates.Stats for per-field docs).
type CandidateIndexStats = candidates.Stats

// CandidateIndexStats returns the incremental candidate index snapshot,
// or nil when LSH is disabled. Not safe concurrently with Run or Add.
func (lk *Linker) CandidateIndexStats() *CandidateIndexStats {
	if lk.candIndex == nil {
		return nil
	}
	st := lk.candIndex.Stats()
	return &st
}

// HistoryStats reports what the linker's history stores retain, each
// summed from its column capacities (history.Store.ResidentBytes): per
// side, the scoring store, the signature store (zero without LSH) and the
// entity table the two share.
type HistoryStats struct {
	ScoringE   int64 `json:"scoring_e_bytes"`
	ScoringI   int64 `json:"scoring_i_bytes"`
	SignatureE int64 `json:"signature_e_bytes"`
	SignatureI int64 `json:"signature_i_bytes"`
	OrdinalsE  int64 `json:"ordinals_e_bytes"`
	OrdinalsI  int64 `json:"ordinals_i_bytes"`
}

// HistoryStats returns the history stores' footprint. Not safe
// concurrently with Run or Add.
func (lk *Linker) HistoryStats() *HistoryStats {
	st := &HistoryStats{
		ScoringE:  lk.storeE.ResidentBytes(),
		ScoringI:  lk.storeI.ResidentBytes(),
		OrdinalsE: lk.storeE.Ordinals().ResidentBytes(),
		OrdinalsI: lk.storeI.Ordinals().ResidentBytes(),
	}
	if lk.sigStoreE != nil {
		st.SignatureE, st.SignatureI = lk.sigStoreE.ResidentBytes(), lk.sigStoreI.ResidentBytes()
	}
	return st
}

// AddE ingests new records of the first dataset into the prepared linker,
// updating histories, IDF statistics and (lazily) the LSH candidates and
// edge store. The next Run reflects the additions. Records added after
// construction bypass the MinRecords filter applied at construction time; callers streaming
// sparse entities should batch until entities have enough records to be
// linkable. Not safe concurrently with Run or Score.
func (lk *Linker) AddE(recs ...Record) { lk.add(lk.storeE, lk.sigStoreE, lk.dirtyE, recs) }

// AddI ingests new records of the second dataset; see AddE.
func (lk *Linker) AddI(recs ...Record) { lk.add(lk.storeI, lk.sigStoreI, lk.dirtyI, recs) }

func (lk *Linker) add(store, sigStore *history.Store, dirty map[uint32]struct{}, recs []Record) {
	for _, r := range recs {
		ord := store.Add(r)
		if sigStore != nil {
			sigStore.Add(r) // the side's shared table hands out the same ordinal
		}
		// Remember which entities changed: the next Rescore re-signs
		// exactly these (LSH mode) or rescores exactly their pairs
		// (brute-force mode), unless an IDF-epoch bump forces a full
		// rescore anyway.
		dirty[ord] = struct{}{}
	}
}

// Windowing exposes the shared temporal grid of the linkage.
func (lk *Linker) Windowing() model.Windowing { return lk.wnd }

// SpatialLevel reports the history grid level in use.
func (lk *Linker) SpatialLevel() int { return lk.cfg.SpatialLevel }

// EntitiesE returns the (post-filter) entity ids of the first dataset,
// sorted, in a new slice.
func (lk *Linker) EntitiesE() []EntityID { return lk.storeE.Entities() }

// EntitiesI returns the (post-filter) entity ids of the second dataset,
// sorted, in a new slice.
func (lk *Linker) EntitiesI() []EntityID { return lk.storeI.Entities() }

// NumEntities returns how many entities of each dataset have a history.
func (lk *Linker) NumEntities() (e, i int) {
	return lk.storeE.NumEntities(), lk.storeI.NumEntities()
}

// Score computes the SLIM similarity S(u, v) for one pair on demand.
func (lk *Linker) Score(u, v EntityID) float64 { return lk.scorer.Score(u, v) }

// ScoreBreakdown computes the full per-window decomposition of
// Score(u, v): every common temporal window with the bin pairs the
// pairing selected, their distances, proximities and IDF weights, and
// per-window sums that recompose to Score(u, v) bit-identically. It is
// the explainability slow path — one recorded run of the scoring kernel
// that allocates what it records and never perturbs the scorer's work
// counters.
func (lk *Linker) ScoreBreakdown(u, v EntityID) *similarity.Breakdown {
	return lk.scorer.ScoreBreakdown(u, v)
}

// PairExplanation joins the three provenance layers for one (u, v) pair:
// the score decomposition, the candidate-filter lineage (nil when LSH is
// disabled — every pair is a candidate then), and the edge-store lineage.
// The json tags name the three blocks in /v1/explain's document.
type PairExplanation struct {
	// Breakdown decomposes the current Score(u, v).
	Breakdown *similarity.Breakdown `json:"score"`
	// Candidates explains the pair's LSH lineage; nil when the linker runs
	// brute force (no candidate filter to explain).
	Candidates *candidates.PairExplain `json:"candidates,omitempty"`
	// Edge is the pair's edge-store provenance.
	Edge EdgeLineage `json:"edge"`
}

// Explain reports the full provenance of one pair. Like Score it reads
// the current stores — call it after Rescore for answers consistent with
// the last published links. Not safe concurrently with ingest or runs.
func (lk *Linker) Explain(u, v EntityID) PairExplanation {
	ou, ov := ordOf(lk.storeE.Ordinals(), u), ordOf(lk.storeI.Ordinals(), v)
	ex := PairExplanation{
		Breakdown: lk.ScoreBreakdown(u, v),
		Edge:      lk.edges.lineage(candidates.Key(ou, ov)),
	}
	if lk.candIndex != nil {
		ce := lk.candIndex.Explain(ou, ov)
		ex.Candidates = &ce
	}
	return ex
}

// ordOf resolves an entity id at the API boundary. An unknown id gets an
// ordinal no table ever assigns, which every ordinal-keyed structure treats
// as "no such entity".
func ordOf(t *history.Ordinals, id EntityID) uint32 {
	if ord, ok := t.Lookup(id); ok {
		return ord
	}
	return math.MaxUint32
}

// Precompile eagerly builds the compiled read path of both history stores
// (see history.Store.Compile), fanning the per-entity view builds out over
// the configured workers. Rescore calls it before scoring, so callers
// only need it to move the cost (e.g. to time it separately).
func (lk *Linker) Precompile() {
	lk.storeE.Compile(lk.cfg.Workers)
	lk.storeI.Compile(lk.cfg.Workers)
}

// ForceFullRescore makes the next Rescore rescore the whole candidate set
// instead of trusting the edge store's retained scores. It is the recovery
// hook for a caller whose previous run died part-way (internal/engine
// after a contained panic): whatever that run left half-applied in the edge
// store, its greedy order included, is replaced wholesale and re-sorted.
// The candidate index has one update path and is not
// redone: the dirty sets outlive a run that died, so the next Update
// re-signs every entity the dead one did not reach.
func (lk *Linker) ForceFullRescore() { lk.edges.forceFull = true }

// Rescore brings the edge store up to date with the current candidate set
// and returns the per-call work stats, without matching or thresholding;
// Publish is the other half, and Run composes the two. seq is the run
// sequence stamped onto edge lineage: Run and RunEdges pass one more than
// the last, internal/engine the result version the run will publish, so
// lineage joins against /v1/stats versions and the run journal.
//
// Each call is a single pass over what changed since the previous one.
// With LSH it gives the entities AddE/AddI touched to the candidate index's
// one Update of the run and applies the Delta it returns: Added and Dirty
// pairs are rescored, Removed pairs dropped. Brute force rescores every
// pair with a touched endpoint. Every other edge keeps its cached score,
// which is bit-identical to what a rescore would produce (scores are pure
// functions of the two histories and the epoch-versioned dataset
// statistics — see edges.go). The first call, ForceFullRescore and any
// IDF-epoch movement (new bin, new entity) rescore the whole candidate set
// instead.
//
// The returned Stats carry private candidate-index and edge-store
// snapshots, so a later call never mutates results a caller still holds.
func (lk *Linker) Rescore(seq uint64) Stats {
	// Refresh the compiled read path first, so the scoring fan-out below
	// runs on immutable views: entities untouched since the last run keep
	// their compiled state.
	lk.Precompile()
	var cand candidates.Delta
	nPairs := int64(lk.storeE.NumEntities()) * int64(lk.storeI.NumEntities())
	if lk.candIndex != nil {
		if len(lk.dirtyE) > 0 || len(lk.dirtyI) > 0 {
			cand = lk.candIndex.Update(lk.dirtyE, lk.dirtyI)
		}
		nPairs = lk.candIndex.NumCandidates()
	}

	start := time.Now()
	epochE, epochI := lk.storeE.Epoch(), lk.storeI.Epoch()
	full := !lk.edges.built || lk.edges.forceFull ||
		epochE != lk.edges.epochE || epochI != lk.edges.epochI
	rescored, dropped := nPairs, int64(0)
	if full {
		var pairAt func(int) uint64
		if lk.candIndex != nil {
			pairs := lk.candIndex.Pairs()
			pairAt = func(k int) uint64 { return pairs[k] }
		} else {
			// Brute force: enumerate the |E|×|I| cross product by index
			// instead of materializing multi-GiB pair slices. The similarity
			// stores hold a history for every ordinal of their tables.
			nI := lk.storeI.NumEntities()
			pairAt = func(k int) uint64 { return candidates.Key(uint32(k/nI), uint32(k%nI)) }
		}
		lk.edges.resetFull(lk.scorePositive(int(nPairs), pairAt), seq)
	} else {
		var pairs []uint64
		if lk.candIndex != nil {
			// Added and Dirty are disjoint: the concatenation names each
			// pair once.
			pairs = slices.Concat(cand.Added, cand.Dirty)
		} else {
			pairs = lk.bruteDeltaPairs()
		}
		positive := lk.scorePositive(len(pairs), func(k int) uint64 { return pairs[k] })
		dropped = lk.edges.apply(pairs, positive, cand.Removed, seq)
		rescored = int64(len(pairs))
	}
	lk.edges.lastRescored, lk.edges.lastRetained, lk.edges.lastDropped = rescored, nPairs-rescored, dropped
	lk.edges.built = true
	lk.edges.epochE, lk.edges.epochI = epochE, epochI
	clear(lk.dirtyE)
	clear(lk.dirtyI)
	lk.edges.lastUpdate = time.Since(start)

	st := lk.scorer.Stats()
	stats := Stats{
		CandidatePairs:    nPairs,
		PositiveEdges:     int64(len(lk.edges.pairs)),
		BinComparisons:    st.BinComparisons - lk.prevStats.BinComparisons,
		RecordComparisons: st.RecordComparisons - lk.prevStats.RecordComparisons,
		AlibiBinPairs:     st.AlibiBinPairs - lk.prevStats.AlibiBinPairs,
		LSH:               lk.CandidateIndexStats(),
		EdgeStore:         lk.edges.statsSnapshot(),
	}
	lk.prevStats = st
	return stats
}

// RunEdges is Rescore plus the retained positive scored pairs themselves,
// in canonical (U, V) order, for callers that match or inspect the edge
// set on their own. The slice is freshly allocated on every call; the
// caller owns it. The order is imposed here: the store holds pairs by
// packed ordinals, whose order agrees with the ids' only while ordinals
// happen to follow them.
func (lk *Linker) RunEdges() ([]Link, Stats) {
	stats := lk.Rescore(lk.edges.seq + 1)
	links := lk.edges.materialize()
	slices.SortFunc(links, func(a, b Link) int {
		return cmp.Or(cmp.Compare(a.U, b.U), cmp.Compare(a.V, b.V))
	})
	return links, stats
}

// bruteDeltaPairs enumerates the pairs a brute-force (LSH-disabled) delta
// rescore must touch: dirtyE×I ∪ E×dirtyI. New entities cannot appear
// here — a new entity bumps its store's IDF epoch, which forces a full
// rescore before this path is taken — so the enumeration only ever names
// pairs whose counterpart lists are unchanged since the last run.
func (lk *Linker) bruteDeltaPairs() []uint64 {
	nE, nI := uint32(lk.storeE.NumEntities()), uint32(lk.storeI.NumEntities())
	pairs := make([]uint64, 0, len(lk.dirtyE)*int(nI)+len(lk.dirtyI)*int(nE))
	for u := range lk.dirtyE {
		for v := uint32(0); v < nI; v++ {
			pairs = append(pairs, candidates.Key(u, v))
		}
	}
	for v := range lk.dirtyI {
		for u := uint32(0); u < nE; u++ {
			if _, dup := lk.dirtyE[u]; dup {
				continue // already enumerated against the full I side
			}
			pairs = append(pairs, candidates.Key(u, v))
		}
	}
	return pairs
}

// Run executes scoring, matching and thresholding and returns the result.
// It can be called repeatedly, interleaved with AddE/AddI, to re-link a
// dynamic feed; stats report per-run work.
func (lk *Linker) Run() Result {
	start := time.Now()
	stats := lk.Rescore(lk.edges.seq + 1)
	matched, links, thr := lk.Publish()
	return Result{
		Links:           links,
		Matched:         matched,
		Threshold:       thr.Threshold,
		ThresholdMethod: string(thr.Method),
		SpatialLevel:    lk.cfg.SpatialLevel,
		Stats:           stats,
		Elapsed:         time.Since(start),
	}
}

// Publish matches and thresholds the edge store as the latest Rescore
// left it, returning the maximum-sum matching (descending score), the
// links above the selected stop threshold and the threshold decision. It
// is the second half of Run, split out so a caller can time and
// instrument the halves separately (internal/engine does).
//
// The matching is one from-scratch greedy walk down the edge store's
// order, which Rescore keeps sorted in the same call that changes the
// edges, so a Publish cannot miss a Rescore (one that dies part-way is
// followed by ForceFullRescore, which re-sorts). Only matched edges are materialised; the threshold fit is
// reused when the matched score list is bit-unchanged (threshold.Cache).
// The output is bit-identical to the from-scratch MatchLinks →
// SelectStopThreshold → FilterLinks reference over the same edges.
// matched is freshly allocated and links a prefix of it: neither is
// written again once returned, so callers may retain and read them while
// later Publish calls proceed, and must not modify them.
func (lk *Linker) Publish() (matched, links []Link, thr StopThreshold) {
	if lk.tail == nil {
		lk.tail = &publishTail{thr: threshold.Cache{Method: lk.cfg.Threshold}}
	}
	return lk.tail.publish(&lk.edges)
}

// PublishTailStats returns the last Publish's stats, or nil before the
// first Publish. Not safe concurrently with Run or Add.
func (lk *Linker) PublishTailStats() *PublishTailStats {
	if lk.tail == nil {
		return nil
	}
	st := lk.tail.stats
	return &st
}

// StopThreshold is the outcome of a stop-threshold detection: the stop
// score (links strictly above it are kept), the detector that produced it
// and, for the GMM detector, the fitted mixture.
type StopThreshold = threshold.Result

// MatchLinks runs the greedy maximum-sum matcher over positive scored edges
// from scratch and returns the matching, sorted by descending score; edges
// is not modified. It is the reference Publish is compared against.
// The first parameter is ignored: greedy is the only matcher, and the
// parameter stays only because the read-only cmd/slim-bench passes one
// (ROADMAP item 8).
func MatchLinks(_ MatcherKind, edges []Link) []Link {
	return matching.Greedy(edges)
}

// SelectStopThreshold applies the given stop-threshold detector to the
// matched scores (Sec. 3.2 of the paper): threshold.Select, the selector
// Publish's fit cache runs too.
func SelectStopThreshold(method ThresholdMethod, scores []float64) StopThreshold {
	return threshold.Select(method, scores)
}

// LinkScores extracts the score column of a link list.
func LinkScores(links []Link) []float64 {
	out := make([]float64, len(links))
	for i, l := range links {
		out[i] = l.Score
	}
	return out
}

// FilterLinks returns the links scoring strictly above thr, preserving
// order.
func FilterLinks(links []Link, thr float64) []Link {
	return matching.FilterThreshold(links, thr)
}

// scorePositive is the one scoring fan-out: it scores the pairs
// pairAt(0..total-1) across workers and keeps the positive ones, in
// pairAt's order. Each worker owns a contiguous index range and its own
// result slot; slots are concatenated in worker order after the barrier,
// so the merge is deterministic and lock-free. A full rescore hands the
// result to the edge store whole; a delta one walks it beside the pairs it
// rescored, so a pair missing from it scored non-positive.
func (lk *Linker) scorePositive(total int, pairAt func(int) uint64) []scoredPair {
	parts := make([][]scoredPair, lk.cfg.Workers) // Workers is normalized to >= 1
	par.Chunks(lk.cfg.Workers, total, func(w, lo, hi int) {
		// Reserving a quarter of the range costs less at the peak than
		// growing from empty: append's intermediate arrays, all garbage,
		// sum to several times the final one.
		local := make([]scoredPair, 0, (hi-lo)/4)
		for k := lo; k < hi; k++ {
			p := pairAt(k)
			if s := lk.scorer.ScoreOrd(candidates.Ends(p)); s > 0 {
				local = append(local, scoredPair{key: p, score: s})
			}
		}
		parts[w] = local
	})
	return slices.Concat(parts...)
}

// LinkDatasets runs the full pipeline with one call.
func LinkDatasets(dsE, dsI Dataset, cfg Config) (Result, error) {
	lk, err := NewLinker(dsE, dsI, cfg)
	if err != nil {
		return Result{}, err
	}
	return lk.Run(), nil
}
