// Package candidates maintains SLIM's banded-LSH candidate pair set
// incrementally. The batch path (internal/lsh.CandidatePairs) rebuilds
// every signature and re-enumerates every band-bucket collision on each
// call — an O(|E|+|I|) cost even when a single entity's history changed.
// This package keeps the filter state alive between relinks: per-entity
// signatures with history-version counters (mirroring the stale-entity
// recompile discipline of internal/history's compiled views), band→bucket
// hash maps, and a per-pair collision count. A dirty entity removes its
// old band hashes and inserts its new ones, touching only the buckets it
// left or entered, so a relink after a small ingest burst costs O(dirty)
// instead of O(everything).
//
// The contract is exactness, not approximation: after any interleaving of
// ingest, Pairs() equals a from-scratch lsh.CandidatePairs rebuild
// pair-for-pair (see the parity suite). The invariant that delivers this
// is simple: paircount[{u,v}] always equals the number of bands in which
// u and v currently share a bucket, and every bucket insert/remove updates
// it against the opposite side's current membership. The candidate set is
// the keys with positive count — exactly the batch path's "share a bucket
// in at least one band".
//
// Signature-geometry changes cannot be handled by delta: when the union
// window range grows past the current grid (a new minimum window shifts
// every query window; a signature-length change re-solves the Lambert-W
// banding and re-partitions every band), the index bumps its epoch and
// performs a full rebuild. Rebuilds are amortized — the range of a
// mobility feed grows ever more rarely as it ages, while per-entity churn
// never stops, which is exactly the case delta maintenance wins.
package candidates

import (
	"time"

	"slim/internal/history"
	"slim/internal/lsh"
	"slim/internal/model"
	"slim/internal/par"
)

// Stats is a point-in-time snapshot of the index.
type Stats struct {
	// SignatureLen / Bands / Rows / NumBuckets describe the current
	// epoch's grid geometry (all zero while either store is empty).
	SignatureLen int
	Bands        int
	Rows         int
	NumBuckets   int
	// Epoch counts full rebuilds: 1 after the initial build, bumped every
	// time signature geometry forces the index to start over.
	Epoch uint64
	// SignaturesE / SignaturesI count maintained per-entity signatures.
	SignaturesE int
	SignaturesI int
	// Buckets counts non-empty (band, hash) buckets; Memberships counts
	// (entity, band) bucket entries; Occupancy is Memberships/Buckets.
	Buckets     int
	Memberships int
	Occupancy   float64
	// Candidates is the number of distinct cross-dataset candidate pairs.
	Candidates int64
	// LastDirty is how many entity signatures the last Update actually
	// recomputed; LastRebuild reports whether it was a full rebuild;
	// LastUpdate is its wall-clock duration.
	LastDirty   int
	LastRebuild bool
	LastUpdate  time.Duration
}

// Delta reports how one Update changed the candidate set, in the exact
// set-difference sense: Added/Removed are the pairs that entered/left the
// set (Pairs() after == Pairs() before − Removed + Added), and Dirty are
// the pairs that stayed candidates but have at least one endpoint whose
// signature was actually recomputed this Update — i.e. an endpoint whose
// history changed, so any score derived from the pair is stale. The three
// slices are disjoint, sorted in canonical (U, V) order, and freshly
// allocated per Update (callers may retain them).
//
// Delta is what makes scored edges maintainable as state rather than
// per-run output: a caller holding pair→score only has to rescore
// Added ∪ Dirty and drop Removed; every other pair's endpoints are
// untouched histories, so its score is unchanged by construction (see the
// root package's edge store).
//
// Rebuilt marks an epoch rebuild. It carries no pair lists: every
// signature was recomputed over a new grid, so the caller discards what it
// derived from the previous candidate set and re-reads Pairs().
type Delta struct {
	Added   []lsh.Pair
	Removed []lsh.Pair
	Dirty   []lsh.Pair
	Rebuilt bool
}

// Empty reports whether the delta carries no work at all.
func (d Delta) Empty() bool {
	return len(d.Added) == 0 && len(d.Removed) == 0 && len(d.Dirty) == 0 && !d.Rebuilt
}

// entitySig is the maintained filter state of one entity: its signature
// over the current grid, the bucket hash of each band (hasBand false for
// placeholder-only bands, which are never hashed or bucketed), and the
// history version the signature was computed from.
type entitySig struct {
	version  uint64
	sig      lsh.Signature
	bandHash []uint64
	hasBand  []bool
}

// bucket holds one band bucket's members from each side.
type bucket struct {
	e []model.EntityID
	i []model.EntityID
}

// Index is an incrementally maintained banded-LSH candidate index over two
// history stores (built at the signature spatial level). It is not safe
// for concurrent use; callers serialize Update/Pairs/Stats like any other
// linker mutation.
type Index struct {
	// Workers bounds the goroutines of an epoch rebuild's per-entity
	// signature pass (below 1 means 1). The index is identical for every
	// value.
	Workers int

	params         lsh.Params
	storeE, storeI *history.Store

	// Grid of the current epoch: query window q covers leaf windows
	// [gridMin + q·step, …) and the final window clamps to gridMax+1.
	// banding.SigLen == 0 is the ungridded state (either store empty, or
	// a degenerate step): no signatures, no pairs.
	gridMin int64
	gridMax int64
	banding lsh.Banding
	epoch   uint64

	sigE, sigI map[model.EntityID]*entitySig

	// buckets[band] maps bucket hash → members. memberships counts all
	// (entity, band) entries for the occupancy stat.
	buckets     []map[uint64]*bucket
	memberships int

	// paircount[p] = number of bands in which p currently collides; keys
	// with positive count are the candidate set. pairs caches the sorted
	// materialization; pairsStale marks it outdated.
	paircount  map[lsh.Pair]int32
	pairs      []lsh.Pair
	pairsStale bool

	// Scratch buffers so delta updates allocate nothing per entity.
	scratchSig  lsh.Signature
	scratchHash []uint64
	scratchOK   []bool

	// Per-Update delta tracking (cleared at the start of every Update).
	// touched records, for every pair whose collision count moved this
	// Update, whether it was a candidate before the Update; changedE and
	// changedI record the entities whose signatures were actually
	// recomputed; dirtySeen dedupes Dirty pairs reached through several
	// bands or both endpoints.
	touched            map[lsh.Pair]bool
	changedE, changedI map[model.EntityID]struct{}
	dirtySeen          map[lsh.Pair]struct{}

	lastDirty   int
	lastRebuild bool
	lastUpdate  time.Duration
}

// New creates an empty index over the two signature stores. Call Update
// once to perform the initial build.
func New(storeE, storeI *history.Store, p lsh.Params) *Index {
	return &Index{
		params:    p,
		storeE:    storeE,
		storeI:    storeI,
		sigE:      make(map[model.EntityID]*entitySig),
		sigI:      make(map[model.EntityID]*entitySig),
		paircount: make(map[lsh.Pair]int32),
		touched:   make(map[lsh.Pair]bool),
		changedE:  make(map[model.EntityID]struct{}),
		changedI:  make(map[model.EntityID]struct{}),
		dirtySeen: make(map[lsh.Pair]struct{}),
	}
}

// Update brings the index up to date with its stores and returns the
// exact Delta of the candidate set (see Delta). dirtyE and dirtyI name the
// entities whose histories may have changed since the previous Update
// (nil on the first call; entities whose history version is unchanged are
// skipped, so over-reporting is harmless — under-reporting is not). When
// the union window range still fits the current grid the index applies
// per-entity deltas; otherwise it bumps the epoch and rebuilds from
// scratch (Delta.Rebuilt).
func (x *Index) Update(dirtyE, dirtyI map[model.EntityID]struct{}) Delta {
	start := time.Now()
	clear(x.touched)
	clear(x.changedE)
	clear(x.changedI)
	var d Delta
	minE, maxE, okE := x.storeE.WindowRange()
	minI, maxI, okI := x.storeI.WindowRange()
	if !okE || !okI {
		// Batch semantics: no candidates until both sides hold data. Both
		// stores only ever grow, so nothing can have been built yet.
		x.lastDirty, x.lastRebuild, x.lastUpdate = 0, false, time.Since(start)
		return d
	}
	minW, maxW := minE, maxE
	if minI < minW {
		minW = minI
	}
	if maxI > maxW {
		maxW = maxI
	}
	sigLen := lsh.SignatureLength(minW, maxW, x.params.StepWindows)
	if sigLen != x.banding.SigLen || minW != x.gridMin {
		x.rebuild(minW, maxW, sigLen)
		d = Delta{Rebuilt: true}
	} else {
		// The grid anchor and length are unchanged; a larger gridMax only
		// moves the (semantically inert) clamp of the final query window,
		// so clean entities' signatures remain exact. See the
		// AppendSignature doc comment for the argument.
		x.gridMax = maxW
		n := 0
		n += x.applySide(dirtyE, true)
		n += x.applySide(dirtyI, false)
		x.lastDirty, x.lastRebuild = n, false
		d = x.deltaFromTouches()
	}
	x.lastUpdate = time.Since(start)
	return d
}

// deltaFromTouches classifies this Update's pair-count movements (recorded
// by bumpPair in x.touched) into Added/Removed, then walks the recomputed
// entities' current band buckets to collect the kept-but-dirty pairs. The
// walk costs O(current collisions of the recomputed entities) — the same
// order of work the bucket updates themselves just paid.
func (x *Index) deltaFromTouches() Delta {
	var d Delta
	for p, was := range x.touched {
		is := x.paircount[p] > 0
		switch {
		case !was && is:
			d.Added = append(d.Added, p)
		case was && !is:
			d.Removed = append(d.Removed, p)
		}
	}
	clear(x.dirtySeen)
	addDirty := func(p lsh.Pair) {
		// Kept pairs only: currently a candidate and not newly added
		// (a touched pair whose pre-Update membership was false is Added).
		if x.paircount[p] <= 0 {
			return
		}
		if was, ok := x.touched[p]; ok && !was {
			return
		}
		if _, ok := x.dirtySeen[p]; ok {
			return
		}
		x.dirtySeen[p] = struct{}{}
		d.Dirty = append(d.Dirty, p)
	}
	for id := range x.changedE {
		x.visitPartners(id, true, func(v model.EntityID) { addDirty(lsh.Pair{U: id, V: v}) })
	}
	for id := range x.changedI {
		x.visitPartners(id, false, func(u model.EntityID) { addDirty(lsh.Pair{U: u, V: id}) })
	}
	lsh.SortPairs(d.Added)
	lsh.SortPairs(d.Removed)
	lsh.SortPairs(d.Dirty)
	return d
}

// visitPartners calls fn for every opposite-side member currently sharing
// a band bucket with id (with repeats across bands; callers dedupe).
func (x *Index) visitPartners(id model.EntityID, isE bool, fn func(model.EntityID)) {
	sigs := x.sigE
	if !isE {
		sigs = x.sigI
	}
	es := sigs[id]
	if es == nil {
		return
	}
	for band := 0; band < x.banding.Bands && band < len(es.hasBand); band++ {
		if !es.hasBand[band] {
			continue
		}
		bkt := x.buckets[band][es.bandHash[band]]
		if bkt == nil {
			continue
		}
		members := bkt.i
		if !isE {
			members = bkt.e
		}
		for _, other := range members {
			fn(other)
		}
	}
}

// rebuild starts a new epoch: fresh buckets and pair counts, every
// signature recomputed over the new grid.
func (x *Index) rebuild(minW, maxW int64, sigLen int) {
	x.epoch++
	x.gridMin, x.gridMax = minW, maxW
	x.banding = lsh.NewBanding(sigLen, x.params)
	x.buckets = make([]map[uint64]*bucket, x.banding.Bands)
	for band := range x.buckets {
		x.buckets[band] = make(map[uint64]*bucket)
	}
	x.memberships = 0
	clear(x.paircount)
	x.pairsStale = true
	x.lastRebuild = true
	x.lastDirty = 0
	if x.banding.Bands == 0 {
		// Degenerate geometry (zero-length signatures): mirror the batch
		// path, which enumerates nothing.
		clear(x.sigE)
		clear(x.sigI)
		return
	}
	x.fill(x.storeE, x.sigE, true)
	x.fill(x.storeI, x.sigI, false)

	// Pair counts are accumulated per bucket once every membership list is
	// complete, which is the same O(Σ|bucket_E|·|bucket_I|) enumeration the
	// batch path performs.
	for _, byHash := range x.buckets {
		for _, bkt := range byHash {
			for _, u := range bkt.e {
				for _, v := range bkt.i {
					x.paircount[lsh.Pair{U: u, V: v}]++
				}
			}
		}
	}
}

// fill re-signs every entity of one side over the current grid and inserts
// its band hashes. Signatures and band hashes are per-entity work over
// read-only histories and fan out over x.Workers; bucket insertion stays
// serial, in sorted-entity order.
func (x *Index) fill(store *history.Store, sigs map[model.EntityID]*entitySig, isE bool) {
	ids := store.Entities()
	ess := make([]*entitySig, len(ids))
	for k, id := range ids {
		if ess[k] = sigs[id]; ess[k] == nil {
			ess[k] = &entitySig{}
			sigs[id] = ess[k]
		}
	}
	par.Chunks(x.Workers, len(ids), func(_, lo, hi int) {
		for k := lo; k < hi; k++ {
			es, h := ess[k], store.History(ids[k])
			es.version = h.Version()
			es.sig = lsh.AppendSignature(es.sig, h, x.params.StepWindows, x.gridMin, x.gridMax, x.banding.SigLen)
			es.bandHash = resize(es.bandHash, x.banding.Bands)
			es.hasBand = resize(es.hasBand, x.banding.Bands)
			for band := range es.bandHash {
				es.bandHash[band], es.hasBand[band] = x.banding.BandHash(es.sig, band)
			}
		}
	})
	for k, id := range ids {
		for band, ok := range ess[k].hasBand {
			if !ok {
				continue
			}
			hv := ess[k].bandHash[band]
			bkt := x.buckets[band][hv]
			if bkt == nil {
				bkt = &bucket{}
				x.buckets[band][hv] = bkt
			}
			if isE {
				bkt.e = append(bkt.e, id)
			} else {
				bkt.i = append(bkt.i, id)
			}
			x.memberships++
		}
	}
	x.lastDirty += len(ids)
}

// applySide delta-updates one side's dirty entities and returns how many
// signatures were actually recomputed.
func (x *Index) applySide(dirty map[model.EntityID]struct{}, isE bool) int {
	if len(dirty) == 0 || x.banding.Bands == 0 {
		return 0
	}
	store, sigs := x.storeE, x.sigE
	if !isE {
		store, sigs = x.storeI, x.sigI
	}
	changed := x.changedE
	if !isE {
		changed = x.changedI
	}
	n := 0
	for id := range dirty {
		h := store.History(id)
		if h == nil {
			continue
		}
		es := sigs[id]
		if es != nil && es.version == h.Version() {
			continue // marked dirty but unchanged since its last compute
		}
		changed[id] = struct{}{}
		fresh := es == nil
		if fresh {
			es = &entitySig{
				bandHash: make([]uint64, x.banding.Bands),
				hasBand:  make([]bool, x.banding.Bands),
			}
			sigs[id] = es
		}
		x.scratchSig = lsh.AppendSignature(x.scratchSig, h, x.params.StepWindows, x.gridMin, x.gridMax, x.banding.SigLen)
		x.scratchHash = resize(x.scratchHash, x.banding.Bands)
		x.scratchOK = resize(x.scratchOK, x.banding.Bands)
		for band := 0; band < x.banding.Bands; band++ {
			x.scratchHash[band], x.scratchOK[band] = x.banding.BandHash(x.scratchSig, band)
		}
		for band := 0; band < x.banding.Bands; band++ {
			oldOK, newOK := !fresh && es.hasBand[band], x.scratchOK[band]
			oldH, newH := es.bandHash[band], x.scratchHash[band]
			if oldOK == newOK && (!oldOK || oldH == newH) {
				continue // this band's bucket did not change
			}
			if oldOK {
				x.removeBand(band, oldH, id, isE)
			}
			if newOK {
				x.insertBand(band, newH, id, isE)
			}
		}
		copy(es.bandHash, x.scratchHash)
		copy(es.hasBand, x.scratchOK)
		es.sig = append(es.sig[:0], x.scratchSig...)
		es.version = h.Version()
		n++
	}
	return n
}

// insertBand adds id to one band bucket, counting the new collisions
// against the opposite side's current members.
func (x *Index) insertBand(band int, hash uint64, id model.EntityID, isE bool) {
	bkt := x.buckets[band][hash]
	if bkt == nil {
		bkt = &bucket{}
		x.buckets[band][hash] = bkt
	}
	if isE {
		for _, v := range bkt.i {
			x.bumpPair(lsh.Pair{U: id, V: v}, 1)
		}
		bkt.e = append(bkt.e, id)
	} else {
		for _, u := range bkt.e {
			x.bumpPair(lsh.Pair{U: u, V: id}, 1)
		}
		bkt.i = append(bkt.i, id)
	}
	x.memberships++
}

// removeBand removes id from one band bucket, releasing its collisions
// against the opposite side's current members.
func (x *Index) removeBand(band int, hash uint64, id model.EntityID, isE bool) {
	bkt := x.buckets[band][hash]
	if bkt == nil {
		return
	}
	if isE {
		bkt.e = cut(bkt.e, id)
		for _, v := range bkt.i {
			x.bumpPair(lsh.Pair{U: id, V: v}, -1)
		}
	} else {
		bkt.i = cut(bkt.i, id)
		for _, u := range bkt.e {
			x.bumpPair(lsh.Pair{U: u, V: id}, -1)
		}
	}
	x.memberships--
	if len(bkt.e) == 0 && len(bkt.i) == 0 {
		delete(x.buckets[band], hash)
	}
}

// bumpPair adjusts one pair's band-collision count, dropping the key at
// zero so len(paircount) stays the candidate count. Only membership
// changes (a count moving from or to zero) stale the sorted pair cache:
// count-only churn — an entity hopping between buckets it already shares
// with a counterpart in other bands — leaves the candidate set untouched
// and must not trigger an O(P log P) re-materialization. The first touch
// of a pair per Update records its pre-Update membership, the raw material
// of Delta.Added/Removed.
func (x *Index) bumpPair(p lsh.Pair, d int32) {
	old := x.paircount[p]
	if _, seen := x.touched[p]; !seen {
		x.touched[p] = old > 0
	}
	c := old + d
	if c <= 0 {
		if old > 0 {
			delete(x.paircount, p)
			x.pairsStale = true
		}
		return
	}
	x.paircount[p] = c
	if old == 0 {
		x.pairsStale = true
	}
}

// cut removes the first occurrence of id (each entity appears at most once
// per bucket) with an order-destroying swap-delete; bucket member order is
// irrelevant to the pair set.
func cut(s []model.EntityID, id model.EntityID) []model.EntityID {
	for k, v := range s {
		if v == id {
			s[k] = s[len(s)-1]
			return s[:len(s)-1]
		}
	}
	return s
}

// resize returns a slice of exactly n elements, reusing s's backing array
// when it is large enough (contents are unspecified).
func resize[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// Pairs returns the current candidate set sorted by (U, V) — the same
// order as lsh.CandidatePairs. The slice is freshly allocated whenever the
// set changed, so callers may hold a previous return value across later
// Updates; they must not modify it.
func (x *Index) Pairs() []lsh.Pair {
	if x.pairsStale {
		pairs := make([]lsh.Pair, 0, len(x.paircount))
		for p := range x.paircount {
			pairs = append(pairs, p)
		}
		lsh.SortPairs(pairs)
		x.pairs = pairs
		x.pairsStale = false
	}
	if x.pairs == nil {
		x.pairs = []lsh.Pair{}
	}
	return x.pairs
}

// NumCandidates returns the candidate count without materializing Pairs.
func (x *Index) NumCandidates() int64 { return int64(len(x.paircount)) }

// Stats returns an observability snapshot of the index.
func (x *Index) Stats() Stats {
	nonEmpty := 0
	for _, byHash := range x.buckets {
		nonEmpty += len(byHash)
	}
	st := Stats{
		SignatureLen: x.banding.SigLen,
		Bands:        x.banding.Bands,
		Rows:         x.banding.Rows,
		NumBuckets:   x.banding.NumBuckets,
		Epoch:        x.epoch,
		SignaturesE:  len(x.sigE),
		SignaturesI:  len(x.sigI),
		Buckets:      nonEmpty,
		Memberships:  x.memberships,
		Candidates:   int64(len(x.paircount)),
		LastDirty:    x.lastDirty,
		LastRebuild:  x.lastRebuild,
		LastUpdate:   x.lastUpdate,
	}
	if nonEmpty > 0 {
		st.Occupancy = float64(x.memberships) / float64(nonEmpty)
	}
	return st
}
