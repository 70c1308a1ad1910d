// Package candidates is SLIM's locality-sensitive-hashing filter (Sec. 4):
// each mobility history is summarized as a signature of dominating grid
// cells (one per non-overlapping query time window), the signatures are
// divided into b bands of r rows with b solved from the Lambert W function,
// and each band is hashed into a bucket array. Only cross-dataset pairs
// that share a bucket in at least one band become linkage candidates,
// which is what delivers the paper's two-to-four orders of magnitude
// speedup. The package owns the filter's parameters and their defaults
// (Params, DefaultParams), the banding primitives (banding.go) and the
// candidate index below.
//
// The index maintains the candidate pair set incrementally. Rebuilding
// every signature and re-enumerating every band-bucket collision on each
// relink is an O(|E|+|I|) cost even when a single entity's history
// changed. The index keeps the filter state alive between relinks:
// per-entity band hashes with history-version counters (mirroring the
// stale-entity recompile discipline of internal/history's compiled views)
// and band→bucket hash maps. A dirty entity removes its old band hashes and
// inserts its new ones, touching only the buckets it left or entered, so a
// relink after a small ingest burst costs O(dirty) instead of
// O(everything).
//
// Entities are named by the ordinals of their side's entity table
// (history.Ordinals) and a pair by one packed uint64 (Key): per-entity
// state is slices indexed by ordinal, bucket members are 4-byte ordinals,
// and a pair appears only as a packed word in the lists handed out, so
// nothing in this package hashes, compares or stores an entity id. The
// candidate order is the numeric key order; it equals the canonical (U, V)
// id order only while ordinals happen to be in id order, and nothing
// downstream relies on it — scores are pure functions of the pair, and the
// canonical order is imposed where edges are materialised (the root
// package).
//
// The contract is exactness, not approximation: after any interleaving of
// ingest, Pairs() names exactly the pairs of a from-scratch batch
// enumeration keyed by entity id (the parity suite's oracle, which shares
// only the banding primitives with the index). It holds by
// definition rather than by bookkeeping: a pair is a candidate iff its two
// entities' maintained band hashes agree in some band (collides) — the
// batch path's "share a bucket in at least one band" — and nothing is
// stored per pair that could drift from that. The pair list is enumerated
// from the buckets, which hold an entity under exactly its current band
// hashes; a delta update evaluates the definition under the old and the
// new hashes for the partners of the buckets a re-signed entity left or
// entered.
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
	"slices"
	"time"

	"slim/internal/history"
	"slim/internal/par"
)

// Key packs a cross-dataset pair — u an ordinal of the E side, v of the I
// side — into the one word every pair-scale structure is keyed by.
func Key(u, v uint32) uint64 { return uint64(u)<<32 | uint64(v) }

// Ends unpacks a Key.
func Ends(key uint64) (u, v uint32) { return uint32(key >> 32), uint32(key) }

// Stats is a point-in-time snapshot of the index. The json tags are its
// keys in /v1/stats' candidate_index block, rendered by internal/server's
// wire encoder (which prints a Duration as milliseconds, hence "_ms").
type Stats struct {
	// SignatureLen / Bands / Rows / NumBuckets describe the current
	// epoch's grid geometry (all zero while either store is empty).
	SignatureLen int `json:"signature_len"`
	Bands        int `json:"bands"`
	Rows         int `json:"rows"`
	NumBuckets   int `json:"num_buckets"`
	// Epoch counts full rebuilds: 1 after the initial build, bumped every
	// time signature geometry forces the index to start over.
	Epoch uint64 `json:"epoch"`
	// SignaturesE / SignaturesI count maintained per-entity signatures.
	SignaturesE int `json:"signatures_e"`
	SignaturesI int `json:"signatures_i"`
	// Buckets counts non-empty (band, hash) buckets; Memberships counts
	// (entity, band) bucket entries; Occupancy is Memberships/Buckets.
	Buckets     int     `json:"buckets"`
	Memberships int     `json:"memberships"`
	Occupancy   float64 `json:"occupancy"`
	// Candidates is the number of distinct cross-dataset candidate pairs.
	Candidates int64 `json:"candidates"`
	// LastDirty is how many entity signatures the last Update actually
	// recomputed; LastRebuild reports whether it was a full rebuild;
	// LastUpdate is its wall-clock duration.
	LastDirty   int           `json:"dirty_entities_last"`
	LastRebuild bool          `json:"last_rebuild"`
	LastUpdate  time.Duration `json:"last_update_ms"`
}

// Delta reports how one Update changed the candidate set, in the exact
// set-difference sense: Added/Removed are the pairs that entered/left the
// set (Pairs() after == Pairs() before − Removed + Added), and Dirty are
// the pairs that stayed candidates but have at least one endpoint whose
// signature was actually recomputed this Update — i.e. an endpoint whose
// history changed, so any score derived from the pair is stale. The three
// slices hold packed pairs (Key), are disjoint, sorted ascending, and
// freshly allocated per Update (callers may retain them).
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
	Added   []uint64
	Removed []uint64
	Dirty   []uint64
	Rebuilt bool
}

// The two sides of a pair: a side indexes Index.sides and bucket.members.
const (
	sideE = 0
	sideI = 1
)

// pairKey is Key for an entity of the given side and a partner of the
// opposite side.
func pairKey(side int, ord, partner uint32) uint64 {
	if side == sideE {
		return Key(ord, partner)
	}
	return Key(partner, ord)
}

// sideState is the maintained filter state of one side, indexed by entity
// ordinal: whether the entity is signed in the current epoch, the history
// version its signature was computed from, and — flat, Bands entries per
// ordinal — the bucket hash of each band (hasBand false for
// placeholder-only bands, which are never hashed or bucketed). The
// signatures themselves are not kept: a band hash is all a later delta
// compares against.
type sideState struct {
	store    *history.Store
	signed   []bool
	version  []uint64
	bandHash []uint64
	hasBand  []bool
	numSigs  int
	// changed lists the ordinals whose signatures the current Update
	// actually recomputed.
	changed []uint32
}

// bandsOf returns one ordinal's band hashes and which of them exist.
func (s *sideState) bandsOf(ord uint32, bands int) ([]uint64, []bool) {
	lo, hi := int(ord)*bands, (int(ord)+1)*bands
	return s.bandHash[lo:hi], s.hasBand[lo:hi]
}

// sharesBand reports whether two entities' band hashes agree in some band
// both of them have: the definition of a candidate pair.
func sharesBand(hashA []uint64, okA []bool, hashB []uint64, okB []bool) bool {
	for band, ok := range okA {
		if ok && okB[band] && hashA[band] == hashB[band] {
			return true
		}
	}
	return false
}

// reset drops every signature and sizes the state for n ordinals of the
// given band count.
func (s *sideState) reset(n, bands int) {
	s.signed = make([]bool, n)
	s.version = make([]uint64, n)
	s.bandHash = make([]uint64, n*bands)
	s.hasBand = make([]bool, n*bands)
	s.numSigs = 0
}

// cover extends the state to hold ordinal ord.
func (s *sideState) cover(ord uint32, bands int) {
	if n := int(ord) + 1 - len(s.signed); n > 0 {
		s.signed = append(s.signed, make([]bool, n)...)
		s.version = append(s.version, make([]uint64, n)...)
		s.bandHash = append(s.bandHash, make([]uint64, n*bands)...)
		s.hasBand = append(s.hasBand, make([]bool, n*bands)...)
	}
}

// bucket holds one band bucket's members from each side, as ordinals.
type bucket struct {
	members [2][]uint32
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

	params Params

	// Grid of the current epoch: query window q covers leaf windows
	// [gridMin + q·step, …) and the final window clamps to gridMax+1.
	// banding.SigLen == 0 is the ungridded state (either store empty, or
	// a degenerate step): no signatures, no pairs.
	gridMin int64
	gridMax int64
	banding Banding
	epoch   uint64

	sides [2]sideState

	// buckets[band] maps bucket hash → members. memberships counts all
	// (entity, band) entries for the occupancy stat.
	buckets     []map[uint64]*bucket
	memberships int

	// The candidate set is not stored: it is the pairs that collide (see
	// collides). numPairs is its size, kept exact by every delta; pairs
	// caches its ascending enumeration, nil once the set has changed.
	numPairs int64
	pairs    []uint64

	// Scratch buffers so delta updates allocate nothing per entity.
	scratchSig      Signature
	scratchHash     []uint64
	scratchOK       []bool
	scratchPartners []uint32

	// Per-Update delta tracking (cleared at the start of every Update).
	// touched records, for every pair that entered or left the candidate
	// set at some step of this Update, whether it was a candidate before
	// the Update; dirtySeen dedupes Dirty pairs reached through several
	// bands or both endpoints.
	touched   map[uint64]bool
	dirtySeen map[uint64]struct{}

	lastDirty   int
	lastRebuild bool
	lastUpdate  time.Duration
}

// New creates an empty index over the two signature stores. Call Update
// once to perform the initial build.
func New(storeE, storeI *history.Store, p Params) *Index {
	x := &Index{
		params:    p,
		touched:   make(map[uint64]bool),
		dirtySeen: make(map[uint64]struct{}),
	}
	x.sides[sideE].store = storeE
	x.sides[sideI].store = storeI
	return x
}

// Update brings the index up to date with its stores and returns the
// exact Delta of the candidate set (see Delta). dirtyE and dirtyI name, by
// ordinal, the entities whose histories may have changed since the
// previous Update (nil on the first call; entities whose history version
// is unchanged are skipped, so over-reporting is harmless —
// under-reporting is not). When the union window range still fits the
// current grid the index applies per-entity deltas; otherwise it bumps the
// epoch and rebuilds from scratch (Delta.Rebuilt).
func (x *Index) Update(dirtyE, dirtyI map[uint32]struct{}) Delta {
	start := time.Now()
	clear(x.touched)
	for side := range x.sides {
		x.sides[side].changed = x.sides[side].changed[:0]
	}
	var d Delta
	minE, maxE, okE := x.sides[sideE].store.WindowRange()
	minI, maxI, okI := x.sides[sideI].store.WindowRange()
	if !okE || !okI {
		// Batch semantics: no candidates until both sides hold data. Both
		// stores only ever grow, so nothing can have been built yet.
		x.lastDirty, x.lastRebuild, x.lastUpdate = 0, false, time.Since(start)
		return d
	}
	minW, maxW := min(minE, minI), max(maxE, maxI)
	sigLen := SignatureLength(minW, maxW, x.params.StepWindows)
	if sigLen != x.banding.SigLen || minW != x.gridMin {
		x.rebuild(minW, maxW, sigLen)
		d = Delta{Rebuilt: true}
	} else {
		// The grid anchor and length are unchanged; a larger gridMax only
		// moves the (semantically inert) clamp of the final query window,
		// so clean entities' signatures remain exact. See the
		// AppendSignature doc comment for the argument.
		x.gridMax = maxW
		n := x.applySide(dirtyE, sideE) + x.applySide(dirtyI, sideI)
		x.lastDirty, x.lastRebuild = n, false
		d = x.deltaFromTouches()
	}
	x.lastUpdate = time.Since(start)
	return d
}

// deltaFromTouches classifies the pairs whose candidacy moved during this
// Update (recorded by applySide in x.touched) into Added/Removed by what
// they are now, then walks the recomputed entities' current band buckets
// to collect the kept-but-dirty pairs. The walk costs O(current collisions
// of the recomputed entities) — the same order of work the bucket updates
// themselves just paid.
func (x *Index) deltaFromTouches() Delta {
	var d Delta
	for p, was := range x.touched {
		switch is := x.collides(Ends(p)); {
		case !was && is:
			d.Added = append(d.Added, p)
		case was && !is:
			d.Removed = append(d.Removed, p)
		}
	}
	clear(x.dirtySeen)
	for side := range x.sides {
		for _, ord := range x.sides[side].changed {
			x.visitPartners(side, ord, func(partner uint32) {
				// A partner sharing a bucket is a candidate by definition.
				// Kept pairs only: not newly added (a touched pair that was
				// no candidate before the Update is Added).
				p := pairKey(side, ord, partner)
				if was, ok := x.touched[p]; ok && !was {
					return
				}
				if _, ok := x.dirtySeen[p]; ok {
					return
				}
				x.dirtySeen[p] = struct{}{}
				d.Dirty = append(d.Dirty, p)
			})
		}
	}
	slices.Sort(d.Added)
	slices.Sort(d.Removed)
	slices.Sort(d.Dirty)
	return d
}

// collides reports whether E ordinal u and I ordinal v, both signed, are
// currently a candidate pair.
func (x *Index) collides(u, v uint32) bool {
	hashU, okU := x.sides[sideE].bandsOf(u, x.banding.Bands)
	hashV, okV := x.sides[sideI].bandsOf(v, x.banding.Bands)
	return sharesBand(hashU, okU, hashV, okV)
}

// visitPartners calls fn for every opposite-side member currently sharing
// a band bucket with the given entity (with repeats across bands; callers
// dedupe).
func (x *Index) visitPartners(side int, ord uint32, fn func(uint32)) {
	s := &x.sides[side]
	if int(ord) >= len(s.signed) || !s.signed[ord] {
		return
	}
	bands := x.banding.Bands
	for band := 0; band < bands; band++ {
		at := int(ord)*bands + band
		if !s.hasBand[at] {
			continue
		}
		bkt := x.buckets[band][s.bandHash[at]]
		if bkt == nil {
			continue
		}
		for _, partner := range bkt.members[1-side] {
			fn(partner)
		}
	}
}

// rebuild starts a new epoch: fresh buckets, every signature recomputed
// over the new grid, and the candidate list enumerated from them.
func (x *Index) rebuild(minW, maxW int64, sigLen int) {
	x.epoch++
	x.gridMin, x.gridMax = minW, maxW
	x.banding = NewBanding(sigLen, x.params)
	x.buckets = make([]map[uint64]*bucket, x.banding.Bands)
	for band := range x.buckets {
		x.buckets[band] = make(map[uint64]*bucket)
	}
	x.memberships = 0
	x.pairs = nil // garbage before its successor is allocated
	x.lastRebuild = true
	x.lastDirty = 0
	if x.banding.Bands == 0 {
		// Degenerate geometry (zero-length signatures): mirror the batch
		// path, which enumerates nothing.
		x.sides[sideE].reset(0, 0)
		x.sides[sideI].reset(0, 0)
	} else {
		x.fill(sideE)
		x.fill(sideI)
	}
	x.pairs = x.enumerate()
	x.numPairs = int64(len(x.pairs))
}

// enumerate lists the candidate set in ascending order from the buckets:
// per E ordinal, the distinct I members of its bands' buckets — the same
// O(Σ|bucket_E|·|bucket_I|) walk the batch path performs. Two passes over
// contiguous ordinal ranges across x.Workers (count, prefix offsets, write)
// fill one exactly sized slice; an ordinal's keys are sorted where they
// land and the ranges ascend, so the slice does.
func (x *Index) enumerate() []uint64 {
	nE, nI := len(x.sides[sideE].signed), len(x.sides[sideI].signed)
	walk := func(visit func(u uint32, partners []uint32)) {
		par.Chunks(x.Workers, nE, func(_, lo, hi int) {
			// stamp[v] == u+1 marks v as already listed for u.
			stamp, partners := make([]uint32, nI), []uint32(nil)
			for u := uint32(lo); u < uint32(hi); u++ {
				partners = partners[:0]
				x.visitPartners(sideE, u, func(v uint32) {
					if stamp[v] != u+1 {
						stamp[v] = u + 1
						partners = append(partners, v)
					}
				})
				visit(u, partners)
			}
		})
	}
	off := make([]int, nE+1)
	walk(func(u uint32, partners []uint32) { off[u+1] = len(partners) })
	for u := 0; u < nE; u++ {
		off[u+1] += off[u]
	}
	pairs := make([]uint64, off[nE])
	walk(func(u uint32, partners []uint32) {
		keys := pairs[off[u]:off[u+1]]
		for k, v := range partners {
			keys[k] = Key(u, v)
		}
		slices.Sort(keys)
	})
	return pairs
}

// fill re-signs every entity of one side over the current grid and inserts
// its band hashes. Signatures and band hashes are per-entity work over
// read-only histories and fan out over x.Workers; bucket insertion stays
// serial, in ordinal order.
func (x *Index) fill(side int) {
	s := &x.sides[side]
	n, bands := s.store.Ordinals().Len(), x.banding.Bands
	s.reset(n, bands)
	par.Chunks(x.Workers, n, func(_, lo, hi int) {
		var sig Signature
		for ord := lo; ord < hi; ord++ {
			h := s.store.HistoryAt(uint32(ord))
			if h.NumBins() == 0 {
				continue // no history in this store yet
			}
			s.signed[ord], s.version[ord] = true, h.Version()
			sig = AppendSignature(sig, h, x.params.StepWindows, x.gridMin, x.gridMax, x.banding.SigLen)
			for band := 0; band < bands; band++ {
				s.bandHash[ord*bands+band], s.hasBand[ord*bands+band] = x.banding.BandHash(sig, band)
			}
		}
	})
	for ord := 0; ord < n; ord++ {
		if !s.signed[ord] {
			continue
		}
		s.numSigs++
		for band := 0; band < bands; band++ {
			if s.hasBand[ord*bands+band] {
				bkt := x.bucketAt(band, s.bandHash[ord*bands+band])
				bkt.members[side] = append(bkt.members[side], uint32(ord))
				x.memberships++
			}
		}
	}
	x.lastDirty += s.numSigs
}

// bucketAt returns one band's bucket for a hash, creating it when absent.
func (x *Index) bucketAt(band int, hash uint64) *bucket {
	bkt := x.buckets[band][hash]
	if bkt == nil {
		bkt = &bucket{}
		x.buckets[band][hash] = bkt
	}
	return bkt
}

// applySide delta-updates one side's dirty entities and returns how many
// signatures were actually recomputed.
func (x *Index) applySide(dirty map[uint32]struct{}, side int) int {
	bands := x.banding.Bands
	if len(dirty) == 0 || bands == 0 {
		return 0
	}
	s := &x.sides[side]
	n := 0
	for ord := range dirty {
		h := s.store.HistoryAt(ord)
		if h.NumBins() == 0 {
			continue
		}
		s.cover(ord, bands)
		fresh := !s.signed[ord]
		if !fresh && s.version[ord] == h.Version() {
			continue // marked dirty but unchanged since its last compute
		}
		s.changed = append(s.changed, ord)
		x.scratchSig = AppendSignature(x.scratchSig, h, x.params.StepWindows, x.gridMin, x.gridMax, x.banding.SigLen)
		x.scratchHash = resize(x.scratchHash, bands)
		x.scratchOK = resize(x.scratchOK, bands)
		for band := 0; band < bands; band++ {
			x.scratchHash[band], x.scratchOK[band] = x.banding.BandHash(x.scratchSig, band)
		}
		// A never-signed ordinal has no bands: oldOK is all false.
		oldHash, oldOK := s.bandsOf(ord, bands)
		partners := x.scratchPartners[:0]
		for band := 0; band < bands; band++ {
			wasOK, isOK := oldOK[band], x.scratchOK[band]
			if wasOK == isOK && (!wasOK || oldHash[band] == x.scratchHash[band]) {
				continue // this band's bucket did not change
			}
			if wasOK {
				partners = x.removeBand(band, oldHash[band], ord, side, partners)
			}
			if isOK {
				partners = x.insertBand(band, x.scratchHash[band], ord, side, partners)
			}
		}
		// Only a member of a bucket the entity left or entered can have
		// changed candidacy with it: towards anyone else, every band that
		// collided still does and no other one has started to. Count-only
		// churn — hopping between buckets while another band keeps the pair
		// — is was == is, and must not drop the enumerated list.
		slices.Sort(partners)
		partners = slices.Compact(partners)
		for _, partner := range partners {
			hash, ok := x.sides[1-side].bandsOf(partner, bands)
			was := sharesBand(oldHash, oldOK, hash, ok)
			is := sharesBand(x.scratchHash, x.scratchOK, hash, ok)
			if was == is {
				continue
			}
			// The first move of a pair per Update records its pre-Update
			// membership, the raw material of Delta.Added/Removed.
			p := pairKey(side, ord, partner)
			if _, seen := x.touched[p]; !seen {
				x.touched[p] = was
			}
			if is {
				x.numPairs++
			} else {
				x.numPairs--
			}
			x.pairs = nil
		}
		x.scratchPartners = partners
		copy(oldHash, x.scratchHash)
		copy(oldOK, x.scratchOK)
		if fresh {
			s.signed[ord] = true
			s.numSigs++
		}
		s.version[ord] = h.Version()
		n++
	}
	return n
}

// insertBand adds an entity to one band bucket and appends the bucket's
// opposite-side members to partners.
func (x *Index) insertBand(band int, hash uint64, ord uint32, side int, partners []uint32) []uint32 {
	bkt := x.bucketAt(band, hash)
	bkt.members[side] = append(bkt.members[side], ord)
	x.memberships++
	return append(partners, bkt.members[1-side]...)
}

// removeBand removes an entity from one band bucket and appends the
// bucket's opposite-side members to partners.
func (x *Index) removeBand(band int, hash uint64, ord uint32, side int, partners []uint32) []uint32 {
	bkt := x.buckets[band][hash]
	if bkt == nil {
		return partners
	}
	bkt.members[side] = cut(bkt.members[side], ord)
	x.memberships--
	if len(bkt.members[sideE]) == 0 && len(bkt.members[sideI]) == 0 {
		delete(x.buckets[band], hash)
	}
	return append(partners, bkt.members[1-side]...)
}

// cut removes the first occurrence of ord (each entity appears at most
// once per bucket) with an order-destroying swap-delete; bucket member
// order is irrelevant to the pair set.
func cut(s []uint32, ord uint32) []uint32 {
	if k := slices.Index(s, ord); k >= 0 {
		s[k] = s[len(s)-1]
		return s[:len(s)-1]
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

// Pairs returns the current candidate set as packed pairs (Key) in
// ascending order. The slice is freshly allocated whenever the set
// changed, so callers may hold a previous return value across later
// Updates; they must not modify it.
func (x *Index) Pairs() []uint64 {
	if x.pairs == nil {
		x.pairs = x.enumerate() // never nil, so an empty set is cached too
	}
	return x.pairs
}

// NumCandidates returns the candidate count without materializing Pairs.
func (x *Index) NumCandidates() int64 { return x.numPairs }

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
		SignaturesE:  x.sides[sideE].numSigs,
		SignaturesI:  x.sides[sideI].numSigs,
		Buckets:      nonEmpty,
		Memberships:  x.memberships,
		Candidates:   x.numPairs,
		LastDirty:    x.lastDirty,
		LastRebuild:  x.lastRebuild,
		LastUpdate:   x.lastUpdate,
	}
	if nonEmpty > 0 {
		st.Occupancy = float64(x.memberships) / float64(nonEmpty)
	}
	return st
}
