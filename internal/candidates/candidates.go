// Package candidates is SLIM's locality-sensitive-hashing filter (Sec. 4):
// each mobility history is summarized as a signature of dominating grid
// cells (one per non-overlapping query time window, a row), the rows are
// grouped into bands of r consecutive rows with r solved from the Lambert W
// function, and each band is hashed into a bucket array. Only
// cross-dataset pairs that share a bucket in at least one band become
// linkage candidates, which is what delivers the paper's two-to-four
// orders of magnitude speedup. The package owns the filter's parameters
// and their defaults (Params, DefaultParams), the banding primitives
// (banding.go) and the candidate index below.
//
// Rows and bands are absolute: row q covers the same span of Unix time on
// both sides and in every run (Params.RowWindowing), band q holds rows
// [q·r, (q+1)·r), and a signature lists only the rows its entity was
// observed in. Nothing about the geometry depends on the data's time range,
// so a record anywhere in time touches its own entity's rows and bands and
// nothing else.
//
// The index maintains the candidate pair set incrementally. Re-signing
// every entity and re-enumerating every band-bucket collision on each
// relink is an O(|E|+|I|) cost even when a single entity's history
// changed. The index keeps the filter state alive between relinks:
// per-entity band keys with history-version counters (mirroring the
// stale-entity recompile discipline of internal/history's compiled views)
// and one (band, hash)→bucket map. A dirty entity removes its old band
// keys and inserts its new ones, touching only the buckets it left or
// entered, so a relink after a small ingest burst costs O(dirty) instead
// of O(everything). There is no other update path.
//
// Entities are named by the ordinals of their side's entity table
// (history.Ordinals) and a pair by one packed uint64 (Key): per-entity
// state is columns indexed by ordinal, bucket members are 4-byte ordinals,
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
// entities' maintained band keys agree in some band (collides) — the
// batch path's "share a bucket in at least one band" — and nothing is
// stored per pair that could drift from that. The pair list is enumerated
// from the buckets, which hold an entity under exactly its current band
// keys; a delta update evaluates the definition under the old and the
// new keys for the partners of the buckets a re-signed entity left or
// entered.
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
	// Rows is the rows per band r; NumBuckets the buckets per band.
	Rows       int `json:"rows"`
	NumBuckets int `json:"num_buckets"`
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
	// recomputed; LastUpdate is its wall-clock duration.
	LastDirty  int           `json:"dirty_entities_last"`
	LastUpdate time.Duration `json:"last_update_ms"`
}

// Delta reports how one Update changed the candidate set, in the exact
// set-difference sense: Added/Removed are the pairs that entered/left the
// set (Pairs() after == Pairs() before − Removed + Added; the first Update
// starts from the empty set), and Dirty are the pairs that stayed
// candidates but have at least one endpoint whose signature was actually
// recomputed this Update — i.e. an endpoint whose history changed, so any
// score derived from the pair is stale. The three slices hold packed pairs
// (Key), are disjoint and sorted ascending; callers may retain them but
// must not modify them.
//
// Delta is what makes scored edges maintainable as state rather than
// per-run output: a caller holding pair→score only has to rescore
// Added ∪ Dirty and drop Removed; every other pair's endpoints are
// untouched histories, so its score is unchanged by construction (see the
// root package's edge store).
type Delta struct {
	Added   []uint64
	Removed []uint64
	Dirty   []uint64
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

// span locates one entity's band keys in its side's keys column.
type span struct{ at, n int32 }

// sideState is the maintained filter state of one side, indexed by entity
// ordinal: whether the entity is signed, the history version its signature
// was computed from, and where its band keys lie in the keys column — one
// key per band it has a row in, ascending by band. The signatures
// themselves are not kept: a band key is all a later delta compares
// against.
type sideState struct {
	store   *history.Store
	signed  []bool
	version []uint64
	spans   []span
	// keys holds every entity's band keys back to back. An entity whose
	// keys outgrow their range moves to the end and leaves the range dead;
	// live counts the keys in use, and a column more than half dead is
	// rewritten compactly (setBands).
	keys    []bandKey
	live    int
	numSigs int
	// changed lists the ordinals whose signatures the current Update
	// actually recomputed.
	changed []uint32
}

// bandsOf returns one ordinal's band keys (none for an unsigned or
// unassigned ordinal).
func (s *sideState) bandsOf(ord uint32) []bandKey {
	if int(ord) >= len(s.spans) {
		return nil
	}
	sp := s.spans[ord]
	return s.keys[sp.at : sp.at+sp.n : sp.at+sp.n]
}

// cover extends the state to hold n ordinals.
func (s *sideState) cover(n int) {
	if n > len(s.signed) {
		s.signed = append(s.signed, make([]bool, n-len(s.signed))...)
		s.version = append(s.version, make([]uint64, n-len(s.version))...)
		s.spans = append(s.spans, make([]span, n-len(s.spans))...)
	}
}

// setBands stores an ordinal's new band keys: over its range when they
// fit, else at the end of the column.
func (s *sideState) setBands(ord uint32, keys []bandKey) {
	sp := &s.spans[ord]
	s.live += len(keys) - int(sp.n)
	if len(keys) > int(sp.n) {
		sp.n = 0
		if len(s.keys) > 2*s.live {
			s.compact()
		}
		sp.at = int32(len(s.keys))
		s.keys = append(s.keys, keys...)
	} else {
		copy(s.keys[sp.at:], keys)
	}
	sp.n = int32(len(keys))
}

// compact rewrites the keys column without its dead ranges, in ordinal
// order, with a quarter of spare room.
func (s *sideState) compact() {
	keys := make([]bandKey, 0, s.live+s.live/4)
	for k := range s.spans {
		sp := &s.spans[k]
		at := len(keys)
		keys = append(keys, s.keys[sp.at:sp.at+sp.n]...)
		sp.at = int32(at)
	}
	s.keys = keys
}

// bucket holds one band bucket's members from each side, as ordinals.
type bucket struct {
	members [2][]uint32
}

// Index is an incrementally maintained banded-LSH candidate index over two
// signature stores (history stores built at the signature spatial level
// over Params.RowWindowing, so a store window is a signature row). It is
// not safe for concurrent use; callers serialize Update/Pairs/Stats like
// any other linker mutation.
type Index struct {
	// Workers bounds the goroutines of the first Update's per-entity
	// signature pass and of every pair enumeration (below 1 means 1). The
	// index is identical for every value.
	Workers int

	rows       int64 // r, rows per band
	numBuckets uint64
	built      bool

	sides [2]sideState

	// buckets maps (band, hash) → members. memberships counts all
	// (entity, band) entries for the occupancy stat.
	buckets     map[bandKey]*bucket
	memberships int

	// The candidate set is not stored: it is the pairs that collide (see
	// collides). numPairs is its size, kept exact by every delta; pairs
	// caches its ascending enumeration, nil once the set has changed.
	numPairs int64
	pairs    []uint64

	// Scratch buffers so delta updates allocate nothing per entity.
	scratchSig      Signature
	scratchKeys     []bandKey
	scratchPartners []uint32

	// Per-Update delta tracking (cleared at the start of every Update).
	// touched records, for every pair that entered or left the candidate
	// set at some step of this Update, whether it was a candidate before
	// the Update; dirtySeen dedupes Dirty pairs reached through several
	// bands or both endpoints.
	touched   map[uint64]bool
	dirtySeen map[uint64]struct{}

	lastDirty  int
	lastUpdate time.Duration
}

// New creates an empty index over the two signature stores. Call Update
// once to perform the initial build.
func New(storeE, storeI *history.Store, p Params) *Index {
	x := &Index{
		rows:       int64(RowsPerBand(p.Threshold)),
		numBuckets: uint64(p.NumBuckets),
		buckets:    make(map[bandKey]*bucket),
		touched:    make(map[uint64]bool),
		dirtySeen:  make(map[uint64]struct{}),
	}
	x.sides[sideE].store = storeE
	x.sides[sideI].store = storeI
	return x
}

// Update brings the index up to date with its stores and returns the
// exact Delta of the candidate set (see Delta). dirtyE and dirtyI name, by
// ordinal, the entities whose histories may have changed since the
// previous Update (entities whose history version is unchanged are
// skipped, so over-reporting is harmless — under-reporting is not). The
// first call signs every entity of both stores, fanned out over Workers,
// and ignores them; its Delta adds the whole candidate set.
func (x *Index) Update(dirtyE, dirtyI map[uint32]struct{}) Delta {
	start := time.Now()
	var d Delta
	if !x.built {
		x.built = true
		x.lastDirty = x.fill(sideE) + x.fill(sideI)
		x.pairs = x.enumerate()
		x.numPairs = int64(len(x.pairs))
		d.Added = x.pairs
	} else {
		clear(x.touched)
		for side := range x.sides {
			x.sides[side].changed = x.sides[side].changed[:0]
		}
		x.lastDirty = x.applySide(dirtyE, sideE) + x.applySide(dirtyI, sideI)
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

// collides reports whether E ordinal u and I ordinal v are currently a
// candidate pair.
func (x *Index) collides(u, v uint32) bool {
	return sharesBand(x.sides[sideE].bandsOf(u), x.sides[sideI].bandsOf(v))
}

// visitPartners calls fn for every opposite-side member currently sharing
// a band bucket with the given entity (with repeats across bands; callers
// dedupe).
func (x *Index) visitPartners(side int, ord uint32, fn func(uint32)) {
	for _, key := range x.sides[side].bandsOf(ord) {
		if bkt := x.buckets[key]; bkt != nil {
			for _, partner := range bkt.members[1-side] {
				fn(partner)
			}
		}
	}
}

// enumerate lists the candidate set in ascending order from the buckets:
// per E ordinal, the distinct I members of its bands' buckets — the same
// O(Σ|bucket_E|·|bucket_I|) walk the batch path performs. Two passes over
// contiguous ordinal ranges across x.Workers (count, prefix offsets, write)
// fill one exactly sized slice; an ordinal's keys are sorted where they
// land and the ranges ascend, so the slice does.
func (x *Index) enumerate() []uint64 {
	nE, nI := len(x.sides[sideE].spans), len(x.sides[sideI].spans)
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

// fill signs every entity of one side and inserts its band keys, returning
// how many it signed. Signatures and band keys are per-entity work over
// read-only histories and fan out over x.Workers in two passes (count the
// keys, then write them into one exactly sized column); bucket insertion
// stays serial, in ordinal order.
func (x *Index) fill(side int) int {
	s := &x.sides[side]
	n := s.store.Ordinals().Len()
	s.cover(n)
	par.Chunks(x.Workers, n, func(_, lo, hi int) {
		for ord := lo; ord < hi; ord++ {
			h := s.store.HistoryAt(uint32(ord))
			s.spans[ord].n = int32(countBands(h.Windows(), x.rows))
		}
	})
	for ord := range s.spans {
		s.spans[ord].at = int32(s.live)
		s.live += int(s.spans[ord].n)
	}
	s.keys = make([]bandKey, s.live)
	par.Chunks(x.Workers, n, func(_, lo, hi int) {
		var sig Signature
		for ord := lo; ord < hi; ord++ {
			h := s.store.HistoryAt(uint32(ord))
			if h.NumBins() == 0 {
				continue // no history in this store yet
			}
			s.signed[ord], s.version[ord] = true, h.Version()
			sig = AppendSignature(sig, h)
			sp := s.spans[ord]
			appendBands(s.keys[sp.at:sp.at:sp.at+sp.n], sig, x.rows, x.numBuckets) // fills the range in place
		}
	})
	for ord := uint32(0); ord < uint32(n); ord++ {
		if !s.signed[ord] {
			continue
		}
		s.numSigs++
		for _, key := range s.bandsOf(ord) {
			bkt := x.bucketAt(key)
			bkt.members[side] = append(bkt.members[side], ord)
			x.memberships++
		}
	}
	return s.numSigs
}

// applySide delta-updates one side's dirty entities and returns how many
// signatures were actually recomputed.
func (x *Index) applySide(dirty map[uint32]struct{}, side int) int {
	s := &x.sides[side]
	n := 0
	for ord := range dirty {
		h := s.store.HistoryAt(ord)
		if h.NumBins() == 0 {
			continue
		}
		s.cover(int(ord) + 1)
		fresh := !s.signed[ord]
		if !fresh && s.version[ord] == h.Version() {
			continue // marked dirty but unchanged since its last compute
		}
		s.changed = append(s.changed, ord)
		x.scratchSig = AppendSignature(x.scratchSig, h)
		x.scratchKeys = appendBands(x.scratchKeys[:0], x.scratchSig, x.rows, x.numBuckets)
		// A never-signed ordinal has no bands: old is empty.
		old, cur := s.bandsOf(ord), x.scratchKeys
		partners := x.scratchPartners[:0]
		// Both key lists ascend by band: one merge walk leaves the bands the
		// entity left, enters the ones it entered and moves the ones whose
		// bucket changed.
		for i, j := 0, 0; i < len(old) || j < len(cur); {
			switch {
			case j == len(cur) || i < len(old) && old[i].band < cur[j].band:
				partners = x.removeBand(old[i], ord, side, partners)
				i++
			case i == len(old) || cur[j].band < old[i].band:
				partners = x.insertBand(cur[j], ord, side, partners)
				j++
			default:
				if old[i].hash != cur[j].hash {
					partners = x.removeBand(old[i], ord, side, partners)
					partners = x.insertBand(cur[j], ord, side, partners)
				}
				i, j = i+1, j+1
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
			keys := x.sides[1-side].bandsOf(partner)
			was, is := sharesBand(old, keys), sharesBand(cur, keys)
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
		s.setBands(ord, cur)
		if fresh {
			s.signed[ord] = true
			s.numSigs++
		}
		s.version[ord] = h.Version()
		n++
	}
	return n
}

// bucketAt returns the bucket of a key, creating it when absent.
func (x *Index) bucketAt(key bandKey) *bucket {
	bkt := x.buckets[key]
	if bkt == nil {
		bkt = &bucket{}
		x.buckets[key] = bkt
	}
	return bkt
}

// insertBand adds an entity to one bucket and appends the bucket's
// opposite-side members to partners.
func (x *Index) insertBand(key bandKey, ord uint32, side int, partners []uint32) []uint32 {
	bkt := x.bucketAt(key)
	bkt.members[side] = append(bkt.members[side], ord)
	x.memberships++
	return append(partners, bkt.members[1-side]...)
}

// removeBand removes an entity from one bucket and appends the bucket's
// opposite-side members to partners.
func (x *Index) removeBand(key bandKey, ord uint32, side int, partners []uint32) []uint32 {
	bkt := x.buckets[key]
	if bkt == nil {
		return partners
	}
	bkt.members[side] = cut(bkt.members[side], ord)
	x.memberships--
	if len(bkt.members[sideE]) == 0 && len(bkt.members[sideI]) == 0 {
		delete(x.buckets, key)
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
	st := Stats{
		Rows:        int(x.rows),
		NumBuckets:  int(x.numBuckets),
		SignaturesE: x.sides[sideE].numSigs,
		SignaturesI: x.sides[sideI].numSigs,
		Buckets:     len(x.buckets),
		Memberships: x.memberships,
		Candidates:  x.numPairs,
		LastDirty:   x.lastDirty,
		LastUpdate:  x.lastUpdate,
	}
	if st.Buckets > 0 {
		st.Occupancy = float64(x.memberships) / float64(st.Buckets)
	}
	return st
}
