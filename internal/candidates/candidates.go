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
// changed. The index keeps the filter state alive between relinks, as
// columns: per-entity band keys, and per side one postings column that
// lists every (entity, band key) membership sorted by (band, hash,
// ordinal), so that a bucket is the run of one key. An Update re-signs
// exactly the entities its caller reports, moves in place only the
// memberships of the keys they left or entered, and re-examines only the
// partners of those keys and of their new ones. The index keeps no record
// of what changed: the caller's report is the only one. There is no other
// update path.
//
// Entities are named by the ordinals of their side's entity table
// (history.Ordinals) and a pair by one packed uint64 (Key): per-entity
// state is columns indexed by ordinal, a posting names its entity by a
// 4-byte ordinal, and a pair appears only as a packed word in the lists
// handed out, so nothing in this package hashes, compares or stores an
// entity id. The candidate order is the numeric key order; it equals the
// canonical (U, V) id order only while ordinals happen to be in id order,
// and nothing downstream relies on it — scores are pure functions of the
// pair, and the canonical order is imposed where edges are materialised
// (the root package).
//
// The contract is exactness, not approximation: after any interleaving of
// ingest, the pairs AppendPairs names for every entity are exactly those of
// a from-scratch batch enumeration keyed by entity id (the parity suite's
// oracle, which shares only the banding primitives with the index). It
// holds by definition rather than by bookkeeping: a pair is a candidate iff
// its two entities' maintained band keys agree in some band — the batch
// path's "share a bucket in at least one band" — and nothing is stored per
// pair that could drift from that. The candidate set is held once, as the
// postings: an entity's pairs are its bucket mates in the opposite side's
// postings, which hold an entity under exactly its current band keys, and
// no list of them is kept.
package candidates

import (
	"slices"
	"time"
	"unsafe"

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
	// ResidentBytes is what the index's columns hold, summed from their
	// capacities.
	ResidentBytes int64 `json:"resident_bytes"`
	// LastDirty is how many entity signatures the last Update recomputed;
	// LastUpdate is its wall-clock duration.
	LastDirty  int           `json:"dirty_entities_last"`
	LastUpdate time.Duration `json:"last_update_ms"`
}

// The two sides of a pair: a side indexes Index.sides and names the side
// of the entity AppendPairs is asked about.
const (
	SideE = 0
	SideI = 1
)

// pairKey is Key for an entity of the given side and a partner of the
// opposite side.
func pairKey(side int, ord, partner uint32) uint64 {
	if side == SideE {
		return Key(ord, partner)
	}
	return Key(partner, ord)
}

// span locates one entity's band keys in a keyset.
type span struct{ at, n int32 }

// postings lists one side's bucket memberships, one entry per (entity,
// band key), sorted by (band, hash, ordinal). bands holds the distinct
// bands ascending, and band bands[k]'s entries are
// entries[starts[k]:starts[k+1]], each the bucket hash and the entity's
// ordinal packed as hash<<32 | ordinal (a hash is below NumBuckets, at
// most 2^32). A bucket is the run of one hash in its band's entries, and
// its size is the run's length.
type postings struct {
	bands   []int64
	starts  []int32
	entries []uint64
}

// segment returns the entries of bands[k].
func (p *postings) segment(k int) []uint64 { return p.entries[p.starts[k]:p.starts[k+1]] }

// band returns the entries of one band (none if p holds none in it).
func (p *postings) band(band int64) []uint64 {
	if k, ok := slices.BinarySearch(p.bands, band); ok {
		return p.segment(k)
	}
	return nil
}

// run returns the entries of one bucket, found by binary search.
func (p *postings) run(key bandKey) []uint64 {
	seg := p.band(key.band)
	lo, _ := slices.BinarySearch(seg, key.hash<<32)
	hi := lo
	for hi < len(seg) && seg[hi]>>32 == key.hash {
		hi++
	}
	return seg[lo:hi]
}

// buildPostings lays out the memberships of the entities of a keyset with
// no dead ranges, the k-th under ordinal ord(k). The distinct bands are
// found by sorting every key's band in the entries column before it holds
// entries, so the build needs no room beyond the column and a table per
// band; the per-band sorts fan out over workers, and the result is the
// same for every value.
func buildPostings(ks keyset, ord func(k int) uint32, workers int) postings {
	p := postings{entries: make([]uint64, len(ks.keys))}
	for i, key := range ks.keys {
		p.entries[i] = uint64(key.band) ^ 1<<63 // sorts as the signed band
	}
	slices.Sort(p.entries)
	for i, e := range p.entries {
		if i == 0 || e != p.entries[i-1] {
			p.bands = append(p.bands, int64(e^1<<63))
		}
	}
	bandAt := func(band int64) int {
		b, _ := slices.BinarySearch(p.bands, band)
		return b
	}
	p.starts = make([]int32, len(p.bands)+1)
	for _, key := range ks.keys {
		p.starts[bandAt(key.band)+1]++
	}
	for b := range p.bands {
		p.starts[b+1] += p.starts[b]
	}
	next := slices.Clone(p.starts[:len(p.bands)])
	for k := range ks.spans {
		for _, key := range ks.at(k) {
			b := bandAt(key.band)
			p.entries[next[b]] = key.hash<<32 | uint64(ord(k))
			next[b]++
		}
	}
	par.Chunks(workers, len(p.bands), func(_, lo, hi int) {
		for b := lo; b < hi; b++ {
			slices.Sort(p.segment(b))
		}
	})
	return p
}

// zipBands calls fn once per band either postings holds, ascending, with
// the two's entries in it.
func zipBands(a, b *postings, fn func(band int64, ea, eb []uint64)) {
	for i, j := 0, 0; i < len(a.bands) || j < len(b.bands); {
		switch {
		case j == len(b.bands) || i < len(a.bands) && a.bands[i] < b.bands[j]:
			fn(a.bands[i], a.segment(i), nil)
			i++
		case i == len(a.bands) || b.bands[j] < a.bands[i]:
			fn(b.bands[j], nil, b.segment(j))
			j++
		default:
			fn(a.bands[i], a.segment(i), b.segment(j))
			i, j = i+1, j+1
		}
	}
}

// update rewrites p in place: gone's entries, all of which p holds, leave
// and fresh's arrive, and the stretches between them move whole. The
// leaving entries are squeezed out front to back; then each band, back to
// front, takes its arrivals, each placed by binary search.
func (p *postings) update(gone, fresh *postings) {
	w, bands, starts := 0, p.bands[:0], p.starts[:0]
	for k, band := range p.bands {
		seg, at := p.entries[p.starts[k]:p.starts[k+1]], w
		for _, e := range gone.band(band) {
			i, _ := slices.BinarySearch(seg, e)
			w += copy(p.entries[w:], seg[:i])
			seg = seg[i+1:]
		}
		w += copy(p.entries[w:], seg)
		if w > at {
			bands, starts = append(bands, band), append(starts, int32(at))
		}
	}
	p.bands, p.starts, p.entries = bands, append(starts, int32(w)), p.entries[:w]

	var newBands []int64
	var newStarts []int32
	n := 0
	zipBands(p, fresh, func(band int64, ea, eb []uint64) {
		newBands, newStarts = append(newBands, band), append(newStarts, int32(n))
		n += len(ea) + len(eb)
	})
	newStarts = append(newStarts, int32(n))
	p.entries = slices.Grow(p.entries, len(fresh.entries))[:n]
	for k := len(newBands) - 1; k >= 0; k-- {
		ea, eb, out := p.band(newBands[k]), fresh.band(newBands[k]), int(newStarts[k+1])
		for ; len(eb) > 0; eb = eb[:len(eb)-1] {
			i, _ := slices.BinarySearch(ea, eb[len(eb)-1])
			out -= copy(p.entries[out-(len(ea)-i):], ea[i:]) + 1
			p.entries[out] = eb[len(eb)-1]
			ea = ea[:i]
		}
		copy(p.entries[out-len(ea):], ea)
	}
	p.bands, p.starts = newBands, newStarts
}

// eachKey calls fn once for every distinct (band, hash) key two postings
// hold between them.
func eachKey(a, b *postings, fn func(key bandKey)) {
	zipBands(a, b, func(band int64, ea, eb []uint64) {
		for i, j := 0, 0; i < len(ea) || j < len(eb); {
			hash := ^uint64(0)
			if i < len(ea) {
				hash = ea[i] >> 32
			}
			if j < len(eb) {
				hash = min(hash, eb[j]>>32)
			}
			fn(bandKey{band: band, hash: hash})
			for i < len(ea) && ea[i]>>32 == hash {
				i++
			}
			for j < len(eb) && eb[j]>>32 == hash {
				j++
			}
		}
	})
}

// keyset holds the band keys of several entities back to back, the k-th
// entity's at spans[k].
type keyset struct {
	keys  []bandKey
	spans []span
}

// at returns the k-th entity's keys.
func (ks *keyset) at(k int) []bandKey {
	sp := ks.spans[k]
	return ks.keys[sp.at : sp.at+sp.n : sp.at+sp.n]
}

// seal ends the entity whose keys were appended from at on.
func (ks *keyset) seal(at int) {
	ks.spans = append(ks.spans, span{int32(at), int32(len(ks.keys) - at)})
}

// sideState is the maintained filter state of one side, indexed by entity
// ordinal: its band keys — one key per band it has a row in, ascending by
// band, none while it is unsigned — plus the side's postings. The
// signatures themselves are not kept: a band key is all a later delta
// compares against.
type sideState struct {
	store *history.Store
	// keyset holds every entity's band keys back to back, spans indexed by
	// ordinal. An entity whose keys outgrow their range moves to the end
	// and leaves the range dead; live counts the keys in use, and the move
	// that would outgrow the column's capacity rewrites it compactly
	// instead (setBands).
	keyset
	live int
	// numSigs counts the ordinals with band keys: a signed entity has a
	// history, so it has a row in at least one band.
	numSigs int
	post    postings
}

// bandsOf returns one ordinal's band keys (none for an unsigned or
// unassigned ordinal).
func (s *sideState) bandsOf(ord uint32) []bandKey {
	if int(ord) >= len(s.spans) {
		return nil
	}
	return s.at(int(ord))
}

// cover extends the state to hold n ordinals.
func (s *sideState) cover(n int) {
	if n > len(s.spans) {
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
		if len(s.keys)+len(keys) > cap(s.keys) {
			s.compact()
		}
		sp.at = int32(len(s.keys))
		s.keys = append(s.keys, keys...)
	} else {
		copy(s.keys[sp.at:], keys)
	}
	sp.n = int32(len(keys))
}

// keysSpareDiv sets the spare capacity of a rewritten keys column: an
// eighth of its live keys, as a history store's column family keeps. A moved entity takes its new range from the
// spare capacity; the move that finds too little left rewrites the column
// instead of letting append grow it, so dead and spare keys together stay
// within about a quarter of the live ones, and a column is rewritten once
// per eighth of its size moved, not once per Update. A built column has no
// spare capacity, so its first move rewrites.
const keysSpareDiv = 8

// compact rewrites the keys column without its dead ranges, in ordinal
// order, with room for every live key — the moving entity's new ones
// included, which live already counts — plus the spare capacity.
func (s *sideState) compact() {
	keys := make([]bandKey, 0, s.live+s.live/keysSpareDiv)
	for k := range s.spans {
		sp := &s.spans[k]
		at := len(keys)
		keys = append(keys, s.keys[sp.at:sp.at+sp.n]...)
		sp.at = int32(at)
	}
	s.keys = keys
}

// signing holds one side's entities re-signed by the current Update, their
// ordinals ascending: each one's new band keys, the keys it left (its old
// ones without its new ones) and those it entered (the other way round).
// The side's own state keeps the old keys until commit.
type signing struct {
	ords                []uint32
	next, left, entered keyset
}

// ord returns ords[k].
func (g *signing) ord(k int) uint32 { return g.ords[k] }

// moved reports whether the k-th entity's keys moved: it left or entered
// one.
func (g *signing) moved(k int) bool { return g.left.spans[k].n+g.entered.spans[k].n > 0 }

// movedOrd is moved for an ordinal: false for one the signing did not
// re-sign.
func (g *signing) movedOrd(ord uint32) bool {
	k, ok := slices.BinarySearch(g.ords, ord)
	return ok && g.moved(k)
}

// repost moves a signing's entities out of the buckets they left and into
// those they entered, and returns by how much that changed the number of
// keys held on this side or the other. Their postings are few, so they are
// built on one goroutine.
func (s *sideState) repost(g *signing, other *postings) int {
	if len(g.left.keys)+len(g.entered.keys) == 0 {
		return 0
	}
	gone := buildPostings(g.left, g.ord, 1)
	fresh := buildPostings(g.entered, g.ord, 1)
	// Only a key an entity left or entered can have filled or emptied its
	// bucket, and only one the other side does not hold counts.
	alone := func() int {
		n := 0
		eachKey(&gone, &fresh, func(key bandKey) {
			if len(s.post.run(key)) > 0 && len(other.run(key)) == 0 {
				n++
			}
		})
		return n
	}
	before := alone()
	s.post.update(&gone, &fresh)
	return alone() - before
}

// commit stores a signing's new band keys.
func (s *sideState) commit(g *signing) {
	for k, ord := range g.ords {
		if s.spans[ord].n == 0 {
			s.numSigs++
		}
		s.setBands(ord, g.next.at(k))
	}
}

// Index is an incrementally maintained banded-LSH candidate index over two
// signature stores (history stores built at the signature spatial level
// over Params.RowWindowing, so a store window is a signature row). It is
// not safe for concurrent use, except that AppendPairs only reads: callers
// serialize Update/Stats like any other linker mutation, and may fan
// AppendPairs out between Updates.
type Index struct {
	// Workers bounds the goroutines of the first Update's signature pass,
	// postings sorts and pair count (below 1 means 1). The index is
	// identical for every value.
	Workers int

	rows       int64 // r, rows per band
	numBuckets uint64
	built      bool

	sides [2]sideState
	// buckets counts the keys held on either side.
	buckets int

	// The candidate set is not stored: it is the pairs whose band keys
	// agree in some band. numPairs is its size, kept exact by every
	// Update.
	numPairs int64

	// scratchSig is reused by every signature an Update computes.
	scratchSig Signature

	lastDirty  int
	lastUpdate time.Duration
}

// New creates an empty index over the two signature stores. Call Update
// once to perform the initial build. p.NumBuckets must be in [1, 2^32]
// (Params.Normalize).
func New(storeE, storeI *history.Store, p Params) *Index {
	x := &Index{
		rows:       int64(RowsPerBand(p.Threshold)),
		numBuckets: uint64(p.NumBuckets),
	}
	x.sides[SideE].store = storeE
	x.sides[SideI].store = storeI
	return x
}

// Update brings the index up to date with its stores. dirtyE and dirtyI
// name, by ordinal, the entities whose histories changed since the
// previous Update: it re-signs every reported entity with a history; the
// caller reports what it changed, as Linker.AddE/AddI do. An entity left
// unreported keeps its old band keys, so a pair with no re-signed endpoint
// is a candidate exactly when it was before, and the candidate pairs of
// the re-signed entities (AppendPairs) are the only ones that can have
// changed. The first call signs every entity of both stores, fanned out
// over Workers, and ignores them.
func (x *Index) Update(dirtyE, dirtyI map[uint32]struct{}) {
	start := time.Now()
	if !x.built {
		x.built = true
		x.lastDirty = x.fill(SideE) + x.fill(SideI)
		eachKey(&x.sides[SideE].post, &x.sides[SideI].post, func(bandKey) { x.buckets++ })
		x.numPairs = x.countAll()
	} else {
		x.apply(dirtyE, dirtyI)
	}
	x.lastUpdate = time.Since(start)
}

// apply re-signs the reported entities and reposts them. Only a pair with
// an endpoint whose keys moved (it left or entered one) can have entered
// or left the set, so the count moves by how many pairs those entities
// have under their new keys in the new postings less how many they had
// under their old keys in the old postings: the same walk, before the
// reposts and after the commits.
func (x *Index) apply(dirtyE, dirtyI map[uint32]struct{}) {
	re := [2]signing{x.resign(SideE, dirtyE), x.resign(SideI, dirtyI)}
	x.lastDirty = len(re[SideE].ords) + len(re[SideI].ords)
	before := x.countMoved(&re)
	for side := range x.sides {
		x.buckets += x.sides[side].repost(&re[side], &x.sides[1-side].post)
	}
	x.sides[SideE].commit(&re[SideE])
	x.sides[SideI].commit(&re[SideI])
	x.numPairs += x.countMoved(&re) - before
}

// countMoved counts the candidate pairs with an endpoint among the moved
// entities of re, under the keys and postings the sides hold now. A pair
// with a moved endpoint on both sides counts on the E side alone.
func (x *Index) countMoved(re *[2]signing) int64 {
	var n int64
	var pairs []uint64
	for side := range x.sides {
		g := &re[side]
		for k, ord := range g.ords {
			if !g.moved(k) {
				continue
			}
			pairs = x.AppendPairs(pairs[:0], side, ord)
			for _, p := range pairs {
				if u, _ := Ends(p); side == SideE || !re[SideE].movedOrd(u) {
					n++
				}
			}
		}
	}
	return n
}

// countAll counts the candidate set: every E ordinal's pairs, the walk
// fanned out over contiguous ordinal ranges across x.Workers, each worker
// counting its range locally and writing its count once.
func (x *Index) countAll() int64 {
	counts := make([]int64, max(1, x.Workers))
	par.Chunks(x.Workers, len(x.sides[SideE].spans), func(w, lo, hi int) {
		var n int64
		var pairs []uint64
		for u := lo; u < hi; u++ {
			pairs = x.AppendPairs(pairs[:0], SideE, uint32(u))
			n += int64(len(pairs))
		}
		counts[w] = n
	})
	var n int64
	for _, c := range counts {
		n += c
	}
	return n
}

// resign signs one side's reported entities that have a history,
// ordinals ascending.
func (x *Index) resign(side int, dirty map[uint32]struct{}) signing {
	s := &x.sides[side]
	var g signing
	for ord := range dirty {
		if h := s.store.HistoryAt(ord); h.NumBins() > 0 {
			g.ords = append(g.ords, ord)
		}
	}
	if len(g.ords) == 0 {
		return g
	}
	slices.Sort(g.ords)
	s.cover(int(g.ords[len(g.ords)-1]) + 1)
	for k, ord := range g.ords {
		x.scratchSig = AppendSignature(x.scratchSig, s.store.HistoryAt(ord))
		at, left, entered := len(g.next.keys), len(g.left.keys), len(g.entered.keys)
		g.next.keys = appendBands(g.next.keys, x.scratchSig, x.rows, x.numBuckets)
		g.next.seal(at)
		// Both key lists ascend by band, one key a band: one merge walk
		// splits off the keys that changed.
		old, cur := s.bandsOf(ord), g.next.at(k)
		for i, j := 0, 0; i < len(old) || j < len(cur); {
			switch {
			case j == len(cur) || i < len(old) && old[i].band < cur[j].band:
				g.left.keys = append(g.left.keys, old[i])
				i++
			case i == len(old) || cur[j].band < old[i].band:
				g.entered.keys = append(g.entered.keys, cur[j])
				j++
			default:
				if old[i] != cur[j] {
					g.left.keys = append(g.left.keys, old[i])
					g.entered.keys = append(g.entered.keys, cur[j])
				}
				i, j = i+1, j+1
			}
		}
		g.left.seal(left)
		g.entered.seal(entered)
	}
	return g
}

// AppendPairs appends to dst the candidate pairs of one entity of the
// given side (SideE or SideI) under its current band keys, as packed pairs
// (Key), ascending and each once: its bucket mates in the opposite side's
// postings. An unsigned or unassigned ordinal has none. It is the one
// question the index answers about the candidate set; summed over every E
// ordinal it is the O(Σ|bucket_E|·|bucket_I|) walk of the batch path.
func (x *Index) AppendPairs(dst []uint64, side int, ord uint32) []uint64 {
	at := len(dst)
	other := &x.sides[1-side].post
	for _, key := range x.sides[side].bandsOf(ord) {
		for _, e := range other.run(key) {
			dst = append(dst, pairKey(side, ord, uint32(e)))
		}
	}
	slices.Sort(dst[at:])
	return dst[:at+len(slices.Compact(dst[at:]))]
}

// fill signs every entity of one side and lays out its postings, returning
// how many it signed. Signatures and band keys are per-entity work over
// read-only histories and fan out over x.Workers in two passes (count the
// keys, then write them into one exactly sized column).
func (x *Index) fill(side int) int {
	s := &x.sides[side]
	n := s.store.Ordinals().Len()
	s.cover(n)
	par.Chunks(x.Workers, n, func(_, lo, hi int) {
		var sig Signature
		for ord := lo; ord < hi; ord++ {
			sig = AppendSignature(sig, s.store.HistoryAt(uint32(ord)))
			s.spans[ord].n = int32(countBands(sig, x.rows))
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
			sig = AppendSignature(sig, h)
			sp := s.spans[ord]
			appendBands(s.keys[sp.at:sp.at:sp.at+sp.n], sig, x.rows, x.numBuckets) // fills the range in place
		}
	})
	s.post = buildPostings(s.keyset, func(k int) uint32 { return uint32(k) }, x.Workers)
	for _, sp := range s.spans {
		if sp.n > 0 {
			s.numSigs++
		}
	}
	return s.numSigs
}

// NumCandidates returns the size of the candidate set.
func (x *Index) NumCandidates() int64 { return x.numPairs }

// Stats returns an observability snapshot of the index.
func (x *Index) Stats() Stats {
	st := Stats{
		Rows:          int(x.rows),
		NumBuckets:    int(x.numBuckets),
		SignaturesE:   x.sides[SideE].numSigs,
		SignaturesI:   x.sides[SideI].numSigs,
		Buckets:       x.buckets,
		Memberships:   len(x.sides[SideE].post.entries) + len(x.sides[SideI].post.entries),
		Candidates:    x.numPairs,
		ResidentBytes: x.residentBytes(),
		LastDirty:     x.lastDirty,
		LastUpdate:    x.lastUpdate,
	}
	if st.Buckets > 0 {
		st.Occupancy = float64(st.Memberships) / float64(st.Buckets)
	}
	return st
}

// residentBytes sums the capacities of everything the index retains.
func (x *Index) residentBytes() int64 {
	n := int(unsafe.Sizeof(Row{})) * cap(x.scratchSig)
	for side := range x.sides {
		s := &x.sides[side]
		n += int(unsafe.Sizeof(span{}))*cap(s.spans) +
			int(unsafe.Sizeof(bandKey{}))*cap(s.keys) +
			8*cap(s.post.bands) + 4*cap(s.post.starts) + 8*cap(s.post.entries)
	}
	return int64(n)
}
