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
// ingest, Pairs() names exactly the pairs of a from-scratch batch
// enumeration keyed by entity id (the parity suite's oracle, which shares
// only the banding primitives with the index). It holds by
// definition rather than by bookkeeping: a pair is a candidate iff its two
// entities' maintained band keys agree in some band (sharesBand) — the
// batch path's "share a bucket in at least one band" — and nothing is
// stored per pair that could drift from that. The pair list is enumerated
// from the postings, which hold an entity under exactly its current band
// keys; a delta update reads the definition off the keys of both
// endpoints for every pair it re-examines (see apply).
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
	// ResidentBytes is what the index's columns and its cached pair list
	// hold, summed from their capacities.
	ResidentBytes int64 `json:"resident_bytes"`
	// LastDirty is how many entity signatures the last Update recomputed;
	// LastUpdate is its wall-clock duration.
	LastDirty  int           `json:"dirty_entities_last"`
	LastUpdate time.Duration `json:"last_update_ms"`
}

// Delta reports how one Update changed the candidate set, in the exact
// set-difference sense: Added/Removed are the pairs that entered/left the
// set (Pairs() after == Pairs() before − Removed + Added; the first Update
// starts from the empty set), and Dirty are the pairs that stayed
// candidates but have at least one endpoint re-signed this Update — i.e.
// an endpoint the caller reported as changed, so any score derived from
// the pair is stale. The three slices hold packed pairs (Key), are
// disjoint and sorted ascending; callers may retain them but must not
// modify them.
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

// The two sides of a pair: a side indexes Index.sides.
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
	// and leaves the range dead; live counts the keys in use, and a column
	// more than half dead is rewritten compactly (setBands).
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
// not safe for concurrent use; callers serialize Update/Pairs/Stats like
// any other linker mutation.
type Index struct {
	// Workers bounds the goroutines of the first Update's signature pass
	// and postings sorts and of every pair enumeration (below 1 means 1).
	// The index is identical for every value.
	Workers int

	rows       int64 // r, rows per band
	numBuckets uint64
	built      bool

	sides [2]sideState
	// buckets counts the keys held on either side.
	buckets int

	// The candidate set is not stored: it is the pairs that collide (see
	// sharesBand). numPairs is its size, kept exact by every delta; pairs
	// caches its ascending enumeration, nil once the set has changed.
	numPairs int64
	pairs    []uint64

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
	x.sides[sideE].store = storeE
	x.sides[sideI].store = storeI
	return x
}

// Update brings the index up to date with its stores and returns the
// exact Delta of the candidate set (see Delta). dirtyE and dirtyI name, by
// ordinal, the entities whose histories changed since the previous Update:
// it re-signs every reported entity with a history; the caller reports
// what it changed, as Linker.AddE/AddI do. An entity left unreported keeps
// its old band keys. The first call signs every entity of both stores,
// fanned out over Workers, and ignores them; its Delta adds the whole
// candidate set.
func (x *Index) Update(dirtyE, dirtyI map[uint32]struct{}) Delta {
	start := time.Now()
	var d Delta
	if !x.built {
		x.built = true
		x.lastDirty = x.fill(sideE) + x.fill(sideI)
		eachKey(&x.sides[sideE].post, &x.sides[sideI].post, func(bandKey) { x.buckets++ })
		x.pairs = x.enumerate()
		x.numPairs = int64(len(x.pairs))
		d.Added = x.pairs
	} else {
		d = x.apply(dirtyE, dirtyI)
	}
	x.lastUpdate = time.Since(start)
	return d
}

// apply re-signs the reported entities and returns the Delta. A pair can
// only have entered, left or gone stale through a re-signed endpoint. If
// it collides after the Update, it shares one of that endpoint's new keys
// in the new postings: those partners are Dirty if the pair collided
// under the old keys of both endpoints, else Added. If it collided before
// and no longer does, one endpoint left the key they shared, in the old
// postings: those partners not found the first way are Removed. The lists
// are the exact set difference by construction; a pair whose two
// endpoints both moved is judged on where it started and where it ended,
// and one that keeps a band while another changes is Dirty and leaves the
// cached pair list alone.
func (x *Index) apply(dirtyE, dirtyI map[uint32]struct{}) Delta {
	re := [2]signing{x.resign(sideE, dirtyE), x.resign(sideI, dirtyI)}
	x.lastDirty = len(re[sideE].ords) + len(re[sideI].ords)
	var left, after []uint64
	for side := range x.sides {
		left = x.appendPartners(left, side, &re[side], &re[side].left)
	}
	for side := range x.sides {
		x.buckets += x.sides[side].repost(&re[side], &x.sides[1-side].post)
	}
	for side := range x.sides {
		after = x.appendPartners(after, side, &re[side], &re[side].next)
	}
	slices.Sort(left)
	slices.Sort(after)
	left, after = slices.Compact(left), slices.Compact(after)

	// Where no entity entered a key, a pair that collides now collided
	// before.
	entered := len(re[sideE].entered.keys)+len(re[sideI].entered.keys) > 0
	var d Delta
	se, si := &x.sides[sideE], &x.sides[sideI]
	for _, p := range after {
		if u, v := Ends(p); !entered || sharesBand(se.bandsOf(u), si.bandsOf(v)) {
			d.Dirty = append(d.Dirty, p)
		} else {
			d.Added = append(d.Added, p)
		}
	}
	for _, p := range left {
		if _, collides := slices.BinarySearch(after, p); !collides {
			d.Removed = append(d.Removed, p)
		}
	}
	if len(d.Added)+len(d.Removed) > 0 {
		x.numPairs += int64(len(d.Added) - len(d.Removed))
		x.pairs = nil
	}
	se.commit(&re[sideE])
	si.commit(&re[sideI])
	return d
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

// appendPartners appends a pair for every entity a signing of the given
// side re-signed and every member of the buckets of its keys in ks in the
// opposite side's postings.
func (x *Index) appendPartners(dst []uint64, side int, g *signing, ks *keyset) []uint64 {
	other := &x.sides[1-side].post
	for k, ord := range g.ords {
		for _, key := range ks.at(k) {
			for _, e := range other.run(key) {
				dst = append(dst, pairKey(side, ord, uint32(e)))
			}
		}
	}
	return dst
}

// enumerate lists the candidate set in ascending order from the postings:
// per E ordinal, the distinct I members of its keys' buckets — the same
// O(Σ|bucket_E|·|bucket_I|) walk the batch path performs. Two passes over
// contiguous ordinal ranges across x.Workers (count, prefix offsets, write)
// fill one exactly sized slice; an ordinal's keys are sorted where they
// land and the ranges ascend, so the slice does.
func (x *Index) enumerate() []uint64 {
	se, postI := &x.sides[sideE], &x.sides[sideI].post
	nE, nI := len(se.spans), len(x.sides[sideI].spans)
	walk := func(visit func(u uint32, partners []uint32)) {
		par.Chunks(x.Workers, nE, func(_, lo, hi int) {
			// stamp[v] == u+1 marks v as already listed for u.
			stamp, partners := make([]uint32, nI), []uint32(nil)
			for u := uint32(lo); u < uint32(hi); u++ {
				partners = partners[:0]
				for _, key := range se.bandsOf(u) {
					for _, e := range postI.run(key) {
						if v := uint32(e); stamp[v] != u+1 {
							stamp[v] = u + 1
							partners = append(partners, v)
						}
					}
				}
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

// fill signs every entity of one side and lays out its postings, returning
// how many it signed. Signatures and band keys are per-entity work over
// read-only histories and fan out over x.Workers in two passes (count the
// keys, then write them into one exactly sized column).
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
		Rows:          int(x.rows),
		NumBuckets:    int(x.numBuckets),
		SignaturesE:   x.sides[sideE].numSigs,
		SignaturesI:   x.sides[sideI].numSigs,
		Buckets:       x.buckets,
		Memberships:   len(x.sides[sideE].post.entries) + len(x.sides[sideI].post.entries),
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
	n := 8*cap(x.pairs) + int(unsafe.Sizeof(Row{}))*cap(x.scratchSig)
	for side := range x.sides {
		s := &x.sides[side]
		n += int(unsafe.Sizeof(span{}))*cap(s.spans) +
			int(unsafe.Sizeof(bandKey{}))*cap(s.keys) +
			8*cap(s.post.bands) + 4*cap(s.post.starts) + 8*cap(s.post.entries)
	}
	return int64(n)
}
