package matching

import (
	"slices"

	"slim/internal/model"
)

// cmpGreedy is the total greedy scan order: descending weight, ties
// broken by ascending (U, V). Two distinct edges never compare equal —
// an edge set holds each (U, V) pair at most once — so the order is
// unique regardless of sort stability, which is what makes the greedy
// outcome a pure function of the edge SET (and the incremental matcher's
// prefix reuse sound).
func cmpGreedy(a, b Edge) int {
	if a.Score != b.Score {
		if a.Score > b.Score {
			return -1
		}
		return 1
	}
	if a.U != b.U {
		if a.U < b.U {
			return -1
		}
		return 1
	}
	if a.V < b.V {
		return -1
	}
	if a.V > b.V {
		return 1
	}
	return 0
}

// denseSet is an interned entity-id bitset: ids are assigned dense int
// indices on first sight (append-only across runs, in the style of the
// compiled-history cell interner) and membership is one bit, so clearing
// a used-set between greedy walks is a word-wise memclr instead of a
// fresh map[EntityID]bool allocation.
type denseSet struct {
	idx  map[model.EntityID]int32
	bits []uint64
}

// intern returns the dense index of id, assigning the next free one on
// first sight.
func (s *denseSet) intern(id model.EntityID) int {
	i, ok := s.idx[id]
	if !ok {
		if s.idx == nil {
			s.idx = make(map[model.EntityID]int32)
		}
		i = int32(len(s.idx))
		s.idx[id] = i
	}
	return int(i)
}

// clear resets membership without forgetting interned ids.
func (s *denseSet) clear() {
	clear(s.bits)
}

// has reports membership of dense index i.
func (s *denseSet) has(i int) bool {
	w := i >> 6
	if w >= len(s.bits) {
		return false
	}
	return s.bits[w]&(1<<(uint(i)&63)) != 0
}

// set marks dense index i, growing the bit array as the interner grows.
func (s *denseSet) set(i int) {
	w := i >> 6
	for w >= len(s.bits) {
		s.bits = append(s.bits, 0)
	}
	s.bits[w] |= 1 << (uint(i) & 63)
}

// IncrementalStats describes an Incremental matcher's state and the work
// profile of its most recent update. ReusedPrefix vs SuffixWalked is the
// headline: reused matched edges were adopted verbatim from the previous
// run without touching the used-sets or the edge order above them. The
// json tags are its keys in /v1/stats' publish_tail block (slim's
// PublishTailStats embeds it).
type IncrementalStats struct {
	// Edges is the size of the maintained sorted edge list.
	Edges int `json:"edges"`
	// Matched is the size of the current greedy matching.
	Matched int `json:"matched"`
	// ReusedPrefix is how many matched edges the last update reused
	// verbatim; SuffixWalked is how many sorted-order entries it
	// re-walked below the first changed position.
	ReusedPrefix int `json:"reused_prefix_len"`
	SuffixWalked int `json:"suffix_walked"`
	// Rebuilds counts full sort+walk rebuilds (first build, epoch
	// invalidations, inconsistent deltas); Applies counts delta updates.
	Rebuilds uint64 `json:"full_rebuilds_total"`
	Applies  uint64 `json:"applies_total"`
}

// Incremental maintains the greedy maximum-sum matching of an edge set
// across delta updates. The greedy outcome is a deterministic function of
// the edges in cmpGreedy order: scanning from the top, an edge is matched
// iff both endpoints are unused, and the used-sets after scanning any
// prefix depend only on that prefix. So when a delta touches the order no
// higher than position b, every decision above b is reusable verbatim —
// identical prefix ⇒ identical used-sets ⇒ identical decisions — and only
// the suffix [b:] needs re-walking, against used-sets reseeded from the
// reused matched prefix. Apply is O(delta·log delta) sort + one linear
// splice of the order + the suffix walk; a from-scratch Greedy pays the
// full O(n log n) sort and a whole-order walk with fresh map used-sets.
//
// The result is bit-identical to Greedy over the same edge set: both
// walks visit the same unique order with the same used-set semantics.
// The zero value is ready to use; not safe for concurrent use.
type Incremental struct {
	built bool
	// order is the maintained edge list in cmpGreedy order; scratch is
	// the double buffer Apply splices into (the two swap every apply).
	order   []Edge
	scratch []Edge
	// matched is the greedy matching over order. It is returned to callers
	// — the publish tail hands this very slice out as the published links —
	// and is never written again once returned: every update allocates a
	// fresh slice unless the matching is provably unchanged. matchedPos[k] is
	// the position in order that produced matched[k]; it is strictly
	// increasing, so the reusable prefix for a boundary b is found by
	// binary search.
	matched    []Edge
	matchedPos []int
	u, v       denseSet

	lastReused, lastWalked int
	rebuilds, applies      uint64
}

// Rebuild replaces the maintained state with a from-scratch sort and
// greedy walk over edges. The input is adopted, not copied: the matcher
// sorts it in place and keeps it as its order, so the caller must not
// touch it again. It returns the matching, sorted by descending weight;
// callers may retain it.
func (m *Incremental) Rebuild(edges []Edge) []Edge {
	m.order = edges
	slices.SortFunc(m.order, cmpGreedy)
	m.built = true
	m.rebuilds++
	return m.walk(0, 0)
}

// Apply folds one delta into the maintained order and returns the
// updated matching. remove must name edges currently present (exact U,
// V, Score — score changes are a remove of the old value plus an insert of
// the new); insert must name pairs absent after the removals. Both
// slices are sorted in place. ok is false when the delta is inconsistent
// with the maintained state (or Rebuild was never called): the matcher
// state is left unchanged and the caller must Rebuild from the full edge
// set.
func (m *Incremental) Apply(remove, insert []Edge) (matched []Edge, ok bool) {
	if !m.built {
		return nil, false
	}
	slices.SortFunc(remove, cmpGreedy)
	slices.SortFunc(insert, cmpGreedy)

	// Splice the sorted delta into the sorted order in one linear merge,
	// tracking b — the first output position where the new order diverges
	// from the old one. Everything above b is untouched by construction.
	out := m.scratch[:0]
	b := -1
	i, r, a := 0, 0, 0
	for i < len(m.order) {
		if r < len(remove) {
			c := cmpGreedy(remove[r], m.order[i])
			if c < 0 {
				return nil, false // removal names an edge not in the order
			}
			if c == 0 {
				if b < 0 {
					b = len(out)
				}
				r++
				i++
				continue
			}
		}
		if a < len(insert) {
			c := cmpGreedy(insert[a], m.order[i])
			if c == 0 {
				return nil, false // insert duplicates a retained pair
			}
			if c < 0 {
				if b < 0 {
					b = len(out)
				}
				out = append(out, insert[a])
				a++
				continue
			}
		}
		out = append(out, m.order[i])
		i++
	}
	if r < len(remove) {
		return nil, false // removal past the end of the order
	}
	if a < len(insert) && b < 0 {
		b = len(out)
	}
	out = append(out, insert[a:]...)

	m.scratch = m.order[:0]
	m.order = out
	m.applies++
	if b < 0 {
		// Empty delta: the order — and therefore the matching — is
		// unchanged.
		m.lastReused = len(m.matched)
		m.lastWalked = 0
		return m.matched, true
	}
	keep, _ := slices.BinarySearch(m.matchedPos, b)
	return m.walk(b, keep), true
}

// walk re-runs the greedy scan over order[from:], reusing matched[:keep]
// verbatim (every reused edge came from a position < from). The used-set
// state at position from is exactly the endpoints of the reused prefix,
// so the suffix decisions match a from-scratch walk bit for bit.
func (m *Incremental) walk(from, keep int) []Edge {
	m.u.clear()
	m.v.clear()
	capHint := len(m.matched)
	if capHint < keep {
		capHint = keep
	}
	out := make([]Edge, keep, capHint+8)
	copy(out, m.matched[:keep])
	m.matchedPos = m.matchedPos[:keep]
	for _, e := range out {
		m.u.set(m.u.intern(e.U))
		m.v.set(m.v.intern(e.V))
	}
	for k := from; k < len(m.order); k++ {
		e := m.order[k]
		ui := m.u.intern(e.U)
		vi := m.v.intern(e.V)
		if m.u.has(ui) || m.v.has(vi) {
			continue
		}
		m.u.set(ui)
		m.v.set(vi)
		out = append(out, e)
		m.matchedPos = append(m.matchedPos, k)
	}
	m.lastReused = keep
	m.lastWalked = len(m.order) - from
	// Callers retain the result: clip it so an append on their side cannot
	// reach memory another holder sees.
	m.matched = slices.Clip(out)
	return m.matched
}

// Len returns the size of the maintained edge list.
func (m *Incremental) Len() int { return len(m.order) }

// Stats returns the matcher's state and last-update work profile.
func (m *Incremental) Stats() IncrementalStats {
	return IncrementalStats{
		Edges:        len(m.order),
		Matched:      len(m.matched),
		ReusedPrefix: m.lastReused,
		SuffixWalked: m.lastWalked,
		Rebuilds:     m.rebuilds,
		Applies:      m.applies,
	}
}
