// Package matching implements the maximum-sum bipartite matching step of
// SLIM's final linkage (Sec. 3.2): the paper's greedy heuristic. Greedy is
// the from-scratch reference: slim's edge store keeps its edges in the
// same order (Compare) and walks them the same way on every publish.
package matching

import (
	"slices"
	"sync"

	"slim/internal/model"
)

// Edge is a scored pair of entity ids, one from dataset E and one from
// dataset I. It is the one declaration of a link: slim.Link is this type,
// the edge store and the matcher hand the same values on, and the json
// tags are its keys on /v1/links.
type Edge struct {
	U     model.EntityID `json:"u"`     // entity from the first dataset
	V     model.EntityID `json:"v"`     // entity from the second dataset
	Score float64        `json:"score"` // similarity score
}

// greedyScratch pools the dense used-sets of Greedy so a from-scratch
// matching pays no per-call map allocations.
var greedyScratch = sync.Pool{New: func() any { return new(struct{ u, v denseSet }) }}

// Greedy performs the paper's greedy maximum-sum matching: repeatedly link
// the highest-weight remaining edge whose endpoints are both unmatched.
// Ties are broken by (U, V) id order so the result is deterministic. The
// input slice is not modified. The returned edges are freshly allocated
// and sorted by descending weight.
func Greedy(edges []Edge) []Edge {
	sorted := slices.Clone(edges)
	slices.SortFunc(sorted, Compare)
	s := greedyScratch.Get().(*struct{ u, v denseSet })
	s.u.clear()
	s.v.clear()
	// Matched size is bounded by the smaller endpoint set; len/4 matches
	// the density heuristic of the scoring fan-out's result slots.
	out := make([]Edge, 0, len(sorted)/4+4)
	for _, e := range sorted {
		ui := s.u.intern(e.U)
		vi := s.v.intern(e.V)
		if s.u.has(ui) || s.v.has(vi) {
			continue
		}
		s.u.set(ui)
		s.v.set(vi)
		out = append(out, e)
	}
	greedyScratch.Put(s)
	return out
}

// FilterThreshold returns the edges scoring strictly above thr, preserving
// order (nil when there are none).
func FilterThreshold(edges []Edge, thr float64) []Edge {
	var out []Edge
	for _, e := range edges {
		if e.Score > thr {
			out = append(out, e)
		}
	}
	return out
}

// validScratch pools the id scratch slices of Valid so parity gates can
// call it in hot loops without per-call allocations.
var validScratch = sync.Pool{New: func() any { return new([]model.EntityID) }}

// Valid reports whether the edge set is a matching: no entity appears on
// more than one edge (per side). Allocation-free: duplicate detection is
// sort + adjacent-scan over a pooled scratch slice rather than map
// membership.
func Valid(edges []Edge) bool {
	if len(edges) < 2 {
		return true
	}
	p := validScratch.Get().(*[]model.EntityID)
	ids := (*p)[:0]
	ok := true
	for side := 0; side < 2 && ok; side++ {
		ids = ids[:0]
		for _, e := range edges {
			if side == 0 {
				ids = append(ids, e.U)
			} else {
				ids = append(ids, e.V)
			}
		}
		slices.Sort(ids)
		for i := 1; i < len(ids); i++ {
			if ids[i] == ids[i-1] {
				ok = false
				break
			}
		}
	}
	*p = ids
	validScratch.Put(p)
	return ok
}

// Compare is the total greedy scan order: descending weight, ties
// broken by ascending (U, V). Two distinct edges never compare equal —
// an edge set holds each (U, V) pair at most once — so the order is
// unique regardless of sort stability, which is what makes the greedy
// outcome a pure function of the edge SET.
func Compare(a, b Edge) int {
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
