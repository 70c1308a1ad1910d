// Package matching implements the maximum-sum bipartite matching step of
// SLIM's final linkage (Sec. 3.2): the paper's greedy heuristic, from
// scratch (Greedy) and maintained across edge deltas (Incremental).
package matching

import (
	"slices"
	"sync"

	"slim/internal/model"
)

// Edge is a scored pair of entity ids, one from dataset E and one from
// dataset I. It is the one declaration of a link: slim.Link is this type,
// the edge store, the matcher and the publish tail hand the same values
// on, and the json tags are its keys on /v1/links.
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
	slices.SortFunc(sorted, cmpGreedy)
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
