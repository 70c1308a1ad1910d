package matching

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"slim/internal/model"
)

// edgeKey identifies an edge by its pair (each pair appears at most once
// in an edge set).
type edgeKey struct{ u, v model.EntityID }

// edgeSet is the reference model the incremental matcher is checked
// against: a plain pair→weight map, matched from scratch with Greedy.
type edgeSet map[edgeKey]float64

func (s edgeSet) slice() []Edge {
	out := make([]Edge, 0, len(s))
	for k, w := range s {
		out = append(out, Edge{U: k.u, V: k.v, Score: w})
	}
	return out
}

// requireSameMatching fails unless got and want are identical edge for
// edge, weights compared bitwise.
func requireSameMatching(t *testing.T, got, want []Edge) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("matching size mismatch: got %d want %d\ngot:  %v\nwant: %v", len(got), len(want), got, want)
	}
	for i := range got {
		if got[i].U != want[i].U || got[i].V != want[i].V ||
			math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			t.Fatalf("matching diverges at %d: got %+v want %+v", i, got[i], want[i])
		}
	}
}

// quantWeight returns a weight from a small quantized palette, so equal
// weights — including equal weights at the reuse boundary — occur
// constantly and tie-breaking is exercised on every delta.
func quantWeight(rng *rand.Rand) float64 {
	return float64(1+rng.Intn(8)) / 8
}

func entity(side string, i int) model.EntityID {
	return model.EntityID(fmt.Sprintf("%s%03d", side, i))
}

// TestIncrementalMatchesGreedyRandomized drives an Incremental matcher
// through random delta bursts over a heavily tied weight distribution and
// checks every matching against a from-scratch Greedy over the same edge
// set. Quantized weights force ties at reuse boundaries, and the small
// entity universe forces same-U/same-V cascades (one changed edge
// flipping a chain of downstream decisions).
func TestIncrementalMatchesGreedyRandomized(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			nU, nV := 24, 20
			set := edgeSet{}
			for i := 0; i < 160; i++ {
				k := edgeKey{entity("u", rng.Intn(nU)), entity("v", rng.Intn(nV))}
				set[k] = quantWeight(rng)
			}
			var m Incremental
			got := m.Rebuild(set.slice())
			requireSameMatching(t, got, Greedy(set.slice()))

			keys := make([]edgeKey, 0, len(set))
			for burst := 0; burst < 60; burst++ {
				keys = keys[:0]
				for k := range set {
					keys = append(keys, k)
				}
				slices.SortFunc(keys, func(a, b edgeKey) int {
					if a.u != b.u {
						if a.u < b.u {
							return -1
						}
						return 1
					}
					if a.v < b.v {
						return -1
					}
					if a.v > b.v {
						return 1
					}
					return 0
				})
				var remove, insert []Edge
				// Weight changes on existing pairs (remove old + insert new);
				// touch each pair at most once per burst so the delta stays
				// consistent.
				for i := 0; i < 1+rng.Intn(4); i++ {
					k := keys[rng.Intn(len(keys))]
					old := set[k]
					nw := quantWeight(rng)
					if nw == old || slices.ContainsFunc(remove, func(e Edge) bool { return e.U == k.u && e.V == k.v }) {
						continue
					}
					remove = append(remove, Edge{U: k.u, V: k.v, Score: old})
					insert = append(insert, Edge{U: k.u, V: k.v, Score: nw})
					set[k] = nw
				}
				// Pure removals.
				for i := 0; i < rng.Intn(3); i++ {
					k := keys[rng.Intn(len(keys))]
					if w, ok := set[k]; ok {
						if slices.ContainsFunc(remove, func(e Edge) bool { return e.U == k.u && e.V == k.v }) {
							continue
						}
						remove = append(remove, Edge{U: k.u, V: k.v, Score: w})
						delete(set, k)
					}
				}
				// Pure inserts (fresh pairs only).
				for i := 0; i < rng.Intn(4); i++ {
					k := edgeKey{entity("u", rng.Intn(nU)), entity("v", rng.Intn(nV))}
					if _, ok := set[k]; ok {
						continue
					}
					if slices.ContainsFunc(insert, func(e Edge) bool { return e.U == k.u && e.V == k.v }) {
						continue
					}
					w := quantWeight(rng)
					insert = append(insert, Edge{U: k.u, V: k.v, Score: w})
					set[k] = w
				}
				got, ok := m.Apply(remove, insert)
				if !ok {
					t.Fatalf("burst %d: Apply rejected a consistent delta (remove=%v insert=%v)", burst, remove, insert)
				}
				requireSameMatching(t, got, Greedy(set.slice()))
				if !Valid(got) {
					t.Fatalf("burst %d: incremental output is not a matching", burst)
				}
			}
			st := m.Stats()
			if st.Applies == 0 {
				t.Fatalf("no delta applies recorded: %+v", st)
			}
		})
	}
}

// TestIncrementalRemovesMatchedEdgeHighInOrder removes the top matched
// edge — the worst case for reuse: the entire suffix below it re-walks
// and its endpoints cascade into different downstream decisions.
func TestIncrementalRemovesMatchedEdgeHighInOrder(t *testing.T) {
	edges := []Edge{
		{U: "u1", V: "v1", Score: 0.9},
		{U: "u1", V: "v2", Score: 0.8},
		{U: "u2", V: "v1", Score: 0.7},
		{U: "u2", V: "v2", Score: 0.6},
		{U: "u3", V: "v3", Score: 0.5},
	}
	var m Incremental
	got := m.Rebuild(slices.Clone(edges))
	requireSameMatching(t, got, Greedy(edges))
	if got[0].Score != 0.9 {
		t.Fatalf("expected top edge matched first, got %+v", got[0])
	}

	// Removing (u1, v1) frees both endpoints: u1 falls to v2, which evicts
	// u2 from v2 back onto v1 — a same-U/same-V cascade through the whole
	// order.
	after := []Edge{edges[1], edges[2], edges[4]}
	want := Greedy(append(append([]Edge(nil), after...), edges[3]))
	got, ok := m.Apply([]Edge{{U: "u1", V: "v1", Score: 0.9}}, nil)
	if !ok {
		t.Fatal("Apply rejected a consistent removal")
	}
	requireSameMatching(t, got, want)
	st := m.Stats()
	if st.ReusedPrefix != 0 {
		t.Fatalf("removal of the top edge must reuse nothing, got ReusedPrefix=%d", st.ReusedPrefix)
	}
}

// TestIncrementalTiesAtReuseBoundary plants a block of equal-weight edges
// and perturbs inside it, so the reuse boundary lands amid ties and the
// (U, V) tie-break must keep incremental and from-scratch walks aligned.
func TestIncrementalTiesAtReuseBoundary(t *testing.T) {
	set := edgeSet{}
	// High block: distinct weights, untouched (the reusable prefix).
	for i := 0; i < 6; i++ {
		set[edgeKey{entity("u", i), entity("v", i)}] = 0.9 + float64(i)/1000
	}
	// Tied block: every edge weight 0.5, dense same-U/same-V conflicts.
	for i := 0; i < 8; i++ {
		for j := 0; j < 3; j++ {
			set[edgeKey{entity("u", 10+i), entity("v", 10+(i+j)%8)}] = 0.5
		}
	}
	var m Incremental
	requireSameMatching(t, m.Rebuild(set.slice()), Greedy(set.slice()))

	// Remove one tied edge that is in the matching (the (U, V)-smallest
	// tied edge always is: everything before it in the order has distinct
	// higher weights on disjoint endpoints).
	k := edgeKey{entity("u", 10), entity("v", 10)}
	delete(set, k)
	got, ok := m.Apply([]Edge{{U: k.u, V: k.v, Score: 0.5}}, nil)
	if !ok {
		t.Fatal("Apply rejected a consistent removal")
	}
	requireSameMatching(t, got, Greedy(set.slice()))
	st := m.Stats()
	if st.ReusedPrefix != 6 {
		t.Fatalf("expected the 6 high-block matches reused, got %d", st.ReusedPrefix)
	}

	// Insert a new edge tied at 0.5 that sorts into the middle of the tied
	// block; the boundary is the insertion point, amid equal weights.
	k = edgeKey{entity("u", 14), entity("v", 19)}
	set[k] = 0.5
	got, ok = m.Apply(nil, []Edge{{U: k.u, V: k.v, Score: 0.5}})
	if !ok {
		t.Fatal("Apply rejected a consistent insert")
	}
	requireSameMatching(t, got, Greedy(set.slice()))
}

// TestIncrementalApplyRejectsInconsistentDeltas exercises the full-
// rebuild fallback contract: removals naming absent edges (wrong pair or
// wrong weight) and inserts duplicating retained pairs must be rejected
// with the state unchanged.
func TestIncrementalApplyRejectsInconsistentDeltas(t *testing.T) {
	edges := []Edge{{U: "u1", V: "v1", Score: 0.9}, {U: "u2", V: "v2", Score: 0.5}}
	var m Incremental
	m.Rebuild(slices.Clone(edges))

	if _, ok := m.Apply([]Edge{{U: "u9", V: "v9", Score: 0.4}}, nil); ok {
		t.Fatal("Apply accepted a removal of an absent pair")
	}
	if _, ok := m.Apply([]Edge{{U: "u1", V: "v1", Score: 0.8}}, nil); ok {
		t.Fatal("Apply accepted a removal with the wrong weight")
	}
	if _, ok := m.Apply(nil, []Edge{{U: "u2", V: "v2", Score: 0.5}}); ok {
		t.Fatal("Apply accepted an insert duplicating a retained pair")
	}
	// State must be intact after the rejections.
	got, ok := m.Apply(nil, []Edge{{U: "u3", V: "v3", Score: 0.7}})
	if !ok {
		t.Fatal("Apply rejected a consistent insert after failed deltas")
	}
	want := Greedy([]Edge{edges[0], edges[1], {U: "u3", V: "v3", Score: 0.7}})
	requireSameMatching(t, got, want)

	var unbuilt Incremental
	if _, ok := unbuilt.Apply(nil, []Edge{{U: "u1", V: "v1", Score: 0.9}}); ok {
		t.Fatal("Apply before Rebuild must be rejected")
	}
}

// TestGreedyPooledScratchIsStateless: Greedy runs on pooled used-sets, so
// a call must not see what an earlier call on another edge set interned or
// marked. Alternating two edge sets must reproduce each set's matching
// bit for bit, equal to a from-scratch Incremental.Rebuild, and leave the
// input untouched.
func TestGreedyPooledScratchIsStateless(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	gen := func(prefix string) []Edge {
		edges := make([]Edge, 0, 64)
		for i := 0; i < 64; i++ {
			edges = append(edges, Edge{
				U: entity(prefix+"u", rng.Intn(12)), V: entity(prefix+"v", rng.Intn(12)), Score: quantWeight(rng),
			})
		}
		return edges
	}
	a, b := gen("a"), gen("b")
	orig := slices.Clone(a)
	var m Incremental
	want := m.Rebuild(slices.Clone(a))
	first := Greedy(a)
	Greedy(b)
	again := Greedy(a)
	if !slices.Equal(a, orig) {
		t.Fatal("Greedy modified its input")
	}
	requireSameMatching(t, first, want)
	requireSameMatching(t, again, want)
}
