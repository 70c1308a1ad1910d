package matching

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"slim/internal/model"
)

func edge(u, v string, w float64) Edge {
	return Edge{U: model.EntityID(u), V: model.EntityID(v), Score: w}
}

func TestGreedyPicksHighestFirst(t *testing.T) {
	edges := []Edge{
		edge("u1", "v1", 10),
		edge("u1", "v2", 9),
		edge("u2", "v1", 8),
		edge("u2", "v2", 1),
	}
	got := Greedy(edges)
	if len(got) != 2 {
		t.Fatalf("matched %d edges, want 2", len(got))
	}
	if got[0] != edge("u1", "v1", 10) || got[1] != edge("u2", "v2", 1) {
		t.Errorf("greedy result = %v", got)
	}
	if !Valid(got) {
		t.Error("greedy produced an invalid matching")
	}
}

func TestGreedyDeterministicTies(t *testing.T) {
	edges := []Edge{
		edge("u2", "v2", 5),
		edge("u1", "v1", 5),
		edge("u1", "v2", 5),
		edge("u2", "v1", 5),
	}
	first := Greedy(edges)
	for i := 0; i < 10; i++ {
		// Shuffle the input: result must not change.
		r := rand.New(rand.NewSource(int64(i)))
		shuffled := append([]Edge(nil), edges...)
		r.Shuffle(len(shuffled), func(a, b int) { shuffled[a], shuffled[b] = shuffled[b], shuffled[a] })
		got := Greedy(shuffled)
		if len(got) != len(first) {
			t.Fatal("tie handling not deterministic (length)")
		}
		for j := range got {
			if got[j] != first[j] {
				t.Fatalf("tie handling not deterministic: %v vs %v", got, first)
			}
		}
	}
}

func TestGreedyDoesNotMutateInput(t *testing.T) {
	edges := []Edge{edge("b", "y", 1), edge("a", "x", 2)}
	_ = Greedy(edges)
	if edges[0] != edge("b", "y", 1) || edges[1] != edge("a", "x", 2) {
		t.Error("input slice was reordered")
	}
}

func TestGreedyEmptyAndSingle(t *testing.T) {
	if got := Greedy(nil); len(got) != 0 {
		t.Error("empty input should give empty matching")
	}
	got := Greedy([]Edge{edge("u", "v", 3)})
	if len(got) != 1 || got[0].Score != 3 {
		t.Errorf("single edge mishandled: %v", got)
	}
}

func TestFilterThreshold(t *testing.T) {
	edges := []Edge{edge("a", "x", 5), edge("b", "y", 2), edge("c", "z", 8)}
	got := FilterThreshold(edges, 4)
	if len(got) != 2 {
		t.Fatalf("kept %d, want 2", len(got))
	}
	// Strictly above: an edge exactly at the threshold is dropped.
	got = FilterThreshold(edges, 5)
	if len(got) != 1 || got[0].U != "c" {
		t.Errorf("strict threshold misbehaves: %v", got)
	}
}

func TestValidDetectsConflicts(t *testing.T) {
	if !Valid([]Edge{edge("a", "x", 1), edge("b", "y", 1)}) {
		t.Error("disjoint edges should be valid")
	}
	if Valid([]Edge{edge("a", "x", 1), edge("a", "y", 1)}) {
		t.Error("shared U endpoint should be invalid")
	}
	if Valid([]Edge{edge("a", "x", 1), edge("b", "x", 1)}) {
		t.Error("shared V endpoint should be invalid")
	}
}

func TestGreedyMatchingPropertyQuick(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var edges []Edge
		n := r.Intn(20)
		for k := 0; k < n; k++ {
			edges = append(edges, edge(
				fmt.Sprintf("u%d", r.Intn(8)), fmt.Sprintf("v%d", r.Intn(8)),
				r.Float64()*100))
		}
		m := Greedy(edges)
		if !Valid(m) {
			return false
		}
		// Greedy must at least match the single best edge.
		if len(edges) > 0 {
			best := edges[0].Score
			for _, e := range edges {
				if e.Score > best {
					best = e.Score
				}
			}
			if len(m) == 0 || m[0].Score != best {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// mapGreedy is the plain reference for Greedy: the edges sorted by Compare
// and walked with map used-sets.
func mapGreedy(edges []Edge) []Edge {
	sorted := slices.SortedFunc(slices.Values(edges), Compare)
	usedU, usedV := map[model.EntityID]bool{}, map[model.EntityID]bool{}
	var out []Edge
	for _, e := range sorted {
		if !usedU[e.U] && !usedV[e.V] {
			usedU[e.U], usedV[e.V] = true, true
			out = append(out, e)
		}
	}
	return out
}

// TestGreedyPooledScratchIsStateless: Greedy runs on pooled used-sets, so
// a call must not see what an earlier call on another edge set interned or
// marked. Alternating two edge sets over a quantized weight palette (ties
// everywhere) must reproduce each set's matching bit for bit, equal to the
// map-based reference, and leave the input untouched.
func TestGreedyPooledScratchIsStateless(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	gen := func(prefix string) []Edge {
		seen := map[[2]int]bool{}
		edges := make([]Edge, 0, 64)
		for len(edges) < 64 {
			u, v := rng.Intn(12), rng.Intn(12)
			if seen[[2]int{u, v}] {
				continue // an edge set holds each pair once
			}
			seen[[2]int{u, v}] = true
			edges = append(edges, edge(fmt.Sprintf("%su%03d", prefix, u), fmt.Sprintf("%sv%03d", prefix, v),
				float64(1+rng.Intn(8))/8))
		}
		return edges
	}
	a, b := gen("a"), gen("b")
	orig := slices.Clone(a)
	want := mapGreedy(a)
	first := Greedy(a)
	Greedy(b)
	again := Greedy(a)
	if !slices.Equal(a, orig) {
		t.Fatal("Greedy modified its input")
	}
	for _, got := range [][]Edge{first, again} {
		if len(got) != len(want) {
			t.Fatalf("matching size %d, want %d", len(got), len(want))
		}
		for i := range got {
			if got[i].U != want[i].U || got[i].V != want[i].V ||
				math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
				t.Fatalf("matching diverges at %d: got %+v want %+v", i, got[i], want[i])
			}
		}
	}
}

func BenchmarkGreedy(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	var edges []Edge
	for i := 0; i < 200; i++ {
		for j := 0; j < 200; j++ {
			if r.Float64() < 0.1 {
				edges = append(edges, edge(fmt.Sprintf("u%d", i), fmt.Sprintf("v%d", j), r.Float64()))
			}
		}
	}
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		_ = Greedy(edges)
	}
}
