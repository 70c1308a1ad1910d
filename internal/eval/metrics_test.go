package eval

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"slim/internal/matching"
	"slim/internal/model"
)

func TestScoreCounts(t *testing.T) {
	truth := Truth{"e1": "i1", "e2": "i2", "e3": "i3"}
	links := []matching.Edge{
		{U: "e1", V: "i1"},
		{U: "e2", V: "iX"},
	}
	p := Score(links, truth)
	if p.TP != 1 || p.FP != 1 || p.FN != 2 {
		t.Fatalf("TP=%d FP=%d FN=%d", p.TP, p.FP, p.FN)
	}
	if p.Precision != 0.5 {
		t.Errorf("precision = %g", p.Precision)
	}
	if math.Abs(p.Recall-1.0/3) > 1e-12 {
		t.Errorf("recall = %g", p.Recall)
	}
	if p.F1 <= 0 || p.F1 >= 1 {
		t.Errorf("f1 = %g", p.F1)
	}
}

func TestScoreEdgeCases(t *testing.T) {
	if p := Score(nil, Truth{}); p.Precision != 0 || p.Recall != 0 || p.F1 != 0 {
		t.Error("empty everything should be all zeros")
	}
	p := Score([]matching.Edge{{U: "a", V: "b"}}, Truth{})
	if p.Precision != 0 || p.FP != 1 {
		t.Error("links against empty truth are all FPs")
	}
}

func TestHitPrecisionAtK(t *testing.T) {
	truth := Truth{"e1": "i1", "e2": "i2"}
	rankings := map[model.EntityID][]RankedCandidate{
		// e1's true match ranked 1st → credit 1.
		"e1": {{V: "i1", Score: 10}, {V: "i2", Score: 5}},
		// e2's true match ranked 3rd → credit 1 - 2/4 = 0.5.
		"e2": {{V: "i9", Score: 9}, {V: "i8", Score: 8}, {V: "i2", Score: 7}},
	}
	got := HitPrecisionAtK(rankings, truth, 4)
	want := (1.0 + 0.5) / 2
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("hit-precision = %g, want %g", got, want)
	}
}

func TestHitPrecisionRankBeyondK(t *testing.T) {
	truth := Truth{"e1": "i1"}
	var cands []RankedCandidate
	for i := 0; i < 50; i++ {
		cands = append(cands, RankedCandidate{V: model.EntityID(runeID(i)), Score: float64(100 - i)})
	}
	cands = append(cands, RankedCandidate{V: "i1", Score: 0}) // rank 51
	got := HitPrecisionAtK(map[model.EntityID][]RankedCandidate{"e1": cands}, truth, 40)
	if got != 0 {
		t.Errorf("rank beyond k should credit 0, got %g", got)
	}
	// Missing ranking entirely also credits 0.
	if HitPrecisionAtK(nil, truth, 40) != 0 {
		t.Error("missing rankings should credit 0")
	}
	// Degenerate k.
	if HitPrecisionAtK(nil, truth, 0) != 0 {
		t.Error("k=0 should be 0")
	}
}

func runeID(i int) string {
	return "x" + string(rune('a'+i%26)) + string(rune('a'+i/26))
}

func TestHitPrecisionTieBreakDeterministic(t *testing.T) {
	truth := Truth{"e1": "i1"}
	rankings := map[model.EntityID][]RankedCandidate{
		"e1": {{V: "i2", Score: 5}, {V: "i1", Score: 5}},
	}
	first := HitPrecisionAtK(rankings, truth, 4)
	for i := 0; i < 5; i++ {
		if HitPrecisionAtK(rankings, truth, 4) != first {
			t.Fatal("tie handling not deterministic")
		}
	}
	// With ids tie-broken ascending, i1 ranks before i2 → full credit.
	if first != 1 {
		t.Errorf("tie-break should rank i1 first, credit 1; got %g", first)
	}
}

// TestHitPrecisionIsAPureFunction holds the float sum's order fixed: summed
// in map-iteration order, 500 credits gave a different last bit from call
// to call.
func TestHitPrecisionIsAPureFunction(t *testing.T) {
	truth := Truth{}
	rankings := map[model.EntityID][]RankedCandidate{}
	for e := 0; e < 500; e++ {
		u, want := model.EntityID(fmt.Sprintf("e%d", e)), model.EntityID(fmt.Sprintf("i%d", e))
		truth[u] = want
		rank := e%7 + 1 // the true match sits at rank 1..7
		for r := 1; r <= rank; r++ {
			v := model.EntityID(fmt.Sprintf("x%d-%d", e, r))
			if r == rank {
				v = want
			}
			rankings[u] = append(rankings[u], RankedCandidate{V: v, Score: float64(10 - r)})
		}
	}
	first := math.Float64bits(HitPrecisionAtK(rankings, truth, 40))
	for i := 0; i < 50; i++ {
		if got := math.Float64bits(HitPrecisionAtK(rankings, truth, 40)); got != first {
			t.Fatalf("call %d returned bits %#x, first call %#x", i+2, got, first)
		}
	}
}

func TestRelativeF1AndSpeedUp(t *testing.T) {
	if RelativeF1(0.9, 1.0) != 0.9 {
		t.Error("relative f1 wrong")
	}
	if RelativeF1(0.5, 0) != 0 {
		t.Error("zero baseline should give 0")
	}
	if SpeedUp(1000, 10) != 100 {
		t.Error("speed-up wrong")
	}
	if SpeedUp(10, 0) != 0 {
		t.Error("zero denominator should give 0")
	}
}

func TestTableRender(t *testing.T) {
	tb := Table{Title: "demo", Header: []string{"a", "bb", "ccc"}}
	tb.AddRow("1", "2", "3")
	tb.AddRowf(1.23456, 7, "x")
	out := tb.Render()
	if !strings.Contains(out, "demo") || !strings.Contains(out, "bb") {
		t.Errorf("render missing pieces:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Errorf("render has %d lines:\n%s", len(lines), out)
	}
	if !strings.Contains(out, "1.235") {
		t.Errorf("AddRowf float formatting missing: %s", out)
	}
}
