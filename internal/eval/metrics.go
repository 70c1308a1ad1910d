// Package eval provides the evaluation metrics of the paper's Sec. 5 —
// precision/recall/F1 against sampled ground truth, hit-precision@k,
// relative F1, and speed-up ratios — plus small table-rendering helpers
// shared by the experiment runners.
package eval

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"

	"slim/internal/matching"
	"slim/internal/model"
)

// Truth maps entities of dataset E to their true counterparts in dataset I.
type Truth map[model.EntityID]model.EntityID

// PRF holds precision, recall and F1 with the counts behind them.
type PRF struct {
	Precision float64
	Recall    float64
	F1        float64
	TP        int
	FP        int
	FN        int
}

// Score computes precision/recall/F1 of links against the truth; a link's
// score plays no part. Recall's denominator is the number of true pairs
// (entities present in both datasets after sampling/filtering).
func Score(links []matching.Edge, truth Truth) PRF {
	var p PRF
	for _, l := range links {
		if truth[l.U] == l.V {
			p.TP++
		} else {
			p.FP++
		}
	}
	p.FN = len(truth) - p.TP
	if p.TP+p.FP > 0 {
		p.Precision = float64(p.TP) / float64(p.TP+p.FP)
	}
	if len(truth) > 0 {
		p.Recall = float64(p.TP) / float64(len(truth))
	}
	if p.Precision+p.Recall > 0 {
		p.F1 = 2 * p.Precision * p.Recall / (p.Precision + p.Recall)
	}
	return p
}

// RankedCandidate is one scored candidate for hit-precision ranking.
type RankedCandidate struct {
	V     model.EntityID
	Score float64
}

// HitPrecisionAtK computes the paper's Hit-Precision@k (Sec. 5.5): for each
// E entity with a true match, find the 1-based rank of the true I entity in
// its descending score list and credit max(0, 1 − (rank−1)/k); entities
// whose true match is absent from the ranking score 0. The average over
// all truth entities is returned; the credits are summed in entity-id
// order, so the result does not depend on map iteration order.
//
// (The paper's formula "1 − max(rank/k, 1)" is degenerate — constant 0 —
// and is corrected here to the standard form; see EXPERIMENTS.md "Where
// this reproduction departs".)
func HitPrecisionAtK(rankings map[model.EntityID][]RankedCandidate, truth Truth, k int) float64 {
	if len(truth) == 0 || k <= 0 {
		return 0
	}
	var sum float64
	for _, u := range slices.Sorted(maps.Keys(truth)) {
		want, cands := truth[u], rankings[u]
		// Sort defensively (stable order: score desc, id asc).
		sorted := append([]RankedCandidate(nil), cands...)
		sort.Slice(sorted, func(i, j int) bool {
			if sorted[i].Score != sorted[j].Score {
				return sorted[i].Score > sorted[j].Score
			}
			return sorted[i].V < sorted[j].V
		})
		for rank, c := range sorted {
			if c.V == want {
				credit := 1 - float64(rank)/float64(k)
				if credit > 0 {
					sum += credit
				}
				break
			}
		}
	}
	return sum / float64(len(truth))
}

// RelativeF1 returns f1With / f1Without, the Fig. 8 quality measure
// (LSH-filtered linkage relative to brute force). Returns 0 when the
// baseline F1 is 0.
func RelativeF1(f1With, f1Without float64) float64 {
	if f1Without == 0 {
		return 0
	}
	return f1With / f1Without
}

// SpeedUp returns baseline/accelerated (e.g. record comparisons without
// LSH over with LSH). Returns 0 when the accelerated count is 0.
func SpeedUp(baseline, accelerated int64) float64 {
	if accelerated == 0 {
		return 0
	}
	return float64(baseline) / float64(accelerated)
}

// Table is a simple aligned-text table for experiment output.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// AddRow appends a row of already-formatted cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// AddRowf appends a row formatting each value with %v (floats with %g).
func (t *Table) AddRowf(values ...interface{}) {
	cells := make([]string, len(values))
	for i, v := range values {
		switch x := v.(type) {
		case float64:
			cells[i] = fmt.Sprintf("%.4g", x)
		default:
			cells[i] = fmt.Sprintf("%v", x)
		}
	}
	t.Rows = append(t.Rows, cells)
}

// Render produces the aligned table text.
func (t Table) Render() string {
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteString("\n")
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			if i < len(widths) {
				for p := len(c); p < widths[i]; p++ {
					b.WriteByte(' ')
				}
			}
		}
		b.WriteString("\n")
	}
	writeRow(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteString("\n")
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}
