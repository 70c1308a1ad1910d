// Package tuning implements SLIM's automatic spatial-level selection
// (Sec. 3.3). For a given temporal window width, the right spatial detail
// balances accuracy against cost: too coarse and entities become
// indistinguishable, too fine and histories bloat without accuracy gains.
//
// The probe works on one dataset at a time, without labels: sample entity
// pairs, and for each candidate spatial level compute the average ratio of
// pair similarity to self-similarity. Low levels push the ratio toward 1
// (everyone looks like everyone); increasing detail drives it down until it
// flattens. The kneedle elbow of this curve is the chosen level. For a
// linkage of two datasets the paper takes the higher of the two elbows.
//
// The probe is a function of the linkage's own inputs alone: the grouped
// entities it links, its window grid and the similarity parameters it
// scores with. Its candidate levels and its sampling are fixed.
package tuning

import (
	"math/rand"

	"slim/internal/history"
	"slim/internal/mathx"
	"slim/internal/model"
	"slim/internal/similarity"
)

// The probe's candidate levels are minLevel … maxLevel in steps of
// levelStep. Each level's ratio averages over up to probeEntities sampled
// entities, each paired with up to probePairs others, drawn from a random
// source seeded with probeSeed.
const (
	minLevel      = 4
	maxLevel      = 20
	levelStep     = 2
	probeEntities = 25
	probePairs    = 8
	probeSeed     = 1
)

// Curve holds the probe measurements for one dataset.
type Curve struct {
	Levels []int
	// Ratio[i] is the average pair-similarity / self-similarity at
	// Levels[i], in [0, 1]-ish (clamped below at 0).
	Ratio []float64
	// Elbow is the index into Levels chosen by kneedle.
	Elbow int
}

// Level returns the spatial level at the detected elbow.
func (c Curve) Level() int {
	if len(c.Levels) == 0 {
		return 0
	}
	if c.Elbow < 0 || c.Elbow >= len(c.Levels) {
		return c.Levels[len(c.Levels)-1]
	}
	return c.Levels[c.Elbow]
}

// SpatialLevel probes both sides of a linkage independently and returns
// the higher elbow level, per Sec. 3.3, along with both curves. The level
// is always one of the candidate levels.
func SpatialLevel(ge, gi *model.Grouped, w model.Windowing, p similarity.Params) (int, Curve, Curve) {
	ce, ci := Probe(ge, w, p), Probe(gi, w, p)
	return max(ce.Level(), ci.Level()), ce, ci
}

// Probe measures one side's curve over the candidate levels.
func Probe(g *model.Grouped, w model.Windowing, p similarity.Params) Curve {
	var curve Curve
	var xs []float64
	for level := minLevel; level <= maxLevel; level += levelStep {
		store := history.BuildGrouped(g, w, level, 1)
		curve.Levels = append(curve.Levels, level)
		curve.Ratio = append(curve.Ratio, probeRatio(store, p))
		xs = append(xs, float64(level))
	}
	curve.Elbow = mathx.Kneedle(xs, curve.Ratio, true)
	return curve
}

// probeRatio samples entity pairs and averages pair/self similarity.
func probeRatio(store *history.Store, p similarity.Params) float64 {
	entities := store.Entities()
	n := len(entities)
	if n < 2 {
		return 0
	}
	r := rand.New(rand.NewSource(probeSeed))
	scorer := similarity.NewScorer(store, store, p)
	perm := r.Perm(n)

	var sum float64
	var count int
	for _, ui := range perm[:min(probeEntities, n)] {
		u := entities[ui]
		for range probePairs {
			vi := r.Intn(n)
			if vi == ui {
				continue
			}
			// Ratio of the pair's similarity to the self-like idealized
			// similarity of the same evidence: 1 when the level cannot
			// distinguish the two entities, decreasing as detail separates
			// them. Pairs without usable shared evidence carry no signal
			// about the spatial level and are skipped.
			ratio, ok := scorer.ProbeRatio(u, entities[vi])
			if !ok {
				continue
			}
			sum += max(ratio, 0)
			count++
		}
	}
	if count == 0 {
		return 1
	}
	return sum / float64(count)
}
