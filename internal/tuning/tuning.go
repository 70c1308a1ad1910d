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
package tuning

import (
	"math/rand"

	"slim/internal/history"
	"slim/internal/mathx"
	"slim/internal/model"
	"slim/internal/similarity"
)

// Options configures the auto-tuner.
type Options struct {
	// Levels are the candidate spatial levels in ascending order.
	Levels []int
	// SampleEntities bounds how many probe entities are drawn.
	SampleEntities int
	// PairsPerEntity bounds how many cross pairs each probe entity forms.
	PairsPerEntity int
	// Seed makes the sampling reproducible.
	Seed int64
	// WindowSeconds is the temporal window width the linkage will use;
	// it must be positive.
	WindowSeconds int64
	// MaxSpeedKmPerMin bounds entity movement (runaway distance).
	MaxSpeedKmPerMin float64
	// B is the normalization strength (Eq. 2).
	B float64
}

// DefaultOptions returns the probe configuration used by the experiments:
// levels 4..20 in steps of 2, 15-minute windows, 2 km/min speed bound.
func DefaultOptions() Options {
	return Options{
		Levels:           []int{4, 6, 8, 10, 12, 14, 16, 18, 20},
		SampleEntities:   25,
		PairsPerEntity:   8,
		Seed:             1,
		WindowSeconds:    900,
		MaxSpeedKmPerMin: 2,
		B:                0.5,
	}
}

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

// AutoSpatialLevel probes one dataset, grouped by entity, and returns the
// measured curve.
func AutoSpatialLevel(g *model.Grouped, opt Options) Curve {
	if len(opt.Levels) == 0 {
		opt.Levels = DefaultOptions().Levels
	}
	w := model.Windowing{WidthSeconds: opt.WindowSeconds}
	params := similarity.DefaultParams(w.WidthMinutes(), opt.MaxSpeedKmPerMin)
	params.B = opt.B

	curve := Curve{Levels: append([]int(nil), opt.Levels...)}
	curve.Ratio = make([]float64, len(curve.Levels))
	for li, level := range curve.Levels {
		store := history.BuildGrouped(g, w, level, 1)
		curve.Ratio[li] = probeRatio(store, params, opt)
	}
	xs := make([]float64, len(curve.Levels))
	for i, l := range curve.Levels {
		xs[i] = float64(l)
	}
	curve.Elbow = mathx.Kneedle(xs, curve.Ratio, true)
	return curve
}

// probeRatio samples entity pairs and averages pair/self similarity.
func probeRatio(store *history.Store, params similarity.Params, opt Options) float64 {
	entities := store.Entities()
	n := len(entities)
	if n < 2 {
		return 0
	}
	r := rand.New(rand.NewSource(opt.Seed))
	scorer := similarity.NewScorer(store, store, params)

	sampleN := opt.SampleEntities
	if sampleN <= 0 {
		sampleN = 25
	}
	if sampleN > n {
		sampleN = n
	}
	perm := r.Perm(n)
	pairsPer := opt.PairsPerEntity
	if pairsPer <= 0 {
		pairsPer = 8
	}

	var sum float64
	var count int
	for _, ui := range perm[:sampleN] {
		u := entities[ui]
		for k := 0; k < pairsPer; k++ {
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
			if ratio < 0 {
				ratio = 0
			}
			sum += ratio
			count++
		}
	}
	if count == 0 {
		return 1
	}
	return sum / float64(count)
}

// AutoSpatialLevelPair probes both datasets of a linkage independently and
// returns the higher elbow level, per Sec. 3.3, along with both curves.
func AutoSpatialLevelPair(g1, g2 *model.Grouped, opt Options) (int, Curve, Curve) {
	c1 := AutoSpatialLevel(g1, opt)
	c2 := AutoSpatialLevel(g2, opt)
	l1, l2 := c1.Level(), c2.Level()
	if l2 > l1 {
		return l2, c1, c2
	}
	return l1, c1, c2
}
