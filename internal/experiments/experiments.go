// Package experiments contains one runner per figure of the paper's
// evaluation (Sec. 5), each regenerating the corresponding table/series on
// the synthetic workloads. Runners return typed results (for tests and
// benchmarks) that render to aligned-text tables. Each grid of Figs. 4-10
// is one Sweep: its Cells are the runs it made, each at the row and column
// it prints at, and its tables are panels on that grid. The runner of a
// figure shown on both datasets takes the dataset name, "cab" or "sm".
// Figures lists what the slim-experiments CLI prints, and is the one place
// the figure names are written.
// EXPERIMENTS.md records a paper-vs-measured comparison produced from it.
//
// Scale controls workload sizes. Defaults are laptop-scale; the CLI can
// raise them toward the paper's sizes (265 cabs / 30k SM users per side).
package experiments

import (
	"fmt"
	"time"

	"slim"
	"slim/internal/eval"
	"slim/internal/model"
)

// Scale sets the synthetic workload sizes shared by all runners.
type Scale struct {
	// CabTaxis is the ground-set taxi count (paper: ~530 → 265/side).
	CabTaxis int
	// CabDays is the trace length (paper: 24).
	CabDays int
	// CabIntervalSec is the mean seconds between taxi records.
	CabIntervalSec float64
	// SMUsers is the ground-set user count (paper: ~60k → 30k/side).
	SMUsers int
	// SMDays is the check-in span (paper: 26).
	SMDays int
	// SMAvgRecords is the mean ground-stream records per user.
	SMAvgRecords float64
	// Seed drives every generator and sampler.
	Seed int64
	// Workers caps scoring parallelism (0 = GOMAXPROCS).
	Workers int
}

// DefaultScale returns the laptop-scale defaults slim-experiments runs at
// (and EXPERIMENTS.md was generated at); the root package's BenchmarkFig*
// and the tests run TinyScale.
func DefaultScale() Scale {
	return Scale{
		CabTaxis:       56,
		CabDays:        3,
		CabIntervalSec: 360,
		SMUsers:        1200,
		SMDays:         8,
		SMAvgRecords:   24,
		Seed:           42,
	}
}

// TinyScale returns the smallest useful workload, for smoke tests.
func TinyScale() Scale {
	return Scale{
		CabTaxis:       20,
		CabDays:        2,
		CabIntervalSec: 600,
		SMUsers:        300,
		SMDays:         6,
		SMAvgRecords:   20,
		Seed:           7,
	}
}

// ground generates the named dataset's ground trace at this scale: "cab"
// (taxis, at sc.Seed) or "sm" (check-ins, at sc.Seed+1). Any other name is
// a caller's bug, and panics.
func ground(sc Scale, dataset string) slim.Dataset {
	switch dataset {
	case "cab":
		return slim.GenerateCab(slim.CabOptions{
			NumTaxis:              sc.CabTaxis,
			Days:                  sc.CabDays,
			MeanRecordIntervalSec: sc.CabIntervalSec,
			Seed:                  sc.Seed,
		})
	case "sm":
		return slim.GenerateSM(slim.SMOptions{
			NumUsers:   sc.SMUsers,
			Days:       sc.SMDays,
			AvgRecords: sc.SMAvgRecords,
			Seed:       sc.Seed + 1,
		})
	}
	panic(fmt.Sprintf("experiments: no dataset %q (want cab or sm)", dataset))
}

// defaultSample draws the paper's default linkage problem (intersection
// ratio 0.5, inclusion 0.5 on both sides) from the named dataset's ground:
// a figure's cab sample at sc.Seed+offset, its sm sample at +offset+1.
func defaultSample(sc Scale, dataset string, offset int64) slim.SampledWorkload {
	g := ground(sc, dataset)
	if dataset == "sm" {
		offset++
	}
	return workload(&g, 0.5, 0.5, 0.5, sc.Seed+offset)
}

// workload draws a linkage problem from a ground dataset with the paper's
// default knobs unless overridden.
func workload(ground *slim.Dataset, ratio, inclE, inclI float64, seed int64) slim.SampledWorkload {
	return slim.SampleWorkload(ground, slim.SampleOptions{
		IntersectionRatio: ratio,
		InclusionProbE:    inclE,
		InclusionProbI:    inclI,
		Seed:              seed,
	})
}

// baseConfig is the paper's default SLIM configuration at a given
// spatio-temporal level.
func baseConfig(windowMin float64, level int, workers int) slim.Config {
	cfg := slim.Defaults()
	cfg.WindowMinutes = windowMin
	cfg.SpatialLevel = level
	cfg.Workers = workers
	return cfg
}

// runResult bundles a linkage run with its evaluation and wall time.
type runResult struct {
	Res     slim.Result
	Metrics slim.Metrics
	Elapsed time.Duration
}

// run executes SLIM on a workload and evaluates against its truth.
func run(w slim.SampledWorkload, cfg slim.Config) (runResult, error) {
	start := time.Now()
	res, err := slim.LinkDatasets(w.E, w.I, cfg)
	if err != nil {
		return runResult{}, err
	}
	return runResult{
		Res:     res,
		Metrics: slim.Evaluate(res.Links, w.Truth),
		Elapsed: time.Since(start),
	}, nil
}

// slimRankings scores every cross pair with a prepared linker and builds
// per-entity descending candidate lists for hit-precision@k.
func slimRankings(lk *slim.Linker) map[model.EntityID][]eval.RankedCandidate {
	out := make(map[model.EntityID][]eval.RankedCandidate, len(lk.EntitiesE()))
	for _, u := range lk.EntitiesE() {
		cands := make([]eval.RankedCandidate, 0, len(lk.EntitiesI()))
		for _, v := range lk.EntitiesI() {
			cands = append(cands, eval.RankedCandidate{V: v, Score: lk.Score(u, v)})
		}
		out[u] = cands
	}
	return out
}
