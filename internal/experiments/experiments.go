// Package experiments contains one runner per figure of the paper's
// evaluation (Sec. 5), each regenerating the corresponding table/series on
// the synthetic workloads. Runners return typed results (for tests and
// benchmarks) that render to aligned-text tables; a sweep's tables are one
// grid renderer's panels. Figures lists what the slim-experiments CLI
// prints, and is the one place the figure names are written.
// EXPERIMENTS.md records a paper-vs-measured comparison produced from it.
//
// Scale controls workload sizes. Defaults are laptop-scale; the CLI can
// raise them toward the paper's sizes (265 cabs / 30k SM users per side).
package experiments

import (
	"time"

	"slim"
	"slim/internal/datagen"
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

// cabGround generates the ground taxi trace for this scale.
func cabGround(sc Scale) slim.Dataset {
	return slim.GenerateCab(slim.CabOptions{
		NumTaxis:              sc.CabTaxis,
		Days:                  sc.CabDays,
		MeanRecordIntervalSec: sc.CabIntervalSec,
		Seed:                  sc.Seed,
	})
}

// smGround generates the ground check-in stream for this scale.
func smGround(sc Scale) slim.Dataset {
	return slim.GenerateSM(slim.SMOptions{
		NumUsers:   sc.SMUsers,
		Days:       sc.SMDays,
		AvgRecords: sc.SMAvgRecords,
		Seed:       sc.Seed + 1,
	})
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

// avgRecords reports a dataset's record density.
func avgRecords(d *slim.Dataset) float64 { return datagen.AvgRecordsPerEntity(d) }

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
