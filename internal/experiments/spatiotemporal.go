package experiments

import (
	"fmt"

	"slim"
	"slim/internal/eval"
)

// SpatioTemporalOptions sets the grid of Fig. 4 (Cab) and Fig. 5 (SM):
// precision, recall, alibi pairs and record comparisons as a composite
// function of the spatial detail and the temporal window width.
type SpatioTemporalOptions struct {
	Levels     []int
	WindowsMin []float64
}

// DefaultSpatioTemporalOptions mirrors the paper's axes (subsampled).
func DefaultSpatioTemporalOptions() SpatioTemporalOptions {
	return SpatioTemporalOptions{
		Levels:     []int{4, 8, 12, 16, 20},
		WindowsMin: []float64{15, 60, 180, 360},
	}
}

// STCell is one grid point of the spatio-temporal sweep.
type STCell struct {
	Level     int
	WindowMin float64
	Precision float64
	Recall    float64
	F1        float64
	// AlibiPairs counts bin pairs with negative proximity.
	AlibiPairs int64
	// BinComparisons counts bin-pair distance evaluations — the pairing
	// work that grows with both spatial detail and window width, the
	// quantity behind Fig. 4d/5d.
	BinComparisons int64
	// RecordComparisons is the equivalent record-pair count (independent
	// of spatial level; grows with window width).
	RecordComparisons int64
}

// STResult is the full sweep for one dataset.
type STResult struct {
	Dataset string
	Cells   []STCell
}

// Tables renders the four panels of the figure: rows are window widths,
// columns spatial levels.
func (r STResult) Tables() []eval.Table {
	title := func(quantity string) string {
		return fmt.Sprintf("%s: %s vs (spatial level x window width)", r.Dataset, quantity)
	}
	return grid(r.Cells, "window\\level",
		func(c STCell) string { return fmt.Sprintf("%gmin", c.WindowMin) },
		func(c STCell) string { return fmt.Sprintf("%d", c.Level) },
		panel[STCell]{title("precision"), func(c STCell) string { return fmt.Sprintf("%.3f", c.Precision) }},
		panel[STCell]{title("recall"), func(c STCell) string { return fmt.Sprintf("%.3f", c.Recall) }},
		panel[STCell]{title("alibi-pairs"), func(c STCell) string { return fmt.Sprintf("%d", c.AlibiPairs) }},
		panel[STCell]{title("bin-comparisons (pairing work)"), func(c STCell) string { return fmt.Sprintf("%d", c.BinComparisons) }},
	)
}

// Fig4SpatioTemporalCab reproduces Fig. 4: the spatio-temporal sweep on
// the Cab workload with the paper's default sampling (ratio .5, incl .5).
func Fig4SpatioTemporalCab(sc Scale, opt SpatioTemporalOptions) (STResult, error) {
	ground := cabGround(sc)
	w := workload(&ground, 0.5, 0.5, 0.5, sc.Seed+10)
	return stSweep("cab", w, sc, opt)
}

// Fig5SpatioTemporalSM reproduces Fig. 5: the same sweep on SM.
func Fig5SpatioTemporalSM(sc Scale, opt SpatioTemporalOptions) (STResult, error) {
	ground := smGround(sc)
	w := workload(&ground, 0.5, 0.5, 0.5, sc.Seed+11)
	return stSweep("sm", w, sc, opt)
}

func stSweep(name string, w slim.SampledWorkload, sc Scale, opt SpatioTemporalOptions) (STResult, error) {
	res := STResult{Dataset: name}
	for _, windowMin := range opt.WindowsMin {
		for _, level := range opt.Levels {
			cfg := baseConfig(windowMin, level, sc.Workers)
			rr, err := run(w, cfg)
			if err != nil {
				return STResult{}, err
			}
			res.Cells = append(res.Cells, STCell{
				Level:             level,
				WindowMin:         windowMin,
				Precision:         rr.Metrics.Precision,
				Recall:            rr.Metrics.Recall,
				F1:                rr.Metrics.F1,
				AlibiPairs:        rr.Res.Stats.AlibiBinPairs,
				BinComparisons:    rr.Res.Stats.BinComparisons,
				RecordComparisons: rr.Res.Stats.RecordComparisons,
			})
		}
	}
	return res, nil
}
