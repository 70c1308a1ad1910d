package experiments

import (
	"fmt"

	"slim"
	"slim/internal/eval"
)

// TuningResult reproduces the Sec. 3.3 / Sec. 5.2.1 auto-tuning claim:
// the elbow probe picks a spatial level that matches the accuracy plateau
// (level ≈ 12 for 15-minute windows on the paper's data).
type TuningResult struct {
	Dataset     string
	Levels      []int
	RatiosE     []float64
	RatiosI     []float64
	ChosenLevel int
}

// Table renders the two probe curves and the chosen level.
func (r TuningResult) Table() eval.Table {
	t := eval.Table{
		Title:  fmt.Sprintf("%s: pair/self similarity ratio per spatial level (chosen level = %d)", r.Dataset, r.ChosenLevel),
		Header: []string{"level", "ratio-E", "ratio-I"},
	}
	for i, l := range r.Levels {
		e, iv := "-", "-"
		if i < len(r.RatiosE) {
			e = fmt.Sprintf("%.3f", r.RatiosE[i])
		}
		if i < len(r.RatiosI) {
			iv = fmt.Sprintf("%.3f", r.RatiosI[i])
		}
		t.AddRow(fmt.Sprintf("%d", l), e, iv)
	}
	return t
}

// Tuning runs the auto-tuner on the named dataset's default sample.
func Tuning(sc Scale, dataset string) (TuningResult, error) {
	w := defaultSample(sc, dataset, 80)
	level, cE, cI, err := slim.AutoTuneSpatialLevel(w.E, w.I, slim.Defaults())
	if err != nil {
		return TuningResult{}, err
	}
	return TuningResult{
		Dataset:     dataset,
		Levels:      cE.Levels,
		RatiosE:     cE.Ratio,
		RatiosI:     cI.Ratio,
		ChosenLevel: level,
	}, nil
}
