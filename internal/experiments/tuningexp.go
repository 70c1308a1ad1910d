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

// TuningCab runs the auto-tuner on the default Cab workload.
func TuningCab(sc Scale) (TuningResult, error) {
	ground := cabGround(sc)
	w := workload(&ground, 0.5, 0.5, 0.5, sc.Seed+80)
	return tuningRun("cab", w)
}

// TuningSM runs the auto-tuner on the default SM workload.
func TuningSM(sc Scale) (TuningResult, error) {
	ground := smGround(sc)
	w := workload(&ground, 0.5, 0.5, 0.5, sc.Seed+81)
	return tuningRun("sm", w)
}

func tuningRun(name string, w slim.SampledWorkload) (TuningResult, error) {
	level, cE, cI, err := slim.AutoTuneSpatialLevel(w.E, w.I, slim.Defaults())
	if err != nil {
		return TuningResult{}, err
	}
	return TuningResult{
		Dataset:     name,
		Levels:      cE.Levels,
		RatiosE:     cE.Ratio,
		RatiosI:     cI.Ratio,
		ChosenLevel: level,
	}, nil
}
