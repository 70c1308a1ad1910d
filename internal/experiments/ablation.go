package experiments

import (
	"fmt"

	"slim"
	"slim/internal/eval"
)

// AblationOptions sets the Fig. 10 grids: F1 of each SLIM variant as a
// function of the spatial level (at 15-minute windows) and of the window
// width (at spatial level 12).
type AblationOptions struct {
	Levels     []int
	WindowsMin []float64
}

// DefaultAblationOptions mirrors the paper's axes (subsampled).
func DefaultAblationOptions() AblationOptions {
	return AblationOptions{
		Levels:     []int{8, 12, 16, 20, 24},
		WindowsMin: []float64{5, 15, 60, 180, 360, 720},
	}
}

// ablationVariants lists the Fig. 10 series in display order.
var ablationVariants = []struct {
	Name string
	Abl  slim.Ablation
}{
	{"original", slim.Ablation{}},
	{"mnn-only", slim.Ablation{DisableMFN: true}},
	{"all-pairs", slim.Ablation{AllPairs: true}},
	{"no-idf", slim.Ablation{DisableIDF: true}},
	{"no-normalization", slim.Ablation{DisableNorm: true}},
}

// AblationCell is one (variant, x) measurement.
type AblationCell struct {
	Variant string
	X       float64 // spatial level or window width
	F1      float64
}

// AblationResult holds one Fig. 10 panel.
type AblationResult struct {
	Dataset string
	Axis    string // "spatial-level" or "window-min"
	Cells   []AblationCell
}

// Table renders the panel: one row per variant that has a cell (the sweeps
// run the variants in ablationVariants order), one column per x.
func (r AblationResult) Table() eval.Table {
	return grid(r.Cells, "variant\\"+r.Axis,
		func(c AblationCell) string { return c.Variant },
		func(c AblationCell) string { return fmt.Sprintf("%g", c.X) },
		panel[AblationCell]{fmt.Sprintf("%s: F1 vs %s per variant", r.Dataset, r.Axis),
			func(c AblationCell) string { return fmt.Sprintf("%.3f", c.F1) }},
	)[0]
}

// F1 returns the measured F1 of a variant at x (ok=false if absent).
func (r AblationResult) F1(variant string, x float64) (float64, bool) {
	for _, c := range r.Cells {
		if c.Variant == variant && c.X == x {
			return c.F1, true
		}
	}
	return 0, false
}

// Fig10AblationSpatial reproduces Fig. 10a: F1 vs spatial level for every
// variant at 15-minute windows, on Cab.
func Fig10AblationSpatial(sc Scale, opt AblationOptions) (AblationResult, error) {
	ground := cabGround(sc)
	w := workload(&ground, 0.5, 0.5, 0.5, sc.Seed+60)
	res := AblationResult{Dataset: "cab", Axis: "spatial-level"}
	for _, v := range ablationVariants {
		for _, level := range opt.Levels {
			cfg := baseConfig(15, level, sc.Workers)
			cfg.Ablation = v.Abl
			rr, err := run(w, cfg)
			if err != nil {
				return AblationResult{}, err
			}
			res.Cells = append(res.Cells, AblationCell{Variant: v.Name, X: float64(level), F1: rr.Metrics.F1})
		}
	}
	return res, nil
}

// Fig10AblationWindow reproduces Fig. 10b: F1 vs window width for every
// variant at spatial level 12, on Cab.
func Fig10AblationWindow(sc Scale, opt AblationOptions) (AblationResult, error) {
	ground := cabGround(sc)
	w := workload(&ground, 0.5, 0.5, 0.5, sc.Seed+61)
	res := AblationResult{Dataset: "cab", Axis: "window-min"}
	for _, v := range ablationVariants {
		for _, win := range opt.WindowsMin {
			cfg := baseConfig(win, 12, sc.Workers)
			cfg.Ablation = v.Abl
			rr, err := run(w, cfg)
			if err != nil {
				return AblationResult{}, err
			}
			res.Cells = append(res.Cells, AblationCell{Variant: v.Name, X: win, F1: rr.Metrics.F1})
		}
	}
	return res, nil
}
