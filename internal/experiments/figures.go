package experiments

import (
	"fmt"
	"strings"

	"slim/internal/eval"
)

// Figure is one entry of the paper's evaluation: the slim-experiments
// subcommand that prints it and the run that produces its text at a scale —
// its tables, each followed by a blank line, and any summary lines. The
// text is undefined when Run returns an error.
type Figure struct {
	Name string
	Run  func(Scale) (string, error)
}

// Figures is the evaluation in the order "slim-experiments all" prints it,
// and the one place the figure names and the CLI's option overrides are
// written.
var Figures = []Figure{
	{"fig2", func(sc Scale) (string, error) {
		r, err := Fig2GMMFit(sc)
		return render(r.Table()) + fmt.Sprintf("threshold separation accuracy: %.3f\n", r.ThresholdAccuracy()), err
	}},
	{"fig4", func(sc Scale) (string, error) {
		r, err := Fig4SpatioTemporalCab(sc, DefaultSpatioTemporalOptions())
		return render(r.Tables()...), err
	}},
	{"fig5", func(sc Scale) (string, error) {
		r, err := Fig5SpatioTemporalSM(sc, DefaultSpatioTemporalOptions())
		return render(r.Tables()...), err
	}},
	{"fig6", func(sc Scale) (string, error) {
		rs, err := Fig6ScoreHistograms(sc)
		var b strings.Builder
		for _, r := range rs {
			b.WriteString(render(r.Table()))
			fmt.Fprintf(&b, "threshold separation accuracy @ level %d: %.3f\n\n", r.Level, r.ThresholdAccuracy())
		}
		return b.String(), err
	}},
	{"fig7", func(sc Scale) (string, error) {
		cab, err := Fig7WorkloadCab(sc, DefaultWorkloadOptions())
		if err != nil {
			return "", err
		}
		sm, err := Fig7WorkloadSM(sc, DefaultWorkloadOptions())
		return render(append(cab.Tables(), sm.Tables()...)...), err
	}},
	{"fig8", func(sc Scale) (string, error) {
		// The synthetic cab trace needs a more permissive threshold than the
		// paper's real trace (see EXPERIMENTS.md "LSH calibration").
		opt := DefaultLSHLevelOptions()
		opt.Threshold = cabThreshold
		cab, err := Fig8LSHLevelsCab(sc, opt)
		if err != nil {
			return "", err
		}
		sm, err := Fig8LSHLevelsSM(sc, DefaultLSHLevelOptions())
		return render(append(cab.Tables(), sm.Tables()...)...), err
	}},
	{"fig9", func(sc Scale) (string, error) {
		opt := DefaultLSHBucketOptions()
		opt.SigLevel = 12
		opt.Thresholds = []float64{cabThreshold, 0.2, 0.4}
		cab, err := Fig9LSHBucketsCab(sc, opt)
		if err != nil {
			return "", err
		}
		sm, err := Fig9LSHBucketsSM(sc, DefaultLSHBucketOptions())
		return render(cab.Table(), sm.Table()), err
	}},
	{"fig10", func(sc Scale) (string, error) {
		spatial, err := Fig10AblationSpatial(sc, DefaultAblationOptions())
		if err != nil {
			return "", err
		}
		window, err := Fig10AblationWindow(sc, DefaultAblationOptions())
		return render(spatial.Table(), window.Table()), err
	}},
	{"fig11", func(sc Scale) (string, error) {
		r, err := Fig11Comparison(sc, DefaultComparisonOptions())
		return render(r.Tables()...), err
	}},
	{"tuning", func(sc Scale) (string, error) {
		cab, err := TuningCab(sc)
		if err != nil {
			return "", err
		}
		sm, err := TuningSM(sc)
		return render(cab.Table(), sm.Table()), err
	}},
	{"thresholds", func(sc Scale) (string, error) {
		r, err := ThresholdMethods(sc)
		return render(r.Table()) + fmt.Sprintf("F1 spread across methods: cab=%.3f sm=%.3f\n", r.F1Spread("cab"), r.F1Spread("sm")), err
	}},
}

// render prints tables the way slim-experiments always has: each followed
// by a blank line.
func render(tables ...eval.Table) string {
	var b strings.Builder
	for _, t := range tables {
		b.WriteString(t.Render())
		b.WriteString("\n")
	}
	return b.String()
}
