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
		s, err := Fig4SpatioTemporal(sc, "cab", DefaultSpatioTemporalOptions())
		return render(s.Tables()...), err
	}},
	{"fig5", func(sc Scale) (string, error) {
		s, err := Fig4SpatioTemporal(sc, "sm", DefaultSpatioTemporalOptions())
		return render(s.Tables()...), err
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
	{"fig7", cabThenSM(func(sc Scale, dataset string) (Sweep, error) {
		return Fig7Workload(sc, dataset, DefaultWorkloadOptions())
	})},
	{"fig8", cabThenSM(func(sc Scale, dataset string) (Sweep, error) {
		opt := DefaultLSHLevelOptions()
		if dataset == "cab" {
			// The synthetic cab trace needs a more permissive threshold than
			// the paper's real trace (see EXPERIMENTS.md "LSH calibration").
			opt.Threshold = cabThreshold
		}
		return Fig8LSHLevels(sc, dataset, opt)
	})},
	{"fig9", cabThenSM(func(sc Scale, dataset string) (Sweep, error) {
		opt := DefaultLSHBucketOptions()
		if dataset == "cab" {
			opt.SigLevel = 12
			opt.Thresholds = []float64{cabThreshold, 0.2, 0.4}
		}
		return Fig9LSHBuckets(sc, dataset, opt)
	})},
	{"fig10", func(sc Scale) (string, error) {
		spatial, window, err := Fig10Ablation(sc, DefaultAblationOptions())
		return render(append(spatial.Tables(), window.Tables()...)...), err
	}},
	{"fig11", func(sc Scale) (string, error) {
		r, err := Fig11Comparison(sc, DefaultComparisonOptions())
		return render(r.Tables()...), err
	}},
	{"tuning", func(sc Scale) (string, error) {
		cab, err := Tuning(sc, "cab")
		if err != nil {
			return "", err
		}
		sm, err := Tuning(sc, "sm")
		return render(cab.Table(), sm.Table()), err
	}},
	{"thresholds", func(sc Scale) (string, error) {
		r, err := ThresholdMethods(sc)
		return render(r.Table()) + fmt.Sprintf("F1 spread across methods: cab=%.3f sm=%.3f\n", r.F1Spread("cab"), r.F1Spread("sm")), err
	}},
}

// cabThenSM prints a figure's cab sweep, then its sm sweep.
func cabThenSM(fig func(sc Scale, dataset string) (Sweep, error)) func(Scale) (string, error) {
	return func(sc Scale) (string, error) {
		var tables []eval.Table
		for _, dataset := range []string{"cab", "sm"} {
			s, err := fig(sc, dataset)
			if err != nil {
				return "", err
			}
			tables = append(tables, s.Tables()...)
		}
		return render(tables...), nil
	}
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
