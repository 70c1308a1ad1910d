package experiments

import (
	"fmt"

	"slim"
	"slim/internal/candidates"
	"slim/internal/eval"
)

// Cell is one grid point of a sweep: the row and column it prints at, and
// the run that made it.
type Cell struct {
	Row, Col string
	runResult
}

// Sweep is one figure's grid on one dataset: its cells in run order and the
// panels that print them.
type Sweep struct {
	Dataset string
	// Base is a filter sweep's brute-force run, the base of its relative F1
	// and speed-up (zero in the other sweeps).
	Base   runResult
	Cells  []Cell
	corner string
	panels []panel
}

// panel is one table of a sweep: its title and how one cell prints.
type panel struct {
	title string
	cell  func(Cell) string
}

// At returns the cell printed at (row, col); ok=false if none landed there.
func (s Sweep) At(row, col string) (Cell, bool) {
	for _, c := range s.Cells {
		if c.Row == row && c.Col == col {
			return c, true
		}
	}
	return Cell{}, false
}

// RelativeF1 is c's F1 relative to the base run's.
func (s Sweep) RelativeF1(c Cell) float64 {
	return eval.RelativeF1(c.Metrics.F1, s.Base.Metrics.F1)
}

// SpeedUp is the base run's record comparisons over c's.
func (s Sweep) SpeedUp(c Cell) float64 {
	return eval.SpeedUp(s.Base.Res.Stats.RecordComparisons, c.Res.Stats.RecordComparisons)
}

// add runs SLIM at cfg on w and appends the run as the cell at (row, col).
func (s *Sweep) add(row, col string, w slim.SampledWorkload, cfg slim.Config) error {
	rr, err := run(w, cfg)
	if err == nil {
		s.Cells = append(s.Cells, Cell{row, col, rr})
	}
	return err
}

// Tables renders the sweep on its row × column grid, one table per panel.
// Both axes list their labels in first-seen order, so a sweep's loop order
// is its table layout; a grid point no cell landed on prints "-". The
// corner heads the row-label column.
func (s Sweep) Tables() []eval.Table {
	var rows, cols []string
	seenRow, seenCol := map[string]bool{}, map[string]bool{}
	for _, c := range s.Cells {
		if !seenRow[c.Row] {
			seenRow[c.Row] = true
			rows = append(rows, c.Row)
		}
		if !seenCol[c.Col] {
			seenCol[c.Col] = true
			cols = append(cols, c.Col)
		}
	}
	tables := make([]eval.Table, len(s.panels))
	for i, p := range s.panels {
		tables[i] = eval.Table{Title: p.title, Header: append([]string{s.corner}, cols...)}
		for _, r := range rows {
			line := []string{r}
			for _, k := range cols {
				if c, ok := s.At(r, k); ok {
					line = append(line, p.cell(c))
				} else {
					line = append(line, "-")
				}
			}
			tables[i].Rows = append(tables[i].Rows, line)
		}
	}
	return tables
}

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

// Fig4SpatioTemporal reproduces Fig. 4 on "cab" and Fig. 5 on "sm": the
// spatio-temporal sweep over the dataset's default sample. Rows are window
// widths, columns spatial levels; the pairing-work panel counts bin-pair
// distance evaluations, which grow with both axes (Fig. 4d/5d).
func Fig4SpatioTemporal(sc Scale, dataset string, opt SpatioTemporalOptions) (Sweep, error) {
	w := defaultSample(sc, dataset, 10)
	title := func(quantity string) string {
		return fmt.Sprintf("%s: %s vs (spatial level x window width)", dataset, quantity)
	}
	s := Sweep{Dataset: dataset, corner: "window\\level", panels: []panel{
		{title("precision"), func(c Cell) string { return fmt.Sprintf("%.3f", c.Metrics.Precision) }},
		{title("recall"), func(c Cell) string { return fmt.Sprintf("%.3f", c.Metrics.Recall) }},
		{title("alibi-pairs"), func(c Cell) string { return fmt.Sprintf("%d", c.Res.Stats.AlibiBinPairs) }},
		{title("bin-comparisons (pairing work)"), func(c Cell) string { return fmt.Sprintf("%d", c.Res.Stats.BinComparisons) }},
	}}
	for _, windowMin := range opt.WindowsMin {
		for _, level := range opt.Levels {
			if err := s.add(fmt.Sprintf("%gmin", windowMin), fmt.Sprintf("%d", level), w, baseConfig(windowMin, level, sc.Workers)); err != nil {
				return Sweep{}, err
			}
		}
	}
	return s, nil
}

// WorkloadOptions sets the Fig. 7 grid: F1 and runtime as a function of
// the record inclusion probability, one series per intersection ratio.
type WorkloadOptions struct {
	InclusionProbs []float64
	Ratios         []float64
}

// DefaultWorkloadOptions mirrors the paper's axes.
func DefaultWorkloadOptions() WorkloadOptions {
	return WorkloadOptions{
		InclusionProbs: []float64{0.1, 0.3, 0.5, 0.7, 0.9},
		Ratios:         []float64{0.3, 0.5, 0.7, 0.9},
	}
}

// Fig7Workload reproduces Fig. 7a/7b on "cab" and 7c/7d on "sm": every cell
// links its own sample of the dataset's ground. Rows are intersection
// ratios, columns inclusion probabilities.
func Fig7Workload(sc Scale, dataset string, opt WorkloadOptions) (Sweep, error) {
	g := ground(sc, dataset)
	title := func(quantity string) string {
		return fmt.Sprintf("%s: %s vs inclusion probability (series = intersection ratio)", dataset, quantity)
	}
	s := Sweep{Dataset: dataset, corner: "ratio\\incl", panels: []panel{
		{title("F1"), func(c Cell) string { return fmt.Sprintf("%.3f", c.Metrics.F1) }},
		{title("runtime (ms)"), func(c Cell) string { return fmt.Sprintf("%d", c.Elapsed.Milliseconds()) }},
	}}
	seed := sc.Seed + 30
	for _, ratio := range opt.Ratios {
		for _, prob := range opt.InclusionProbs {
			seed++
			w := workload(&g, ratio, prob, prob, seed)
			if err := s.add(fmt.Sprintf("%g", ratio), fmt.Sprintf("%g", prob), w, baseConfig(15, 12, sc.Workers)); err != nil {
				return Sweep{}, err
			}
		}
	}
	return s, nil
}

// LSHLevelOptions sets the Fig. 8 grid: LSH relative F1 and speed-up as a
// function of the signature spatial level and temporal step size.
type LSHLevelOptions struct {
	SigLevels []int
	Steps     []int
	Threshold float64
	Buckets   int
}

// DefaultLSHLevelOptions mirrors the paper's axes, subsampled, at the
// paper's filter threshold and bucket count.
func DefaultLSHLevelOptions() LSHLevelOptions {
	p := candidates.DefaultParams()
	return LSHLevelOptions{
		SigLevels: []int{4, 8, 12, 16, 20},
		Steps:     []int{8, 16, 48, 96},
		Threshold: p.Threshold,
		Buckets:   p.NumBuckets,
	}
}

// Fig8LSHLevels reproduces Fig. 8a/8b on "cab" and 8c/8d on "sm": the filter
// at each signature level and temporal step, against the brute-force base.
// Rows are temporal steps, columns signature levels.
func Fig8LSHLevels(sc Scale, dataset string, opt LSHLevelOptions) (Sweep, error) {
	w := defaultSample(sc, dataset, 40)
	s, err := filterSweep(w, sc, dataset, "step\\level")
	if err != nil {
		return Sweep{}, err
	}
	s.panels = []panel{
		{fmt.Sprintf("%s: relative F1 vs (signature level x temporal step), baseline F1=%.3f", dataset, s.Base.Metrics.F1),
			func(c Cell) string { return fmt.Sprintf("%.3f", s.RelativeF1(c)) }},
		{fmt.Sprintf("%s: speed-up vs (signature level x temporal step)", dataset),
			func(c Cell) string { return fmt.Sprintf("%.1fx", s.SpeedUp(c)) }},
	}
	for _, level := range opt.SigLevels {
		for _, step := range opt.Steps {
			cfg := baseConfig(15, 12, sc.Workers)
			cfg.LSH = &slim.LSHConfig{Threshold: opt.Threshold, StepWindows: step, SpatialLevel: level, NumBuckets: opt.Buckets}
			if err := s.add(fmt.Sprintf("%d", step), fmt.Sprintf("%d", level), w, cfg); err != nil {
				return Sweep{}, err
			}
		}
	}
	return s, nil
}

// LSHBucketOptions sets the Fig. 9 grid: speed-up as a function of the
// bucket-array size, one series per LSH similarity threshold.
type LSHBucketOptions struct {
	BucketExponents []int // bucket counts 2^e
	Thresholds      []float64
	SigLevel        int
	Step            int
}

// DefaultLSHBucketOptions mirrors the paper (buckets 2^8..2^20, t .4-.8),
// subsampled, at the paper's signature level and step.
func DefaultLSHBucketOptions() LSHBucketOptions {
	p := candidates.DefaultParams()
	return LSHBucketOptions{
		BucketExponents: []int{8, 10, 12, 14, 16, 18, 20},
		Thresholds:      []float64{0.4, 0.6, 0.8},
		SigLevel:        p.SpatialLevel,
		Step:            p.StepWindows,
	}
}

// Fig9LSHBuckets reproduces Fig. 9a on "cab" and 9b on "sm": the filter at
// each bucket count and threshold, against the brute-force base. Rows are
// thresholds, columns bucket counts; one panel prints the speed-up with
// the relative F1 in parentheses.
func Fig9LSHBuckets(sc Scale, dataset string, opt LSHBucketOptions) (Sweep, error) {
	w := defaultSample(sc, dataset, 50)
	s, err := filterSweep(w, sc, dataset, "t\\buckets")
	if err != nil {
		return Sweep{}, err
	}
	s.panels = []panel{{fmt.Sprintf("%s: speed-up (relF1) vs number of buckets, series = LSH threshold", dataset),
		func(c Cell) string { return fmt.Sprintf("%.1fx (%.2f)", s.SpeedUp(c), s.RelativeF1(c)) }}}
	for _, thr := range opt.Thresholds {
		for _, e := range opt.BucketExponents {
			cfg := baseConfig(15, 12, sc.Workers)
			cfg.LSH = &slim.LSHConfig{Threshold: thr, StepWindows: opt.Step, SpatialLevel: opt.SigLevel, NumBuckets: 1 << uint(e)}
			if err := s.add(fmt.Sprintf("%g", thr), fmt.Sprintf("2^%d", e), w, cfg); err != nil {
				return Sweep{}, err
			}
		}
	}
	return s, nil
}

// filterSweep starts a filter sweep on w with its brute-force base run.
func filterSweep(w slim.SampledWorkload, sc Scale, dataset, corner string) (Sweep, error) {
	base, err := run(w, baseConfig(15, 12, sc.Workers))
	return Sweep{Dataset: dataset, Base: base, corner: corner}, err
}

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

// Fig10Ablation reproduces Fig. 10 on Cab: F1 of every variant against the
// spatial level at 15-minute windows (10a), and against the window width at
// spatial level 12 (10b), each on its own default sample. Rows are
// variants, columns the axis.
func Fig10Ablation(sc Scale, opt AblationOptions) (spatial, window Sweep, err error) {
	var levels []float64
	for _, level := range opt.Levels {
		levels = append(levels, float64(level))
	}
	axes := []struct {
		name string
		xs   []float64
		cfg  func(x float64) slim.Config
	}{
		{"spatial-level", levels, func(x float64) slim.Config { return baseConfig(15, int(x), sc.Workers) }},
		{"window-min", opt.WindowsMin, func(x float64) slim.Config { return baseConfig(x, 12, sc.Workers) }},
	}
	var out [2]Sweep
	for i, axis := range axes {
		w := defaultSample(sc, "cab", 60+int64(i))
		out[i] = Sweep{Dataset: "cab", corner: "variant\\" + axis.name, panels: []panel{{fmt.Sprintf("cab: F1 vs %s per variant", axis.name),
			func(c Cell) string { return fmt.Sprintf("%.3f", c.Metrics.F1) }}}}
		for _, v := range ablationVariants {
			for _, x := range axis.xs {
				cfg := axis.cfg(x)
				cfg.Ablation = v.Abl
				if err := out[i].add(v.Name, fmt.Sprintf("%g", x), w, cfg); err != nil {
					return Sweep{}, Sweep{}, err
				}
			}
		}
	}
	return out[0], out[1], nil
}
