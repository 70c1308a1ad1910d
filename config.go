package slim

import (
	"errors"
	"fmt"
	"runtime"

	"slim/internal/candidates"
	"slim/internal/model"
	"slim/internal/similarity"
	"slim/internal/threshold"
)

// MatcherKind names the bipartite matching algorithm. There is one — the
// paper's greedy maximum-sum heuristic (Sec. 3.2). The type, its constant,
// Config.Matcher and MatchLinks' first parameter select nothing and remain
// only because the read-only cmd/slim-bench names them (ROADMAP item 8).
type MatcherKind string

// MatcherGreedy is the only legal value of Config.Matcher.
const MatcherGreedy MatcherKind = "greedy"

// ThresholdMethod selects the automated linkage stop-threshold detector.
type ThresholdMethod = threshold.Method

const (
	// ThresholdGMM is the paper's default: 2-component Gaussian mixture
	// with expected-F1 maximization (falls back to Otsu / midpoint on
	// degenerate fits).
	ThresholdGMM = threshold.MethodGMM
	// ThresholdOtsu uses Otsu's method directly.
	ThresholdOtsu = threshold.MethodOtsu
	// ThresholdKMeans uses 2-means cluster centers' midpoint.
	ThresholdKMeans = threshold.MethodKMeans
	// ThresholdNone disables the stop threshold: every matched pair with a
	// positive score is linked (the "full matching" the paper warns
	// against; useful for ablation).
	ThresholdNone = threshold.MethodNone
)

// LSHConfig enables and parameterizes the locality-sensitive-hashing
// candidate filter (Sec. 4). A zero field takes the paper's default
// (candidates.DefaultParams: t 0.6, step 48 windows, level 16, 4096
// buckets).
type LSHConfig = candidates.Params

// Ablation switches off individual similarity components, mirroring the
// paper's Sec. 5.4 study. The zero value is full SLIM.
type Ablation struct {
	// DisableMFN skips the mutually-furthest-neighbor alibi pass ("MNN").
	DisableMFN bool
	// AllPairs matches every bin pair per window instead of MNN pairing.
	AllPairs bool
	// DisableIDF removes the uniqueness award ("No IDF").
	DisableIDF bool
	// DisableNorm removes history-length normalization ("No Normalization").
	DisableNorm bool
}

// Config parameterizes a linkage run. The zero value plus Defaults() gives
// the paper's default setup: 15-minute windows, spatial level 12, 2 km/min
// speed bound, b = 0.5, greedy matching, GMM stop threshold, no LSH.
type Config struct {
	// WindowMinutes is the temporal window width (default 15).
	WindowMinutes float64
	// SpatialLevel is the grid level of history bins. 0 requests
	// auto-tuning via the Sec. 3.3 elbow probe.
	SpatialLevel int
	// MaxSpeedKmPerMin bounds entity movement; with WindowMinutes it
	// defines the runaway distance (default 2, the paper's US-highway
	// bound).
	MaxSpeedKmPerMin float64
	// B is the BM25-style normalization strength in [0, 1] (default 0.5).
	B float64
	// MinRecords drops entities with ≤ MinRecords records (default 5).
	MinRecords int
	// Workers bounds scoring parallelism (default GOMAXPROCS).
	Workers int
	// Matcher is MatcherGreedy or empty (see MatcherKind); anything else is
	// rejected.
	Matcher MatcherKind
	// Threshold selects the stop-threshold detector (default GMM).
	Threshold ThresholdMethod
	// LSH, when non-nil, enables the candidate filter.
	LSH *LSHConfig
	// Ablation disables similarity components for studies.
	Ablation Ablation
}

// Defaults returns the paper's default configuration. It is the one place
// the linkage defaults are written: normalize fills unset fields from it,
// and slim-link and slimd take their flag defaults from it.
func Defaults() Config {
	return Config{
		WindowMinutes:    15,
		SpatialLevel:     12,
		MaxSpeedKmPerMin: 2,
		B:                0.5,
		MinRecords:       5,
		Threshold:        ThresholdGMM,
	}
}

// scoring returns the absolute window grid of leaf width |w| (whole
// seconds, at least 1) and the similarity parameters a linkage with this
// normalized configuration scores with. The auto-tune probe scores with
// the same ones.
func (c *Config) scoring() (model.Windowing, similarity.Params) {
	w := model.Windowing{WidthSeconds: max(int64(c.WindowMinutes*60), 1)}
	p := similarity.DefaultParams(w.WidthMinutes(), c.MaxSpeedKmPerMin)
	p.B = c.B
	p.UseMFN = !c.Ablation.DisableMFN
	p.UseIDF = !c.Ablation.DisableIDF
	p.UseNorm = !c.Ablation.DisableNorm
	if c.Ablation.AllPairs {
		p.Pairing = similarity.PairingAllPairs
	}
	return w, p
}

// normalize fills unset fields with defaults and validates ranges.
func (c *Config) normalize() error {
	d := Defaults()
	if c.WindowMinutes == 0 {
		c.WindowMinutes = d.WindowMinutes
	}
	if c.WindowMinutes < 0 {
		return errors.New("slim: WindowMinutes must be positive")
	}
	if c.SpatialLevel < 0 || c.SpatialLevel > 30 {
		return fmt.Errorf("slim: SpatialLevel %d outside [0, 30]", c.SpatialLevel)
	}
	if c.MaxSpeedKmPerMin == 0 {
		c.MaxSpeedKmPerMin = d.MaxSpeedKmPerMin
	}
	if c.MaxSpeedKmPerMin < 0 {
		return errors.New("slim: MaxSpeedKmPerMin must be positive")
	}
	if c.B == 0 {
		c.B = d.B
	}
	if c.B < 0 || c.B > 1 {
		return fmt.Errorf("slim: B %g outside [0, 1]", c.B)
	}
	if c.MinRecords == 0 {
		c.MinRecords = d.MinRecords
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Matcher != "" && c.Matcher != MatcherGreedy {
		return fmt.Errorf("slim: unknown matcher %q", c.Matcher)
	}
	if c.Threshold == "" {
		c.Threshold = d.Threshold
	}
	switch c.Threshold {
	case ThresholdGMM, ThresholdOtsu, ThresholdKMeans, ThresholdNone:
	default:
		return fmt.Errorf("slim: unknown threshold method %q", c.Threshold)
	}
	if c.LSH != nil {
		p, err := c.LSH.Normalize()
		if err != nil {
			return fmt.Errorf("slim: %w", err)
		}
		c.LSH = &p
	}
	return nil
}
