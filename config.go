package slim

import (
	"errors"
	"fmt"
	"runtime"
)

// MatcherKind names the bipartite matching algorithm. There is one — the
// paper's greedy maximum-sum heuristic (Sec. 3.2). The type, its constant,
// Config.Matcher and MatchLinks' first parameter select nothing and remain
// only because the read-only cmd/slim-bench names them (ROADMAP item 8).
type MatcherKind string

// MatcherGreedy is the only legal value of Config.Matcher.
const MatcherGreedy MatcherKind = "greedy"

// ThresholdMethod selects the automated linkage stop-threshold detector.
type ThresholdMethod string

const (
	// ThresholdGMM is the paper's default: 2-component Gaussian mixture
	// with expected-F1 maximization (falls back to Otsu / midpoint on
	// degenerate fits).
	ThresholdGMM ThresholdMethod = "gmm"
	// ThresholdOtsu uses Otsu's method directly.
	ThresholdOtsu ThresholdMethod = "otsu"
	// ThresholdKMeans uses 2-means cluster centers' midpoint.
	ThresholdKMeans ThresholdMethod = "2means"
	// ThresholdNone disables the stop threshold: every matched pair with a
	// positive score is linked (the "full matching" the paper warns
	// against; useful for ablation).
	ThresholdNone ThresholdMethod = "none"
)

// LSHConfig enables and parameterizes the locality-sensitive-hashing
// candidate filter (Sec. 4).
type LSHConfig struct {
	// Threshold is the target signature similarity t (default 0.6).
	Threshold float64
	// StepWindows is the dominating-cell query size in temporal windows
	// (default 48: 12h of 15-minute windows, the paper's sweet spot).
	StepWindows int
	// SpatialLevel is the dominating-cell grid level (default 16).
	SpatialLevel int
	// NumBuckets is the bucket-array size per band (default 4096).
	NumBuckets int
}

func (c *LSHConfig) defaults() {
	if c.Threshold == 0 {
		c.Threshold = 0.6
	}
	if c.StepWindows == 0 {
		c.StepWindows = 48
	}
	if c.SpatialLevel == 0 {
		c.SpatialLevel = 16
	}
	if c.NumBuckets == 0 {
		c.NumBuckets = 4096
	}
}

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

// Defaults returns the paper's default configuration.
func Defaults() Config {
	return Config{
		WindowMinutes:    15,
		SpatialLevel:     12,
		MaxSpeedKmPerMin: 2,
		B:                0.5,
		MinRecords:       5,
		Matcher:          MatcherGreedy,
		Threshold:        ThresholdGMM,
	}
}

// normalize fills unset fields with defaults and validates ranges.
func (c *Config) normalize() error {
	if c.WindowMinutes == 0 {
		c.WindowMinutes = 15
	}
	if c.WindowMinutes < 0 {
		return errors.New("slim: WindowMinutes must be positive")
	}
	if c.SpatialLevel < 0 || c.SpatialLevel > 30 {
		return fmt.Errorf("slim: SpatialLevel %d outside [0, 30]", c.SpatialLevel)
	}
	if c.MaxSpeedKmPerMin == 0 {
		c.MaxSpeedKmPerMin = 2
	}
	if c.MaxSpeedKmPerMin < 0 {
		return errors.New("slim: MaxSpeedKmPerMin must be positive")
	}
	if c.B == 0 {
		c.B = 0.5
	}
	if c.B < 0 || c.B > 1 {
		return fmt.Errorf("slim: B %g outside [0, 1]", c.B)
	}
	if c.MinRecords == 0 {
		c.MinRecords = 5
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Matcher == "" {
		c.Matcher = MatcherGreedy
	}
	if c.Matcher != MatcherGreedy {
		return fmt.Errorf("slim: unknown matcher %q", c.Matcher)
	}
	if c.Threshold == "" {
		c.Threshold = ThresholdGMM
	}
	switch c.Threshold {
	case ThresholdGMM, ThresholdOtsu, ThresholdKMeans, ThresholdNone:
	default:
		return fmt.Errorf("slim: unknown threshold method %q", c.Threshold)
	}
	if c.LSH != nil {
		lshCopy := *c.LSH
		lshCopy.defaults()
		if lshCopy.Threshold <= 0 || lshCopy.Threshold >= 1 {
			return fmt.Errorf("slim: LSH threshold %g outside (0, 1)", lshCopy.Threshold)
		}
		if lshCopy.SpatialLevel < 0 || lshCopy.SpatialLevel > 30 {
			return fmt.Errorf("slim: LSH spatial level %d outside [0, 30]", lshCopy.SpatialLevel)
		}
		c.LSH = &lshCopy
	}
	return nil
}
