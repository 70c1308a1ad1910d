// Package linkflags is the one definition of the linkage flags that
// slim-link and slimd share: the twelve flags that make up a slim.Config.
package linkflags

import (
	"flag"

	"slim"
)

// Bind registers the linkage flags on fs and returns a function that
// assembles the slim.Config they describe; call it after fs is parsed.
func Bind(fs *flag.FlagSet) func() slim.Config {
	var (
		window       = fs.Float64("window", 15, "temporal window width in minutes")
		level        = fs.Int("level", 12, "spatial grid level (0 = auto-tune over the -e/-i datasets)")
		maxSpeed     = fs.Float64("max-speed", 2, "maximum entity speed in km/min (runaway bound)")
		b            = fs.Float64("b", 0.5, "history-length normalization strength [0,1]")
		minRecords   = fs.Int("min-records", 5, "drop entities of the -e/-i datasets with <= this many records")
		workers      = fs.Int("workers", 0, "scoring goroutines (0 = GOMAXPROCS)")
		thresholdM   = fs.String("threshold", "gmm", "stop threshold: gmm | otsu | 2means | none")
		useLSH       = fs.Bool("lsh", false, "enable the LSH candidate filter")
		lshThreshold = fs.Float64("lsh-threshold", 0.6, "LSH signature similarity threshold t")
		lshStep      = fs.Int("lsh-step", 48, "LSH query window size in temporal windows")
		lshLevel     = fs.Int("lsh-level", 16, "LSH dominating-cell spatial level")
		lshBuckets   = fs.Int("lsh-buckets", 4096, "LSH buckets per band")
	)
	return func() slim.Config {
		cfg := slim.Config{
			WindowMinutes:    *window,
			SpatialLevel:     *level,
			MaxSpeedKmPerMin: *maxSpeed,
			B:                *b,
			MinRecords:       *minRecords,
			Workers:          *workers,
			Threshold:        slim.ThresholdMethod(*thresholdM),
		}
		if *useLSH {
			cfg.LSH = &slim.LSHConfig{
				Threshold:    *lshThreshold,
				StepWindows:  *lshStep,
				SpatialLevel: *lshLevel,
				NumBuckets:   *lshBuckets,
			}
		}
		return cfg
	}
}
