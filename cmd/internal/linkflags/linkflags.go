// Package linkflags is the one definition of the linkage flags that
// slim-link and slimd share: the twelve flags that make up a slim.Config.
// Every flag default is the library's own: slim.Defaults() for the
// linkage, candidates.DefaultParams() for the -lsh family.
package linkflags

import (
	"flag"

	"slim"
	"slim/internal/candidates"
)

// Bind registers the linkage flags on fs and returns a function that
// assembles the slim.Config they describe; call it after fs is parsed.
func Bind(fs *flag.FlagSet) func() slim.Config {
	cfg, lsh := slim.Defaults(), candidates.DefaultParams()
	fs.Float64Var(&cfg.WindowMinutes, "window", cfg.WindowMinutes, "temporal window width in minutes")
	fs.IntVar(&cfg.SpatialLevel, "level", cfg.SpatialLevel, "spatial grid level (0 = auto-tune over the -e/-i datasets)")
	fs.Float64Var(&cfg.MaxSpeedKmPerMin, "max-speed", cfg.MaxSpeedKmPerMin, "maximum entity speed in km/min (runaway bound)")
	fs.Float64Var(&cfg.B, "b", cfg.B, "history-length normalization strength [0,1]")
	fs.IntVar(&cfg.MinRecords, "min-records", cfg.MinRecords, "drop entities of the -e/-i datasets with <= this many records")
	fs.IntVar(&cfg.Workers, "workers", cfg.Workers, "scoring goroutines (0 = GOMAXPROCS)")
	method := fs.String("threshold", string(cfg.Threshold), "stop threshold: gmm | otsu | 2means | none")
	useLSH := fs.Bool("lsh", false, "enable the LSH candidate filter")
	fs.Float64Var(&lsh.Threshold, "lsh-threshold", lsh.Threshold, "LSH signature similarity threshold t")
	fs.IntVar(&lsh.StepWindows, "lsh-step", lsh.StepWindows, "LSH query window size in temporal windows")
	fs.IntVar(&lsh.SpatialLevel, "lsh-level", lsh.SpatialLevel, "LSH dominating-cell spatial level")
	fs.IntVar(&lsh.NumBuckets, "lsh-buckets", lsh.NumBuckets, "LSH buckets per band")
	return func() slim.Config {
		out := cfg
		out.Threshold = slim.ThresholdMethod(*method)
		if *useLSH {
			filter := lsh
			out.LSH = &filter
		}
		return out
	}
}
