package slim

import (
	"slim/internal/tuning"
)

// TuneCurve is the spatial-level probe curve of one dataset: the average
// pair/self-similarity ratio per candidate level and the detected elbow
// (Level() is the level at it).
type TuneCurve = tuning.Curve

// AutoTuneSpatialLevel runs the Sec. 3.3 probe on both datasets and
// returns the level SLIM should use (the higher of the two elbows),
// along with both curves for inspection.
func AutoTuneSpatialLevel(dsE, dsI Dataset, cfg Config) (int, TuneCurve, TuneCurve, error) {
	if err := cfg.normalize(); err != nil {
		return 0, TuneCurve{}, TuneCurve{}, err
	}
	opt := tuning.DefaultOptions()
	opt.WindowSeconds = cfg.windowSeconds()
	opt.MaxSpeedKmPerMin = cfg.MaxSpeedKmPerMin
	opt.B = cfg.B
	ge, gi := dsE.GroupByEntity(-1), dsI.GroupByEntity(-1)
	level, c1, c2 := tuning.AutoSpatialLevelPair(&ge, &gi, opt)
	return level, c1, c2, nil
}
