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
// along with both curves for inspection. It probes what NewLinker would:
// the entities above cfg.MinRecords, on cfg's window grid, scored with
// cfg's similarity parameters. So the level is the one NewLinker uses
// with cfg.SpatialLevel 0, and the datasets NewLinker refuses it refuses
// with the same error.
func AutoTuneSpatialLevel(dsE, dsI Dataset, cfg Config) (int, TuneCurve, TuneCurve, error) {
	in, err := prepare(dsE, dsI, cfg)
	if err != nil {
		return 0, TuneCurve{}, TuneCurve{}, err
	}
	level, ce, ci := tuning.SpatialLevel(&in.ge, &in.gi, in.wnd, in.params)
	return level, ce, ci, nil
}
