package slim

import (
	"io"

	"slim/internal/datagen"
	"slim/internal/eval"
	"slim/internal/geo"
	"slim/internal/model"
)

// Re-exported core types: the public API speaks these, the internal
// packages implement them.
type (
	// EntityID identifies an entity within one dataset.
	EntityID = model.EntityID
	// Record is one spatio-temporal usage record {entity, location, time}.
	Record = model.Record
	// Dataset is a collection of records from one location-based service.
	Dataset = model.Dataset
	// LatLng is a geographic position in degrees.
	LatLng = geo.LatLng
)

// NewRecord builds a record, clamping the position into valid ranges.
func NewRecord(entity EntityID, lat, lng float64, unix int64) Record {
	return Record{Entity: entity, LatLng: geo.LatLngFromDegrees(lat, lng), Unix: unix}
}

// ReadDatasetCSV parses a dataset from CSV (entity,lat,lng,unix; header
// optional).
func ReadDatasetCSV(r io.Reader, name string) (Dataset, error) {
	return model.ReadCSV(r, name)
}

// WriteDatasetCSV writes the dataset in the canonical CSV layout.
func WriteDatasetCSV(w io.Writer, d *Dataset) error {
	return model.WriteCSV(w, d)
}

// Synthetic workload generation (EXPERIMENTS.md "Where this reproduction
// departs" has how these stand in for the paper's proprietary traces).
type (
	// CabOptions parameterizes the synthetic San Francisco taxi trace.
	CabOptions = datagen.CabConfig
	// SMOptions parameterizes the synthetic social-media check-in stream.
	SMOptions = datagen.SMConfig
	// SampleOptions controls drawing two overlapping linkage inputs from a
	// ground dataset (entity intersection ratio, record inclusion
	// probability — Sec. 5.1 of the paper).
	SampleOptions = datagen.SampleConfig
	// SampledWorkload is a pair of anonymized datasets plus ground truth.
	SampledWorkload = datagen.Sampled
)

// GenerateCab builds the synthetic taxi trace.
func GenerateCab(opts CabOptions) Dataset { return datagen.Cab(opts) }

// GenerateSM builds the synthetic check-in stream.
func GenerateSM(opts SMOptions) Dataset { return datagen.SM(opts) }

// SampleWorkload draws two overlapping, downsampled, anonymized datasets
// from a ground dataset, with ground truth for evaluation.
func SampleWorkload(src *Dataset, opts SampleOptions) SampledWorkload {
	return datagen.Sample(src, opts)
}

// Metrics holds precision/recall/F1 of produced links against ground truth,
// with the TP/FP/FN counts behind them.
type Metrics = eval.PRF

// Evaluate scores links against a ground-truth map (E entity → I entity).
func Evaluate(links []Link, truth map[EntityID]EntityID) Metrics { return eval.Score(links, truth) }
