package storage

import (
	"fmt"
	"time"

	"slim"
	"slim/internal/engine"
	"slim/internal/obs"
)

// RecoverInfo describes what recovery found in a data directory.
type RecoverInfo struct {
	// Recovered is true when the directory held prior state (a base
	// and/or WAL batches); the caller's seed datasets were ignored then.
	Recovered bool
	// SnapshotSeq is the WAL sequence the base file stands at: 0 for a
	// directory this release initialised, N for one whose base is the last
	// full snapshot of a release that compacted batches 1..N into it.
	SnapshotSeq uint64
	// ReplayedBatches / ReplayedRecords count every batch past the base —
	// the whole retained log, not a tail above the last checkpoint.
	ReplayedBatches int
	ReplayedRecords int
	// SeedRecords / StreamedRecords describe the recovered engine state.
	SeedRecords     int
	StreamedRecords int
	// HasResult is true when a persisted linkage result was installed,
	// so queries can be served before the first fresh relink.
	HasResult bool
}

// Recover opens (or initializes) a data directory and returns a ready
// engine wired to its Store.
//
// On an empty directory the caller's seed datasets (opts.Seeds' when it is
// set) become the persistent seeds. Recover owns their records: it
// quantizes them in place (QuantizeDataset), validates them as the engine
// would validate them, groups them in place (model.Dataset.GroupInPlace)
// and writes them once, as the base file, before the engine is built over
// them without a copy, so the boot holds each seed record once. Seeds that fail validation are
// never written. A boot that fails after the write (an invalid
// configuration) leaves them in the directory, where the next recovery
// finds them as if this one had succeeded.
// On a directory with prior state the persisted seeds win (the caller's
// are ignored and opts.Seeds is not called — flags cannot silently fork a
// data directory): the base is decoded, the engine is built over its
// seeds, and every batch past it is replayed from the WAL straight into
// the engine, batch by batch (tolerating a torn final entry in a segment, the expected artifact of a
// crash mid-append, and failing stop on a hole in the sequence). A
// persisted result is installed only when it was checkpointed at exactly
// the last replayed sequence; otherwise the caller relinks before serving.
//
// The returned engine holds the replayed records in its pending buffers
// and has the Store attached as its checkpoint hook; new ingest goes
// through an ingest.Plane with the Store attached as its logger. Nothing
// Recover decoded stays reachable from the Store. The caller owns both
// lifetimes: Engine.Close first, then Store.Close (which takes a final
// checkpoint). The engine configuration is not persisted; callers must
// boot with the same linkage configuration across restarts.
func Recover(dir string, seedE, seedI slim.Dataset, cfg engine.Config, opts Options) (*engine.Engine, *Store, RecoverInfo, error) {
	var info RecoverInfo
	fs := opts.fs()
	if err := fs.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, info, err
	}
	// Sweep temp files orphaned by a crash mid-write, so a process
	// crash-looping during checkpoints cannot fill the disk with leftovers.
	if err := removeOrphanTemps(fs, dir); err != nil {
		return nil, nil, info, err
	}

	base, err := loadNewestSnapshot(fs, dir)
	if err != nil {
		return nil, nil, info, err
	}
	fresh := base == nil
	var basePath string
	var baseTook time.Duration
	if !fresh {
		info.Recovered = true
		info.SnapshotSeq = base.lastSeq
	} else {
		// Fresh directory: the caller's seeds are quantized in place exactly
		// like every other persisted record so that state is
		// restart-stable, and become durable at once, as the base, before
		// the engine is built over them. It is the one checkpoint that
		// writes records, and the only time this file is written: every
		// later recovery finds the seeds there, and the caller's seed flags
		// are never needed again.
		if opts.Seeds != nil {
			if seedE, seedI, err = opts.Seeds(); err != nil {
				return nil, nil, info, err
			}
		}
		QuantizeDataset(seedE)
		QuantizeDataset(seedI)
		// Persisted seeds win on every later boot, so seeds the engine
		// would refuse must fail this boot before they are written.
		if err := seedE.Validate(); err != nil {
			return nil, nil, info, fmt.Errorf("slim: dataset E: %w", err)
		}
		if err := seedI.Validate(); err != nil {
			return nil, nil, info, fmt.Errorf("slim: dataset I: %w", err)
		}
		// Grouped in place, each entity's records one sorted run, the
		// seeds are built over without a copy, here and on every restart
		// from the base.
		seedE.GroupInPlace()
		seedI.GroupInPlace()
		base = &snapshotData{seedE: seedE, seedI: seedI}
		start := time.Now()
		if basePath, err = writeSnapshot(fs, dir, base); err != nil {
			return nil, nil, info, err
		}
		baseTook = time.Since(start)
	}

	eng, err := engine.New(base.seedE, base.seedI, cfg)
	if err != nil {
		return nil, nil, info, err
	}
	// The replay feed: the directory already holds these records, so they
	// are buffered, not logged.
	eng.AddE(base.streamE...)
	eng.AddI(base.streamI...)
	lastSeq, batches, err := replayWAL(fs, dir, base.lastSeq, func(b Batch) error {
		if b.Tag == TagE {
			eng.AddE(b.Recs...)
		} else {
			eng.AddI(b.Recs...)
		}
		info.ReplayedRecords += len(b.Recs)
		return nil
	})
	if err != nil {
		return nil, nil, info, fmt.Errorf("storage: wal replay: %w", err)
	}
	info.ReplayedBatches = batches
	if batches > 0 {
		info.Recovered = true
	}
	info.SeedRecords = len(base.seedE.Records) + len(base.seedI.Records)
	info.StreamedRecords = len(base.streamE) + len(base.streamI) + info.ReplayedRecords

	// The newest result that describes exactly the replayed log: a result
	// checkpoint, else the result section of a base nothing was logged
	// after. Anything older predates replayed batches, and serving it would
	// un-acknowledge recovered ingest.
	result, err := loadResult(fs, dir, lastSeq)
	if err != nil {
		return nil, nil, info, err
	}
	if result == nil && base.lastSeq == lastSeq {
		result = base.result
	}
	if result != nil {
		eng.RestoreResult(slim.Result{
			Links:           result.links,
			Matched:         result.links,
			Threshold:       result.threshold,
			ThresholdMethod: result.method,
			SpatialLevel:    result.spatialLevel,
		}, result.version)
		info.HasResult = true
	}

	// Each process generation appends to a fresh segment, past any torn
	// tail left by a crash.
	nextIdx := uint64(1)
	if segs, err := listNumbered(fs, dir, segPrefix, segSuffix); err != nil {
		return nil, nil, info, err
	} else if len(segs) > 0 {
		nextIdx = segs[len(segs)-1].n + 1
	}
	reg := opts.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	walm := newWALMetrics(reg)
	w, err := openWAL(fs, dir, nextIdx, opts.SegmentBytes, opts.FsyncInterval, walm)
	if err != nil {
		return nil, nil, info, err
	}

	st := &Store{
		dir:             dir,
		opts:            opts,
		fs:              fs,
		walm:            walm,
		eng:             eng,
		wal:             w,
		seedRecords:     info.SeedRecords,
		streamedRecords: info.StreamedRecords,
		nextSeq:         lastSeq + 1,
		lastResult:      result,
		health:          obs.NewHealth(reg, "storage"),
		stopReopen:      make(chan struct{}),
	}
	st.registerMetrics(reg)
	eng.SetPersister(st)
	if fresh {
		st.noteCheckpoint(base.lastSeq, basePath, baseTook)
	}
	return eng, st, info, nil
}

// QuantizeDataset puts a seed dataset's records on the codec's E7 grid
// (QuantizeRecord) in place: the records a data directory stores and every
// recovery rebuilds. Both of slimd's boot paths build the engine over
// seeds passed through it, so the same seeds link the same with and
// without a data directory, as records ingested over either route do. The
// caller must own the records: they are rewritten, not copied.
func QuantizeDataset(d slim.Dataset) {
	for i := range d.Records {
		d.Records[i] = QuantizeRecord(d.Records[i])
	}
}
