package storage

import (
	"fmt"

	"slim"
	"slim/internal/engine"
	"slim/internal/obs"
)

// RecoverInfo describes what recovery found in a data directory.
type RecoverInfo struct {
	// Recovered is true when the directory held prior state (a snapshot
	// and/or WAL batches); the caller's seed datasets were ignored then.
	Recovered bool
	// SnapshotSeq is the last WAL sequence covered by the loaded
	// snapshot (0 when none was found).
	SnapshotSeq uint64
	// ReplayedBatches / ReplayedRecords count the WAL tail replayed on
	// top of the snapshot.
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
// On an empty directory the caller's seed datasets become the persistent
// seeds. On a directory with prior state the persisted seeds win (the
// caller's are ignored — flags cannot silently fork a data directory),
// the newest valid snapshot is loaded, the WAL tail is replayed on top
// of it (tolerating a torn final entry, the expected artifact of a
// crash mid-append), and the last published result is installed.
//
// The returned engine holds the replayed records in its pending buffers
// and has the Store attached as its checkpoint hook; new ingest goes
// through an ingest.Plane with the Store attached as its logger. The
// caller owns both lifetimes: Engine.Close first, then Store.Close (which
// takes a final checkpoint). The engine configuration is not persisted;
// callers must boot with the same linkage configuration across restarts.
func Recover(dir string, seedE, seedI slim.Dataset, cfg engine.Config, opts Options) (*engine.Engine, *Store, RecoverInfo, error) {
	var info RecoverInfo
	fs := opts.fs()
	if err := fs.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, info, err
	}
	// Sweep snapshot temp files orphaned by a crash mid-write, so a
	// process crash-looping during checkpoints cannot fill the disk with
	// full-state-sized leftovers.
	if err := removeOrphanTemps(fs, dir); err != nil {
		return nil, nil, info, err
	}

	snap, err := loadNewestSnapshot(fs, dir)
	if err != nil {
		return nil, nil, info, err
	}
	fresh := snap == nil
	if !fresh {
		info.Recovered = true
		info.SnapshotSeq = snap.lastSeq
	} else {
		// Fresh directory: the caller's seeds are quantized exactly like
		// every other persisted record so that state is restart-stable.
		snap = &snapshotData{
			seedE: quantizeDataset(seedE),
			seedI: quantizeDataset(seedI),
		}
	}

	lastSeq, batches, err := replayWAL(fs, dir, snap.lastSeq, func(b Batch) error {
		if b.Tag == TagE {
			snap.streamE = append(snap.streamE, b.Recs...)
		} else {
			snap.streamI = append(snap.streamI, b.Recs...)
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
		// Replayed batches invalidate the snapshot's result: it predates
		// them, and serving it would un-acknowledge recovered ingest.
		snap.result = nil
	}

	// Each process generation appends to a fresh segment, past any torn
	// tail left by a crash.
	nextIdx := uint64(1)
	if segs, err := listSegments(fs, dir); err != nil {
		return nil, nil, info, err
	} else if len(segs) > 0 {
		nextIdx = segs[len(segs)-1].index + 1
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
		dir:        dir,
		opts:       opts,
		fs:         fs,
		walm:       walm,
		wal:        w,
		seedE:      snap.seedE,
		seedI:      snap.seedI,
		streamE:    snap.streamE,
		streamI:    snap.streamI,
		nextSeq:    lastSeq + 1,
		lastResult: snap.result,
		health:     obs.NewHealth(reg, "storage"),
		stopReopen: make(chan struct{}),
	}
	st.registerMetrics(reg)
	info.SeedRecords = len(st.seedE.Records) + len(st.seedI.Records)
	info.StreamedRecords = len(st.streamE) + len(st.streamI)

	eng, err := engine.New(st.seedE, st.seedI, cfg)
	if err != nil {
		_ = w.Close()
		return nil, nil, info, err
	}
	st.eng = eng
	eng.SetPersister(st)
	// The replay feed: the WAL already holds these records, so they are
	// buffered, not logged.
	eng.AddE(st.streamE...)
	eng.AddI(st.streamI...)
	if snap.result != nil {
		eng.RestoreResult(slim.Result{
			Links:           snap.result.links,
			Matched:         snap.result.links,
			Threshold:       snap.result.threshold,
			ThresholdMethod: snap.result.method,
			SpatialLevel:    snap.result.spatialLevel,
		}, snap.result.version)
		info.HasResult = true
	}

	// A fresh directory gets an initial checkpoint immediately, so the
	// seed datasets are durable from boot: every later recovery finds a
	// snapshot and the caller's seed flags are never needed again.
	if fresh {
		if _, err := st.Checkpoint(); err != nil {
			_ = w.Close()
			return nil, nil, info, err
		}
	}
	return eng, st, info, nil
}

func quantizeDataset(d slim.Dataset) slim.Dataset {
	out := slim.Dataset{Name: d.Name, Records: make([]slim.Record, len(d.Records))}
	for i, r := range d.Records {
		out.Records[i] = QuantizeRecord(r)
	}
	return out
}
