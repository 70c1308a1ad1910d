package storage

import (
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"slim"
	"slim/internal/engine"
	"slim/internal/obs"
)

// ErrDegraded is returned by write operations while the store is in
// degraded read-only mode: a WAL append or fsync failed persistently,
// the active segment is quarantined, and a background loop is retrying
// to reopen a fresh segment with capped exponential backoff. Reads
// (links, stats, metrics) keep serving; writers should surface 503 +
// Retry-After, distinct from admission-control shedding (429).
var ErrDegraded = errors.New("storage: degraded (WAL write path down, reopen in progress)")

// DefaultReopenBackoff is the initial degraded-mode reopen retry delay.
const DefaultReopenBackoff = 50 * time.Millisecond

// DefaultReopenMaxBackoff caps the degraded-mode reopen retry delay.
const DefaultReopenMaxBackoff = 5 * time.Second

// DefaultSnapshotEveryRuns is the auto-checkpoint relink cadence.
const DefaultSnapshotEveryRuns = 8

// Options parameterizes a data directory.
type Options struct {
	// FsyncInterval selects the WAL durability policy: 0 fsyncs inline on
	// every append, >0 group-commits on that interval, <0 never fsyncs
	// (see the policy comment in wal.go).
	FsyncInterval time.Duration
	// SegmentBytes is the WAL rotation size (0 = DefaultSegmentBytes).
	SegmentBytes int64
	// SnapshotEveryRuns checkpoints after this many relinks (0 =
	// DefaultSnapshotEveryRuns, <0 = never on run count).
	SnapshotEveryRuns int
	// Logger, when set, receives auto-checkpoint failures (which have no
	// caller to report to).
	Logger *slog.Logger
	// Registry, when set, receives the storage metrics (WAL append/fsync
	// latency, logged batch/record/byte counters, snapshot duration and
	// size). A nil Registry wires the metrics to a private, unscraped
	// registry, so instrumentation is always on.
	Registry *obs.Registry
	// FS overrides the filesystem implementation (nil = OSFS). Tests use
	// NewFaultFS to fail any Write/Sync/Rename/Close at any call index.
	FS FS
	// ReopenBackoff is the initial degraded-mode reopen retry delay
	// (0 = DefaultReopenBackoff); it doubles per attempt up to
	// ReopenMaxBackoff (0 = DefaultReopenMaxBackoff).
	ReopenBackoff    time.Duration
	ReopenMaxBackoff time.Duration
}

func (o Options) snapshotEveryRuns() int {
	if o.SnapshotEveryRuns == 0 {
		return DefaultSnapshotEveryRuns
	}
	return o.SnapshotEveryRuns
}

func (o Options) fs() FS {
	if o.FS == nil {
		return OSFS
	}
	return o.FS
}

func (o Options) reopenBackoff() time.Duration {
	if o.ReopenBackoff <= 0 {
		return DefaultReopenBackoff
	}
	return o.ReopenBackoff
}

func (o Options) reopenMaxBackoff() time.Duration {
	if o.ReopenMaxBackoff <= 0 {
		return DefaultReopenMaxBackoff
	}
	return o.ReopenMaxBackoff
}

// Store is the durable home of one engine's state: the ingest plane logs
// every batch to its WAL before the engine buffers it, and a checkpoint
// persists the last published result next to the log. The data directory
// is the only holder of raw records — the base file has the seeds, the WAL
// segments every streamed batch, and nothing is truncated — so the Store
// itself keeps counters, never a record: its footprint does not grow with
// what it has logged. It implements engine.Persister and
// ingest.BatchLogger.
type Store struct {
	dir  string
	opts Options
	fs   FS
	walm walMetrics
	// eng is the engine Recover built over this store's state: the one the
	// replayed log was fed to, and the one a degraded-mode reopen
	// re-buffers re-logged batches into.
	eng *engine.Engine

	mu  sync.Mutex
	wal *wal
	// seedRecords / streamedRecords count what the directory holds: the
	// base's seed records, and every record streamed since (the base's own
	// stream sections, if an older release wrote any, plus every batch
	// logged after it).
	seedRecords     int
	streamedRecords int
	nextSeq         uint64
	lastResult      *resultData
	runsSinceSnap   int
	closed          bool

	// Degraded read-only mode: set by the first persistent WAL failure,
	// cleared when the supervised reopen loop brings a fresh segment up.
	// The health tracker carries the cause and since-when for /healthz.
	degraded      atomic.Bool
	health        *obs.Health
	reopenRetries atomic.Uint64
	stopReopen    chan struct{}
	stopOnce      sync.Once

	// snapMu serializes whole checkpoints (auto trigger vs. the manual
	// /v1/snapshot endpoint vs. Close).
	snapMu sync.Mutex
	// autoCP coalesces async auto-checkpoints: at most one in flight.
	autoCP atomic.Bool

	batchesLogged  atomic.Uint64
	recordsLogged  atomic.Uint64
	walBytes       atomic.Int64
	snapshots      atomic.Uint64
	lastSnapSeq    atomic.Uint64
	lastSnapUnixMs atomic.Int64

	snapshotSeconds *obs.Histogram
	snapshotBytes   *obs.Gauge
}

// newWALMetrics registers the WAL latency histograms on reg.
func newWALMetrics(reg *obs.Registry) walMetrics {
	return walMetrics{
		appendSeconds: reg.Histogram("slim_wal_append_seconds",
			"Latency of one WAL append call (framed write, plus the fsync under the inline policy).", nil),
		fsyncSeconds: reg.Histogram("slim_wal_fsync_seconds",
			"Latency of each WAL fsync, whichever policy issued it.", nil),
	}
}

// registerMetrics wires the store's counters into reg. The counter and
// gauge closures read the same atomics /v1/stats reports, so the two
// surfaces can never disagree.
func (s *Store) registerMetrics(reg *obs.Registry) {
	reg.CounterFunc("slim_wal_batches_total",
		"Record batches appended to the WAL since this process opened the directory.",
		s.batchesLogged.Load)
	reg.CounterFunc("slim_wal_records_total",
		"Records appended to the WAL since this process opened the directory.",
		s.recordsLogged.Load)
	reg.CounterFunc("slim_wal_appended_bytes_total",
		"WAL bytes appended since this process opened the directory.",
		func() uint64 { return uint64(s.walBytes.Load()) })
	reg.GaugeFunc("slim_wal_next_seq",
		"Sequence number the next logged batch will carry.",
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(s.nextSeq)
		})
	reg.CounterFunc("slim_storage_reopen_retries_total",
		"Degraded-mode WAL reopen attempts (successful or not) since this process started.",
		s.reopenRetries.Load)
	reg.CounterFunc("slim_storage_snapshots_total",
		"Checkpoints completed by this process.", s.snapshots.Load)
	reg.GaugeFunc("slim_storage_last_snapshot_seq",
		"Last WAL sequence logged when the newest checkpoint was taken.",
		func() float64 { return float64(s.lastSnapSeq.Load()) })
	s.snapshotSeconds = reg.Histogram("slim_storage_snapshot_seconds",
		"Duration of one checkpoint: result capture, file write, and removal of the file it supersedes.", nil)
	s.snapshotBytes = reg.Gauge("slim_storage_snapshot_bytes",
		"Size of the file the newest checkpoint wrote.")
}

// LogE durably logs a first-dataset batch given as records: the
// record-level convenience over LogEncoded for callers that bypass the
// ingest plane (storage tests, replay tooling). It quantizes recs in place
// and logs nothing into the engine.
func (s *Store) LogE(recs []slim.Record) error { return s.logRecords(TagE, recs) }

// LogI durably logs a second-dataset batch; see LogE.
func (s *Store) LogI(recs []slim.Record) error { return s.logRecords(TagI, recs) }

func (s *Store) logRecords(tag byte, recs []slim.Record) error {
	b := EncodeWireBatch(tag, recs)
	wait, err := s.LogEncoded(b.Tag, b.RecordBytes, b.Recs)
	if err != nil {
		return err
	}
	return wait()
}

// LogEncoded appends one wire batch to the WAL — the store's one append
// path, called by ingest.Plane.Submit. recordBytes is the batch's record
// section (WireBatch.RecordBytes), appended verbatim under a fresh
// sequence prefix; recs is its decoded form (see WireBatch), which the
// store only counts. The returned wait blocks until the batch is durable
// per the fsync policy, letting a caller append several batches under one
// group-commit window before waiting.
//
// Any WAL failure — at the append itself or later at the group-commit
// wait — triggers the degraded-mode transition, and the error the caller
// sees is marked ErrDegraded so the serving layer can answer 503 +
// Retry-After. The sequence and the counters advance before the wait:
// under fsync-interval > 0 a batch whose covering fsync failed was nacked
// to the caller but has consumed its number. The WAL keeps that batch's
// payload in its quarantine, and the reopen loop re-logs it into a fresh
// segment under the same number and buffers it into the engine, so the
// log has no hole and counters, log and engine agree again once the store
// reads healthy (at-least-once — never trust a failed fsync).
func (s *Store) LogEncoded(tag byte, recordBytes []byte, recs []slim.Record) (wait func() error, err error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	if s.degraded.Load() {
		s.mu.Unlock()
		return nil, ErrDegraded
	}
	payload := walPayload(s.nextSeq, tag, recordBytes)
	walWait, err := s.wal.Append(payload)
	if err != nil {
		s.mu.Unlock()
		return nil, s.failWrite(err)
	}
	frameBytes := int64(len(payload)) + frameHeaderLen
	s.nextSeq++
	s.streamedRecords += len(recs)
	s.mu.Unlock()

	s.batchesLogged.Add(1)
	s.recordsLogged.Add(uint64(len(recs)))
	s.walBytes.Add(frameBytes)
	return func() error {
		if err := walWait(); err != nil {
			return s.failWrite(err)
		}
		return nil
	}, nil
}

// failWrite reacts to a WAL write-path error: it starts the degraded
// episode (idempotent) and tags the returned error with ErrDegraded so
// errors.Is(err, ErrDegraded) holds for the caller. A plain ErrClosed
// (clean shutdown) passes through untouched.
func (s *Store) failWrite(cause error) error {
	if cause == nil {
		return nil
	}
	s.degrade(cause)
	if s.degraded.Load() {
		return fmt.Errorf("%w: %v", ErrDegraded, cause)
	}
	return cause
}

// degrade flips the store into degraded read-only mode and starts the
// supervised reopen loop. Idempotent; a clean-shutdown ErrClosed never
// degrades.
func (s *Store) degrade(cause error) {
	if cause == nil || errors.Is(cause, ErrClosed) {
		return
	}
	if !s.degraded.CompareAndSwap(false, true) {
		return
	}
	s.health.Degrade(cause.Error())
	if s.opts.Logger != nil {
		s.opts.Logger.Error("storage degraded: WAL write path failed; quarantining segment and reopening",
			"component", "storage", "error", cause)
	}
	go s.reopenLoop()
}

// reopenLoop is the degraded-mode supervisor: it seals the poisoned
// WAL, captures its quarantine state once, and retries tryReopen with
// capped exponential backoff until the store is healthy again (or
// closed). The quarantine state is immutable after the sticky ioErr, so
// capturing it once is safe across retries.
func (s *Store) reopenLoop() {
	s.mu.Lock()
	old := s.wal
	s.mu.Unlock()
	_ = old.Close()
	segIdx, synced, quarantined := old.failState()

	backoff := s.opts.reopenBackoff()
	maxBackoff := s.opts.reopenMaxBackoff()
	for {
		select {
		case <-s.stopReopen:
			return
		case <-time.After(backoff):
		}
		if s.tryReopen(segIdx, synced, quarantined) {
			return
		}
		backoff *= 2
		if backoff > maxBackoff {
			backoff = maxBackoff
		}
	}
}

// tryReopen is one degraded-mode repair attempt. Reports true when the
// loop should stop (healthy again, or the store closed underneath it).
//
// The repair protocol:
//
//  1. Remove segments above the quarantined one — they can only be
//     partial fresh segments left by earlier failed attempts, and their
//     re-logged frames would collide with this attempt's on replay.
//  2. Truncate the quarantined segment to its last fsync-covered byte:
//     everything past it is non-durable (the fsyncgate rule — a failed
//     fsync says nothing about what reached the platter), so replay
//     must never see those bytes.
//  3. Open a fresh segment one index up and re-log the quarantined
//     batches — appends that consumed a sequence number but whose
//     covering fsync failed — from the dead WAL's quarantine buffers,
//     verbatim with their original sequence numbers, then wait for their
//     durability.
//  4. Swap the WAL in, buffer the re-logged batches into the engine —
//     they are durable now (a recovery would replay them), so the live
//     engine must hold them too — and flip healthy.
func (s *Store) tryReopen(segIdx uint64, synced int64, quarantined [][]byte) bool {
	s.reopenRetries.Add(1)
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return true
	}
	s.mu.Unlock()

	fail := func(step string, err error) bool {
		if s.opts.Logger != nil {
			s.opts.Logger.Warn("storage reopen attempt failed",
				"component", "storage", "step", step, "error", err,
				"retries", s.reopenRetries.Load())
		}
		return false
	}

	segs, err := listNumbered(s.fs, s.dir, segPrefix, segSuffix)
	if err != nil {
		return fail("list segments", err)
	}
	for _, seg := range segs {
		if seg.n > segIdx {
			if err := s.fs.Remove(seg.path); err != nil {
				return fail("remove partial segment", err)
			}
		}
	}
	segPath := filepath.Join(s.dir, segName(segIdx))
	if err := s.fs.Truncate(segPath, synced); err != nil && !os.IsNotExist(err) {
		return fail("truncate quarantined segment", err)
	}
	w, err := openWAL(s.fs, s.dir, segIdx+1, s.opts.SegmentBytes, s.opts.FsyncInterval, s.walm)
	if err != nil {
		return fail("open fresh segment", err)
	}
	waits := make([]func() error, 0, len(quarantined))
	for _, payload := range quarantined {
		wait, err := w.Append(payload)
		if err != nil {
			_ = w.Close()
			return fail("re-log quarantined batch", err)
		}
		waits = append(waits, wait)
	}
	for _, wait := range waits {
		if err := wait(); err != nil {
			_ = w.Close()
			return fail("fsync re-logged batches", err)
		}
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		_ = w.Close()
		return true
	}
	s.wal = w
	s.mu.Unlock()
	// Only group commit quarantines batches the engine never saw: its
	// failed wait nacked them before Submit buffered anything. (Under the
	// never-fsync policy the append itself was the acknowledgement, so the
	// engine already holds every quarantined batch.) Buffered before the
	// store reads healthy, so healthy implies the engine has converged.
	if s.opts.FsyncInterval > 0 {
		for _, payload := range quarantined {
			b, err := decodeBatch(payload)
			if err != nil {
				continue // unreachable: the store encoded this payload itself
			}
			if b.Tag == TagE {
				s.eng.AddE(b.Recs...)
			} else {
				s.eng.AddI(b.Recs...)
			}
		}
	}
	// Order matters: the fresh WAL must be visible before writers stop
	// seeing ErrDegraded.
	s.degraded.Store(false)
	s.health.Recover()
	if s.opts.Logger != nil {
		s.opts.Logger.Info("storage recovered: fresh WAL segment open",
			"component", "storage", "segment", segIdx+1,
			"relogged_batches", len(quarantined), "retries", s.reopenRetries.Load())
	}
	return true
}

// Degraded reports whether the store is in degraded read-only mode.
func (s *Store) Degraded() bool { return s.degraded.Load() }

// Health returns the storage failure domain's state plus the active
// episode's cause and start time (zero values when healthy).
func (s *Store) Health() (state obs.HealthState, cause string, since time.Time) {
	return s.health.State()
}

// AfterRun captures the published result and auto-checkpoints when the
// relink-count trigger fires (engine.Persister).
func (s *Store) AfterRun(res slim.Result, version uint64) {
	s.mu.Lock()
	s.lastResult = &resultData{
		links:        res.Links,
		threshold:    res.Threshold,
		method:       res.ThresholdMethod,
		spatialLevel: res.SpatialLevel,
		version:      version,
	}
	s.runsSinceSnap++
	every := s.opts.snapshotEveryRuns()
	need := every > 0 && s.runsSinceSnap >= every
	s.mu.Unlock()
	if s.degraded.Load() {
		// The WAL is down; a checkpoint would only fail. The run count
		// stays armed, so the next relink after recovery retries.
		return
	}
	if !need {
		return
	}
	// Checkpoint asynchronously: AfterRun is called from Engine.Run under
	// its run lock, and a file write with two fsyncs must not stall the
	// relink publish path. At most one auto-checkpoint runs at a time;
	// relinks during it stay counted (Checkpoint retires only what it
	// captured), so the next relink re-triggers if needed. Store.Close's
	// final checkpoint serializes behind an in-flight one via snapMu.
	if !s.autoCP.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer s.autoCP.Store(false)
		if _, err := s.Checkpoint(); err != nil && !errors.Is(err, ErrClosed) && s.opts.Logger != nil {
			s.opts.Logger.Error("auto checkpoint failed", "component", "storage", "error", err)
		}
	}()
}

// CheckpointInfo describes one completed checkpoint: the file it wrote,
// the last WAL sequence logged when it was taken, and how many records the
// data directory held then (in the base and the log, not in the
// checkpoint).
type CheckpointInfo struct {
	Path            string
	LastSeq         uint64
	SeedRecords     int
	StreamedRecords int
}

// Checkpoint persists the last published result, tagged with the last
// logged WAL sequence, as result-<seq>.snap and removes the result file it
// supersedes. Its cost depends on the number of links only: no record is
// copied or encoded and the WAL is neither rotated nor truncated (the
// segments are the stream; see DESIGN.md §6). Safe for concurrent use;
// checkpoints serialize.
func (s *Store) Checkpoint() (CheckpointInfo, error) {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	start := time.Now()

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return CheckpointInfo{}, ErrClosed
	}
	if s.degraded.Load() {
		s.mu.Unlock()
		return CheckpointInfo{}, ErrDegraded
	}
	info := CheckpointInfo{
		LastSeq:         s.nextSeq - 1,
		SeedRecords:     s.seedRecords,
		StreamedRecords: s.streamedRecords,
	}
	res := s.lastResult
	coveredRuns := s.runsSinceSnap
	s.mu.Unlock()

	path, err := writeResult(s.fs, s.dir, info.LastSeq, res)
	if err != nil {
		return CheckpointInfo{}, err
	}
	info.Path = path
	// Retire the covered run count only now that the checkpoint is
	// durable: a failed attempt keeps it armed so the next relink retries
	// instead of waiting out another full trigger window, and any relink
	// that finished while the file was being written still counts toward
	// the next one.
	s.mu.Lock()
	s.runsSinceSnap -= coveredRuns
	s.mu.Unlock()
	if err := removeResultsBefore(s.fs, s.dir, info.LastSeq); err != nil {
		return CheckpointInfo{}, err
	}
	s.noteCheckpoint(info.LastSeq, path, time.Since(start))
	return info, nil
}

// noteCheckpoint accounts one completed checkpoint — a result file, or
// the base Recover writes when it initialises a directory.
func (s *Store) noteCheckpoint(seq uint64, path string, took time.Duration) {
	s.snapshots.Add(1)
	s.lastSnapSeq.Store(seq)
	s.lastSnapUnixMs.Store(time.Now().UnixMilli())
	s.snapshotSeconds.Observe(took.Seconds())
	if fi, err := s.fs.Stat(path); err == nil {
		s.snapshotBytes.Set(float64(fi.Size()))
	}
}

// Stats is a point-in-time snapshot of the storage layer's state. The json
// tags are its keys in /v1/stats' storage block; the health fields are
// published on /healthz instead and stay off it.
type Stats struct {
	Dir string `json:"dir"`
	// FsyncIntervalMs reflects the WAL durability policy (see Options).
	FsyncIntervalMs float64 `json:"fsync_interval_ms"`
	// BatchesLogged / RecordsLogged / WALBytesAppended count WAL appends
	// since this process opened the directory.
	BatchesLogged    uint64 `json:"batches_logged"`
	RecordsLogged    uint64 `json:"records_logged"`
	WALBytesAppended int64  `json:"wal_bytes_appended"`
	// WALSegments / WALDiskBytes describe the on-disk log right now.
	WALSegments  int   `json:"wal_segments"`
	WALDiskBytes int64 `json:"wal_disk_bytes"`
	// Snapshots counts checkpoints completed by this process;
	// LastSnapshotSeq / LastSnapshotUnixMs describe the newest one.
	Snapshots          uint64 `json:"snapshots"`
	LastSnapshotSeq    uint64 `json:"last_snapshot_seq"`
	LastSnapshotUnixMs int64  `json:"last_snapshot_unix_ms,omitempty"`
	// NextSeq is the sequence number the next logged batch will carry.
	NextSeq uint64 `json:"next_seq"`
	// Health is the storage failure domain's state ("healthy" or
	// "degraded"); DegradedSinceUnixMs and DegradedCause describe the
	// active episode (zero/empty when healthy). ReopenRetries counts
	// degraded-mode WAL reopen attempts since this process started.
	Health              string `json:"-"`
	DegradedCause       string `json:"-"`
	DegradedSinceUnixMs int64  `json:"-"`
	ReopenRetries       uint64 `json:"-"`
}

// Stats reports storage counters plus a directory scan of live segments.
func (s *Store) Stats() Stats {
	st := Stats{
		Dir:                s.dir,
		FsyncIntervalMs:    float64(s.opts.FsyncInterval.Microseconds()) / 1000,
		BatchesLogged:      s.batchesLogged.Load(),
		RecordsLogged:      s.recordsLogged.Load(),
		WALBytesAppended:   s.walBytes.Load(),
		Snapshots:          s.snapshots.Load(),
		LastSnapshotSeq:    s.lastSnapSeq.Load(),
		LastSnapshotUnixMs: s.lastSnapUnixMs.Load(),
		ReopenRetries:      s.reopenRetries.Load(),
	}
	state, cause, since := s.health.State()
	st.Health = state.String()
	st.DegradedCause = cause
	if !since.IsZero() {
		st.DegradedSinceUnixMs = since.UnixMilli()
	}
	s.mu.Lock()
	st.NextSeq = s.nextSeq
	s.mu.Unlock()
	if segs, err := listNumbered(s.fs, s.dir, segPrefix, segSuffix); err == nil {
		st.WALSegments = len(segs)
		for _, seg := range segs {
			if fi, err := s.fs.Stat(seg.path); err == nil {
				st.WALDiskBytes += fi.Size()
			}
		}
	}
	return st
}

// Close takes a final checkpoint (so a clean restart serves the last
// published links before its first relink) and seals the WAL. A store
// closed while degraded returns ErrDegraded: the final checkpoint could
// not be taken, so the next boot relinks what it replays (including any
// re-logged quarantine) before it serves. Idempotent.
func (s *Store) Close() error {
	_, cpErr := s.Checkpoint()
	if errors.Is(cpErr, ErrClosed) {
		return nil
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return cpErr
	}
	s.closed = true
	w := s.wal
	s.mu.Unlock()
	s.stopOnce.Do(func() { close(s.stopReopen) })
	err := w.Close()
	if cpErr != nil {
		return cpErr
	}
	return err
}
