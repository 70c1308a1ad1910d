package storage

import (
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"slim/internal/obs"
)

// DefaultSegmentBytes is the WAL segment rotation size (16 MiB).
const DefaultSegmentBytes = 16 << 20

// DefaultFsyncInterval is the default group-commit window: appends
// block until the next batched fsync, at most this long after the write.
const DefaultFsyncInterval = 2 * time.Millisecond

// Fsync policy, selected by the FsyncInterval option:
//
//	interval == 0   fsync inline on every append (strongest, slowest)
//	interval > 0    group commit: appends return once a batched fsync
//	                covering their write completes (at most one interval
//	                of added latency; many appends share one fsync)
//	interval < 0    never fsync (OS page cache only; survives process
//	                crashes but not host crashes — benchmarks and tests)

// ErrClosed is returned by operations on a closed WAL or Store.
var ErrClosed = errors.New("storage: closed")

const segPrefix, segSuffix = "wal-", ".seg"

func segName(index uint64) string {
	return fmt.Sprintf("%s%08d%s", segPrefix, index, segSuffix)
}

// wal is an append-only segmented log of CRC-framed payloads. Appends
// are written in call order; durability is governed by the fsync policy
// above. A wal never reopens old segments: each process generation
// starts a fresh segment, so a torn tail from a crash is always at the
// end of a dead segment.
//
// All file I/O goes through the FS seam, so tests can fail any write,
// fsync, rename, or close at any call (see faultfs.go).
// walMetrics are the log's latency histograms (always non-nil; the
// store wires them to its registry).
type walMetrics struct {
	appendSeconds *obs.Histogram // one Append call: framed write (+ inline fsync)
	fsyncSeconds  *obs.Histogram // every fsync, whichever path issued it
}

func (m walMetrics) sync(f File) error {
	start := time.Now()
	err := f.Sync()
	m.fsyncSeconds.ObserveSince(start)
	return err
}

type wal struct {
	fs       FS
	dir      string
	segBytes int64
	interval time.Duration
	metrics  walMetrics

	mu         sync.Mutex
	f          File
	segIndex   uint64
	segWritten int64
	ioErr      error    // sticky: first write/sync failure poisons the log
	gen        *syncGen // the group-commit generation collecting waiters
	closed     bool

	// Quarantine bookkeeping for degraded-mode recovery (see
	// Store.reopenLoop): syncedBytes is how much of the active segment
	// the last successful fsync covered, and unsynced holds the payloads
	// of every acknowledged-to-the-store append not yet covered by one.
	// After a sticky ioErr these freeze: the segment tail past
	// syncedBytes is non-durable (fsyncgate — a failed fsync says
	// nothing about what reached disk) and unsynced is exactly what a
	// fresh segment must re-log. These payloads are the only record bytes
	// the storage layer keeps in memory: one group-commit window's worth,
	// or under the never-fsync policy, where only a rotation's fsync
	// retires them, at most one segment's.
	syncedBytes int64
	unsynced    [][]byte

	wantSync   chan struct{}
	stop       chan struct{}
	syncerDone chan struct{}
}

// syncGen is one group-commit generation: the appends written since the
// previous generation was released. done closes when the generation is
// released, and err is the log's sticky error at that moment — nil exactly
// when an fsync covered every member, so a waiter's verdict is the outcome
// of its own covering fsync and cannot be changed by a later failure.
type syncGen struct {
	done chan struct{}
	err  error
}

// releaseGenLocked ends the current generation with the log's state as of
// now and starts the next one. Callers hold mu.
func (w *wal) releaseGenLocked() {
	g := w.gen
	g.err = w.ioErr
	w.gen = &syncGen{done: make(chan struct{})}
	close(g.done)
}

// openWAL starts a fresh segment with the given index and, for group
// commit, the background syncer.
func openWAL(fs FS, dir string, segIndex uint64, segBytes int64, interval time.Duration, metrics walMetrics) (*wal, error) {
	if fs == nil {
		fs = OSFS
	}
	if segBytes <= 0 {
		segBytes = DefaultSegmentBytes
	}
	if metrics.appendSeconds == nil || metrics.fsyncSeconds == nil {
		metrics = newWALMetrics(obs.NewRegistry())
	}
	w := &wal{
		fs:         fs,
		dir:        dir,
		segBytes:   segBytes,
		interval:   interval,
		metrics:    metrics,
		segIndex:   segIndex,
		gen:        &syncGen{done: make(chan struct{})},
		wantSync:   make(chan struct{}, 1),
		stop:       make(chan struct{}),
		syncerDone: make(chan struct{}),
	}
	if err := w.openSegment(segIndex); err != nil {
		return nil, err
	}
	if interval > 0 {
		go w.syncer()
	} else {
		close(w.syncerDone)
	}
	return w, nil
}

// openSegment creates the segment file and syncs the directory entry so
// the segment itself survives a crash. Callers hold mu (or own w).
func (w *wal) openSegment(index uint64) error {
	f, err := w.fs.OpenFile(filepath.Join(w.dir, segName(index)),
		createFlags, 0o644)
	if err != nil {
		return err
	}
	w.f = f
	w.segIndex = index
	w.segWritten = 0
	w.syncedBytes = 0
	return w.fs.SyncDir(w.dir)
}

// Append writes one framed payload. The returned wait function blocks
// until the payload is durable per the fsync policy (a no-op for the
// inline and never policies) and reports any sticky I/O error.
func (w *wal) Append(payload []byte) (wait func() error, err error) {
	start := time.Now()
	defer w.metrics.appendSeconds.ObserveSince(start)
	frame := AppendFrame(make([]byte, 0, frameHeaderLen+len(payload)), payload)

	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil, ErrClosed
	}
	if w.ioErr != nil {
		err := w.ioErr
		w.mu.Unlock()
		return nil, err
	}
	if w.segWritten >= w.segBytes {
		if err := w.rotateLocked(); err != nil {
			w.mu.Unlock()
			return nil, err
		}
	}
	if _, err := w.f.Write(frame); err != nil {
		w.ioErr = err
		w.mu.Unlock()
		return nil, err
	}
	w.segWritten += int64(len(frame))

	if w.interval == 0 { // fsync inline
		if err := w.metrics.sync(w.f); err != nil {
			// The frame is written but its fsync failed: the caller will
			// reject the batch (nothing consumed the sequence number), so
			// the bytes must NOT be re-logged — quarantine truncation cuts
			// them off at syncedBytes.
			w.ioErr = err
			w.mu.Unlock()
			return nil, err
		}
		w.syncedBytes = w.segWritten
		w.mu.Unlock()
		return noWait, nil
	}
	// Group-commit and never-fsync policies: the append is acknowledged
	// to the store (it consumes the sequence and buffers the batch), so
	// its payload joins the re-log quarantine until an fsync covers it.
	w.unsynced = append(w.unsynced, payload)
	if w.interval < 0 { // never fsync
		w.mu.Unlock()
		return noWait, nil
	}
	// Group commit: wait for the generation covering this write.
	g := w.gen
	w.mu.Unlock()
	select {
	case w.wantSync <- struct{}{}:
	default:
	}
	return func() error {
		<-g.done
		return g.err
	}, nil
}

func noWait() error { return nil }

// syncer batches fsyncs: after a nudge it sleeps one interval (letting
// concurrent appends pile onto the same fsync), then syncs and releases
// the covered waiters.
func (w *wal) syncer() {
	defer close(w.syncerDone)
	for {
		select {
		case <-w.stop:
			return
		case <-w.wantSync:
		}
		select {
		case <-w.stop:
			return
		case <-time.After(w.interval):
		}
		w.syncNow()
	}
}

// syncNow fsyncs the active segment and releases the current generation
// of group-commit waiters. Once the log is closed it does nothing:
// Close owns the final fsync and the last waiter release, so a waiter
// can never be released without its covering fsync having been
// attempted (and any failure recorded in ioErr).
func (w *wal) syncNow() {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return
	}
	if w.ioErr == nil && w.f != nil {
		if err := w.metrics.sync(w.f); err != nil {
			w.ioErr = err
		} else {
			w.markDurableLocked()
		}
	}
	w.releaseGenLocked()
	w.mu.Unlock()
}

// markDurableLocked retires the quarantine bookkeeping after a
// successful fsync: everything written so far is durable. Callers hold
// mu.
func (w *wal) markDurableLocked() {
	w.syncedBytes = w.segWritten
	w.unsynced = nil
}

// rotateLocked seals the active segment (fsync + close, so rotation is
// always a durability point) and opens the next one. Callers hold mu.
func (w *wal) rotateLocked() error {
	if err := w.metrics.sync(w.f); err != nil {
		w.ioErr = err
		return err
	}
	w.markDurableLocked()
	if err := w.f.Close(); err != nil {
		w.ioErr = err
		return err
	}
	if err := w.openSegment(w.segIndex + 1); err != nil {
		w.ioErr = err
		return err
	}
	// Everything before the rotation is durable: release waiters.
	w.releaseGenLocked()
	return nil
}

// Close seals the log: stops the syncer, fsyncs and closes the active
// segment, and releases any waiters. Idempotent.
func (w *wal) Close() error {
	w.mu.Lock()
	if w.closed {
		err := w.ioErr
		w.mu.Unlock()
		return err
	}
	w.closed = true
	w.mu.Unlock()

	close(w.stop)
	<-w.syncerDone

	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f != nil {
		if w.ioErr == nil {
			// Record a failed final fsync in ioErr BEFORE releasing the
			// waiters below: group-commit callers still blocked in wait()
			// must see the failure, not a silent success.
			if err := w.metrics.sync(w.f); err != nil {
				w.ioErr = err
			} else {
				w.markDurableLocked()
			}
		}
		if cerr := w.f.Close(); cerr != nil && w.ioErr == nil {
			w.ioErr = cerr
		}
		w.f = nil
	}
	w.releaseGenLocked()
	return w.ioErr
}

// failState snapshots the quarantine bookkeeping of a poisoned log: the
// segment it died in, how much of it the last successful fsync covered
// (durable; everything past it is not), and the payloads of every
// append the store consumed whose durability the failure voided. Call
// after Close; the state is frozen once ioErr is sticky.
func (w *wal) failState() (segIndex uint64, syncedBytes int64, unsynced [][]byte) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.segIndex, w.syncedBytes, w.unsynced
}

// numberedFile is one <prefix><n><suffix> file found on disk: a WAL
// segment (n is its index) or a base or result checkpoint (n is its
// sequence).
type numberedFile struct {
	n    uint64
	path string
}

// listNumbered returns the directory's <prefix><n><suffix> files in
// ascending n; a reader that wants the newest walks it from the end. Names
// whose middle is not a number, such as leftover temp files, are ignored.
func listNumbered(fs FS, dir, prefix, suffix string) ([]numberedFile, error) {
	entries, err := fs.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []numberedFile
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
			continue
		}
		n, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, prefix), suffix), 10, 64)
		if err != nil {
			continue
		}
		files = append(files, numberedFile{n: n, path: filepath.Join(dir, name)})
	}
	sort.Slice(files, func(i, j int) bool { return files[i].n < files[j].n })
	return files, nil
}

// ReplayWAL walks every committed batch in dir's write-ahead log with
// Seq > fromSeq, in sequence order. Exported for audit tooling and
// cross-package tests that account for exactly which records the log
// holds (e.g. proving shed ingest was never half-applied).
func ReplayWAL(dir string, fromSeq uint64, fn func(Batch) error) (lastSeq uint64, batches int, err error) {
	return replayWAL(OSFS, dir, fromSeq, fn)
}

// replayWAL scans every segment in order and calls fn for each decoded
// batch with Seq > fromSeq. A torn frame ends a segment's replay (the
// expected crash artifact — appends are sequential, so nothing committed
// can follow it within that segment); replay continues with the next
// segment, which the next process generation starts past the torn tail.
//
// The replayed sequence must be contiguous: the first batch is fromSeq+1
// and each next one its predecessor+1. Every logged batch takes the next
// number, a re-logged quarantine batch keeps its own and a failed inline
// append never consumed one, so a legitimate log has no hole; a hole
// means a frame in the middle of a segment stopped checksumming and took
// the rest of that segment with it. That is corruption of acknowledged
// records, not a torn tail, and fails the replay naming the segment.
func replayWAL(fs FS, dir string, fromSeq uint64, fn func(Batch) error) (lastSeq uint64, batches int, err error) {
	segs, err := listNumbered(fs, dir, segPrefix, segSuffix)
	if err != nil {
		return 0, 0, err
	}
	lastSeq = fromSeq
	// torn describes the bad frame that cut the previous segment's replay
	// short, until the next batch proves nothing was lost behind it: it is
	// where the batches a gap is missing were.
	torn := ""
	for _, seg := range segs {
		buf, err := fs.ReadFile(seg.path)
		if err != nil {
			return lastSeq, batches, err
		}
		size := len(buf)
		for len(buf) > 0 {
			payload, rest, err := NextFrame(buf)
			if err != nil {
				torn = fmt.Sprintf("%s is unreadable from byte %d of %d", seg.path, size-len(buf), size)
				break
			}
			buf = rest
			b, err := decodeBatch(payload)
			if err != nil {
				return lastSeq, batches, fmt.Errorf("%s: %w", seg.path, err)
			}
			if b.Seq <= fromSeq && batches == 0 {
				// Covered by the base; skip.
				continue
			}
			if b.Seq <= lastSeq {
				return lastSeq, batches, fmt.Errorf("%s: %w: sequence %d after %d",
					seg.path, errCorrupt, b.Seq, lastSeq)
			}
			if b.Seq != lastSeq+1 {
				if torn == "" {
					torn = "no segment holds them"
				}
				return lastSeq, batches, fmt.Errorf("%s: %w: sequence %d follows %d, batches %d-%d are missing (%s)",
					seg.path, errCorrupt, b.Seq, lastSeq, lastSeq+1, b.Seq-1, torn)
			}
			lastSeq, torn = b.Seq, ""
			if fn != nil {
				if err := fn(b); err != nil {
					return lastSeq, batches, err
				}
			}
			batches++
		}
	}
	return lastSeq, batches, nil
}
