package engine

import (
	"sync"
	"time"
)

// RunRecord is one flight-recorder entry: everything the engine knew
// about one relink run at the moment it finished — what triggered it,
// how much dirty work it found, what the stages cost, and whether it
// short-circuited, fully rescored, or panicked. Records are written for
// every run, including zero-work short circuits and contained panics,
// so the journal replays the engine's recent decision history exactly.
type RunRecord struct {
	// Seq is the run's sequence number (monotonic per engine). Version is
	// the result version published by the run — equal to Seq for
	// successful runs, the previous version when the run panicked and
	// published nothing.
	Seq     uint64
	Version uint64
	// Trigger names what started the run: "manual" (Run call) or
	// "background" (debounce loop).
	Trigger string
	// Start / Duration are the run's wall-clock bounds.
	Start    time.Time
	Duration time.Duration
	// ShortCircuit reports the zero-work fast path (nothing drained, no
	// forced work — the cached result republished, no relink).
	ShortCircuit bool
	// FullRescore reports whether the run rescored the whole candidate
	// set (first run, IDF-epoch move, candidate-index rebuild, or the run
	// after a contained panic) instead of the dirty pairs only.
	FullRescore bool
	// Panicked / PanicMsg record a contained panic (the engine degrades
	// rather than crashing; see Engine.Run).
	Panicked bool
	PanicMsg string
	// Rescored / Retained / Dropped are the run's edge-store delta;
	// CandidatePairs and Links are the run's published totals.
	Rescored       int64
	Retained       int64
	Dropped        int64
	CandidatePairs int64
	Links          int64
	// TailReusedPrefix is how many matched links the publish tail reused
	// verbatim from the previous run; TailFullRebuild reports whether the
	// tail fell back to a full sort+match rebuild. Both are zero on the
	// from-scratch (Hungarian) path.
	TailReusedPrefix int64
	TailFullRebuild  bool
	// Per-stage wall-clock durations, one per slim_relink_stage_seconds
	// label; IndexDur is a subset of RescoreDur.
	ApplyDur     time.Duration
	IndexDur     time.Duration
	RescoreDur   time.Duration
	MergeDur     time.Duration
	MatchDur     time.Duration
	ThresholdDur time.Duration
}

// journal is a bounded ring of the engine's most recent RunRecords — the
// relink flight recorder. Appends overwrite the oldest entry once the
// ring is full, so memory is fixed at construction no matter how long
// the engine runs.
type journal struct {
	mu    sync.Mutex
	buf   []RunRecord
	next  int
	total uint64
}

func newJournal(size int) *journal {
	if size <= 0 {
		size = DefaultRunJournal
	}
	return &journal{buf: make([]RunRecord, 0, size)}
}

func (j *journal) add(r RunRecord) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if len(j.buf) < cap(j.buf) {
		j.buf = append(j.buf, r)
	} else {
		j.buf[j.next] = r
	}
	j.next = (j.next + 1) % cap(j.buf)
	j.total++
}

// snapshot returns up to limit records, newest first, skipping offset
// newest records — the pagination contract of /v1/runs. total is the
// count of runs ever recorded (including ones already overwritten).
func (j *journal) snapshot(limit, offset int) (recs []RunRecord, total uint64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	n := len(j.buf)
	if n == 0 {
		return nil, j.total
	}
	if limit <= 0 || limit > n {
		limit = n
	}
	if offset < 0 {
		offset = 0
	}
	for k := offset; k < n && len(recs) < limit; k++ {
		// Newest entry is at next-1, wrapping backwards.
		idx := (j.next - 1 - k + 2*n) % n
		recs = append(recs, j.buf[idx])
	}
	return recs, j.total
}

// byVersion returns the journal entry whose published Version matches v
// (the "run that produced it" join behind /v1/explain), or false when
// the run has aged out of the ring. Panicked runs republish the previous
// version, so on a tie the successful (non-panicked) run wins — at most
// one exists per version, since versions only advance on success.
func (j *journal) byVersion(v uint64) (RunRecord, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	var hit RunRecord
	found := false
	for k := range j.buf {
		if j.buf[k].Version != v {
			continue
		}
		if !j.buf[k].Panicked {
			return j.buf[k], true
		}
		if !found {
			hit, found = j.buf[k], true
		}
	}
	return hit, found
}

func (j *journal) size() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.buf)
}

func (j *journal) capacity() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return cap(j.buf)
}
