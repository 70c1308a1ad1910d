package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// freshnessCap bounds the tracked not-yet-visible batches. Past the cap
// a new batch folds into the newest entry, which keeps its time and
// takes the new sequence: the oldest unpublished batch is always
// tracked, a folded batch reads at least its own age, and the folded
// batches share the entry's one latency observation.
const freshnessCap = 1 << 13

type freshEntry struct {
	seq uint64
	at  time.Time
}

// Freshness turns the ingest→relink pipeline into a live latency
// signal. Every acknowledged batch is stamped with a monotonically
// increasing ack sequence and its arrival time (Acked); when a relink
// publishes, the engine marks everything it drained visible (Mark +
// Visible) and each covered batch contributes one ingest-to-link-visible
// observation to the histogram. Between the two events the tracker
// answers the operational questions directly:
//
//   - Oldest(): arrival time of the oldest acknowledged batch that is
//     not yet link-visible, the ingest latency budget's input; Staleness()
//     is its age (0 when drained), the slim_link_staleness_seconds gauge.
//   - AckedSeq()/VisibleSeq(): the acked vs. visible watermarks, whose
//     gap is the pipeline's batch backlog.
//
// All methods are safe for concurrent use. The ring buffer is
// preallocated, so Acked does not allocate on the ingest path.
type Freshness struct {
	hist *Histogram // ingest-to-visible seconds; may be nil

	mu      sync.Mutex
	ring    []freshEntry
	head    int // index of oldest entry
	n       int // live entries
	nextSeq uint64

	acked   atomic.Uint64
	visible atomic.Uint64
}

// NewFreshness builds a tracker feeding the given ingest-to-visible
// histogram (nil disables the per-batch observations but keeps the
// watermarks and staleness gauge working).
func NewFreshness(hist *Histogram) *Freshness {
	return &Freshness{hist: hist, ring: make([]freshEntry, freshnessCap)}
}

// Acked records one acknowledged-and-buffered batch, returning its ack
// sequence. Callers must enqueue the batch into the pipeline BEFORE
// calling Acked: the visibility contract is that every sequence at or
// below a relink's Mark has been drained by that relink.
func (f *Freshness) Acked(now time.Time) uint64 {
	f.mu.Lock()
	f.nextSeq++
	seq := f.nextSeq
	if f.n < len(f.ring) {
		f.ring[(f.head+f.n)%len(f.ring)] = freshEntry{seq: seq, at: now}
		f.n++
	} else {
		f.ring[(f.head+f.n-1)%len(f.ring)].seq = seq
	}
	f.mu.Unlock()
	f.acked.Store(seq)
	return seq
}

// Mark returns the latest acked sequence — the watermark a relink
// captures before draining, and passes to Visible after publishing.
func (f *Freshness) Mark() uint64 { return f.acked.Load() }

// Visible marks every batch with sequence <= upTo link-visible as of
// now, observing each tracked batch's ingest-to-visible latency.
func (f *Freshness) Visible(upTo uint64, now time.Time) {
	if upTo == 0 {
		return
	}
	f.mu.Lock()
	for f.n > 0 && f.ring[f.head].seq <= upTo {
		if f.hist != nil {
			f.hist.Observe(now.Sub(f.ring[f.head].at).Seconds())
		}
		f.ring[f.head] = freshEntry{}
		f.head = (f.head + 1) % len(f.ring)
		f.n--
	}
	f.mu.Unlock()
	for {
		old := f.visible.Load()
		if old >= upTo || f.visible.CompareAndSwap(old, upTo) {
			return
		}
	}
}

// Oldest returns the arrival time of the oldest acknowledged batch that
// is not yet link-visible; ok is false when the pipeline is drained.
func (f *Freshness) Oldest() (at time.Time, ok bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.n == 0 {
		return time.Time{}, false
	}
	return f.ring[f.head].at, true
}

// Staleness returns the age in seconds of Oldest, or 0 when the pipeline
// is drained.
func (f *Freshness) Staleness() float64 {
	at, ok := f.Oldest()
	if !ok {
		return 0
	}
	return time.Since(at).Seconds()
}

// AckedSeq returns the latest acknowledged batch sequence.
func (f *Freshness) AckedSeq() uint64 { return f.acked.Load() }

// VisibleSeq returns the newest link-visible batch sequence.
func (f *Freshness) VisibleSeq() uint64 { return f.visible.Load() }
