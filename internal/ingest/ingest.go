// Package ingest is slimd's write path: every record the service
// acknowledges, on either wire format and with or without a data
// directory, goes wire batch → Plane.Submit → WAL → engine. The plane
// applies explicit admission control in front of that path and sheds load
// instead of buffering unboundedly.
//
// Wire batch. A storage.WireBatch is a dataset tag, the records on the
// codec's E7 grid, and their encoded bytes — exactly the WAL batch payload
// minus its sequence prefix. The binary route (Content-Type
// application/x-slim-frame: a sequence of CRC32C frames, u32le length |
// u32le CRC | payload, each payload one wire batch) decodes them from the
// request body (ParseRequest), so the CRC is checked once at the edge and
// no record is re-encoded between the wire and the log; the JSON route
// encodes one from its decoded records (storage.EncodeWireBatch). Both
// validate with ValidateRecord and hand the batches to Submit.
//
// Acknowledgement. Submit is the one place a record is acknowledged: it
// appends every batch to the WAL (storage.Store.LogEncoded), waits out
// the group commit, and buffers only the durable prefix into the engine.
// Acked ⇒ durable ⇒ buffered ⇒ visible to the next relink; a batch that
// failed to log is neither acknowledged nor buffered.
//
// Backpressure. Two budgets guard the plane, both configurable:
//
//   - queue depth: records resident in the ingest pipeline — admitted
//     batches still waiting on WAL durability plus records buffered in
//     the engine's pending buffers awaiting a relink, every record
//     counted exactly once whichever dataset it belongs to.
//   - latency: the age of the oldest record still queued anywhere in the
//     pipeline — when WAL fsync or relink lags this far behind, new work
//     is shed.
//
// A request that would exceed either budget is rejected whole with a
// *ShedError before anything is logged or buffered: every record is
// either durably logged and eventually link-visible, or cleanly refused
// with 429 + Retry-After.
package ingest

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"slim"
	"slim/internal/engine"
	"slim/internal/model"
	"slim/internal/obs"
	"slim/internal/storage"
)

// ContentType is the media type of the binary ingest wire format.
const ContentType = "application/x-slim-frame"

// DefaultQueueDepth is the default admission budget in resident records.
const DefaultQueueDepth = 1 << 18

// DefaultShedAfter is the default latency budget: when the oldest queued
// record has waited this long (WAL fsync or relink lagging), new
// requests are shed. Must comfortably exceed the engine's relink
// debounce, which is a floor on healthy queue age.
const DefaultShedAfter = 10 * time.Second

// DefaultRetryAfter is the default client retry hint on a shed.
const DefaultRetryAfter = time.Second

// Config parameterizes the plane. Zero values select the defaults; a
// negative ShedAfter disables the latency budget.
type Config struct {
	QueueDepth int
	ShedAfter  time.Duration
	RetryAfter time.Duration
	// Registry, when set, receives counter/gauge views over the same
	// atomics Stats reports (admissions, sheds by cause, queue state). A
	// nil Registry wires them to a private, unscraped registry.
	Registry *obs.Registry
}

func (c Config) queueDepth() int {
	if c.QueueDepth <= 0 {
		return DefaultQueueDepth
	}
	return c.QueueDepth
}

func (c Config) shedAfter() time.Duration {
	if c.ShedAfter == 0 {
		return DefaultShedAfter
	}
	return c.ShedAfter
}

func (c Config) retryAfter() time.Duration {
	if c.RetryAfter <= 0 {
		return DefaultRetryAfter
	}
	return c.RetryAfter
}

// BatchLogger durably appends one pre-encoded record batch, returning a
// wait that blocks until the batch is durable per the WAL fsync policy.
// Implemented by storage.Store.LogEncoded.
type BatchLogger interface {
	LogEncoded(tag byte, recordBytes []byte, recs []slim.Record) (wait func() error, err error)
}

// ShedError is a load-shed rejection: the request was refused before
// anything was logged or buffered, and the client should retry after the
// hinted delay (HTTP 429 + Retry-After).
type ShedError struct {
	Cause      string // "queue-depth" or "latency"
	RetryAfter time.Duration
}

func (e *ShedError) Error() string {
	return fmt.Sprintf("ingest: overloaded (%s budget exceeded), retry after %v", e.Cause, e.RetryAfter)
}

// admitToken is one outstanding admission, kept in an intrusive list
// ordered by admit time so the oldest in-flight age is O(1).
type admitToken struct {
	at         time.Time
	n          int
	prev, next *admitToken
}

// Plane is the ingest plane over one engine: admission control plus the
// log→wait→buffer write path both ingest routes share. All methods are
// safe for concurrent use.
type Plane struct {
	eng *engine.Engine
	cfg Config

	mu         sync.Mutex
	logger     BatchLogger // nil without a data directory: buffer-only
	inflight   int         // records admitted, not yet released
	head, tail *admitToken // outstanding admissions, oldest first

	acceptedBatches atomic.Uint64
	acceptedRecords atomic.Uint64
	shedRequests    atomic.Uint64
	shedRecords     atomic.Uint64
	shedDepth       atomic.Uint64
	shedLatency     atomic.Uint64
}

// NewPlane builds a plane over the engine. Attach a BatchLogger before
// serving when ingest must be durable (AttachLogger); without one Submit
// buffers straight into the engine.
func NewPlane(eng *engine.Engine, cfg Config) *Plane {
	p := &Plane{eng: eng, cfg: cfg}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	reg.CounterFunc("slim_ingest_accepted_batches_total",
		"Ingest batches durably applied, across the binary and JSON routes.",
		p.acceptedBatches.Load)
	reg.CounterFunc("slim_ingest_accepted_records_total",
		"Ingest records durably applied, across the binary and JSON routes.",
		p.acceptedRecords.Load)
	reg.CounterFunc("slim_ingest_shed_requests_total",
		"Requests refused whole by admission control, by exceeded budget.",
		p.shedDepth.Load, obs.L("cause", "queue-depth"))
	reg.CounterFunc("slim_ingest_shed_requests_total",
		"Requests refused whole by admission control, by exceeded budget.",
		p.shedLatency.Load, obs.L("cause", "latency"))
	reg.CounterFunc("slim_ingest_shed_records_total",
		"Records inside shed requests (nothing was logged or buffered).",
		p.shedRecords.Load)
	reg.GaugeFunc("slim_ingest_inflight_records",
		"Admitted records not yet released (waiting on WAL durability).",
		func() float64 {
			p.mu.Lock()
			defer p.mu.Unlock()
			return float64(p.inflight)
		})
	reg.GaugeFunc("slim_ingest_oldest_wait_seconds",
		"Age of the oldest record queued anywhere in the pipeline (the latency-budget input).",
		func() float64 { return p.Stats().OldestWait.Seconds() })
	reg.GaugeFunc("slim_ingest_queue_depth_limit",
		"Configured admission budget in resident records.",
		func() float64 { return float64(cfg.queueDepth()) })
	return p
}

// AttachLogger wires the durable append path in. Call before serving.
func (p *Plane) AttachLogger(l BatchLogger) {
	p.mu.Lock()
	p.logger = l
	p.mu.Unlock()
}

// ParseRequest decodes one wire request body into validated batches and
// the total record count. Any framing, decoding, or validation error
// rejects the whole request — nothing is partially accepted — so the
// caller can map the error straight to 400.
func ParseRequest(body []byte) (batches []storage.WireBatch, records int, err error) {
	if len(body) == 0 {
		return nil, 0, errors.New("empty request body")
	}
	for len(body) > 0 {
		payload, rest, err := storage.NextFrame(body)
		if err != nil {
			return nil, 0, fmt.Errorf("frame %d: %w", len(batches), err)
		}
		body = rest
		b, err := storage.DecodeWireBatch(payload)
		if err != nil {
			return nil, 0, fmt.Errorf("frame %d: %w", len(batches), err)
		}
		if len(b.Recs) == 0 {
			return nil, 0, fmt.Errorf("frame %d: no records in batch", len(batches))
		}
		for i, r := range b.Recs {
			if err := ValidateRecord(r); err != nil {
				return nil, 0, fmt.Errorf("frame %d record %d: %w", len(batches), i, err)
			}
		}
		batches = append(batches, b)
		records += len(b.Recs)
	}
	return batches, records, nil
}

// ValidateRecord rejects records an attacker could use to poison the
// stores. Ingest bypasses Dataset.Validate (which only guards seed loads),
// so this is where untrusted ids (model.ValidateEntityID), coordinates,
// radii and timestamps (model.MaxUnix) are stopped, on both routes.
func ValidateRecord(r slim.Record) error {
	if err := model.ValidateEntityID(r.Entity); err != nil {
		return err
	}
	lat, lng := r.LatLng.Lat, r.LatLng.Lng
	if math.IsNaN(lat) || math.IsInf(lat, 0) || lat < -90 || lat > 90 {
		return fmt.Errorf("latitude %g outside [-90, 90]", lat)
	}
	if math.IsNaN(lng) || math.IsInf(lng, 0) || lng < -180 || lng > 180 {
		return fmt.Errorf("longitude %g outside [-180, 180]", lng)
	}
	if err := model.ValidateRadius(r.RadiusKm); err != nil {
		return err
	}
	return model.ValidateUnix(r.Unix)
}

// Admit reserves pipeline capacity for n records, or returns a
// *ShedError when a budget is exceeded. On success the caller MUST call
// release exactly once, after Submit returned (the records are durable, or
// rejected for another reason).
func (p *Plane) Admit(n int) (release func(), err error) {
	now := time.Now()
	pending := p.eng.Pending()
	oldestPend, havePend := p.eng.OldestPending()

	p.mu.Lock()
	if p.inflight+pending+n > p.cfg.queueDepth() {
		p.mu.Unlock()
		p.shed(&p.shedDepth, n)
		return nil, &ShedError{Cause: "queue-depth", RetryAfter: p.cfg.retryAfter()}
	}
	if after := p.cfg.shedAfter(); after > 0 {
		oldest := oldestPend
		if p.head != nil && (!havePend || p.head.at.Before(oldest)) {
			oldest = p.head.at
		}
		if !oldest.IsZero() && now.Sub(oldest) > after {
			p.mu.Unlock()
			p.shed(&p.shedLatency, n)
			return nil, &ShedError{Cause: "latency", RetryAfter: p.cfg.retryAfter()}
		}
	}
	tok := &admitToken{at: now, n: n, prev: p.tail}
	if p.tail != nil {
		p.tail.next = tok
	} else {
		p.head = tok
	}
	p.tail = tok
	p.inflight += n
	p.mu.Unlock()

	return func() {
		p.mu.Lock()
		if tok.prev != nil {
			tok.prev.next = tok.next
		} else {
			p.head = tok.next
		}
		if tok.next != nil {
			tok.next.prev = tok.prev
		} else {
			p.tail = tok.prev
		}
		tok.prev, tok.next = nil, nil
		p.inflight -= tok.n
		p.mu.Unlock()
	}, nil
}

func (p *Plane) shed(cause *atomic.Uint64, n int) {
	cause.Add(1)
	p.shedRequests.Add(1)
	p.shedRecords.Add(uint64(n))
}

// Submit acknowledges admitted wire batches — the only way a record
// enters the service. Every batch is appended to the WAL, the whole
// request rides one group-commit window, and only durable batches are
// buffered toward the next relink. Without a logger it buffers directly.
// It returns how many batches were fully applied; on error the applied
// prefix is durable AND buffered (never half-applied), while the failed
// tail is neither acknowledged nor visible.
func (p *Plane) Submit(batches []storage.WireBatch) (applied int, err error) {
	p.mu.Lock()
	logger := p.logger
	p.mu.Unlock()

	durable := len(batches)
	if logger != nil {
		waits := make([]func() error, 0, len(batches))
		for i, b := range batches {
			w, aerr := logger.LogEncoded(b.Tag, b.RecordBytes, b.Recs)
			if aerr != nil {
				err = fmt.Errorf("logging batch %d: %w", i, aerr)
				break
			}
			waits = append(waits, w)
		}
		// Wait out every successful append before buffering anything, so a
		// buffered batch is always a durable batch. A failed wait poisons
		// the WAL (sticky error): the batches at and after it are not
		// acknowledged and not buffered.
		durable = len(waits)
		for i, w := range waits {
			if werr := w(); werr != nil {
				durable = i
				if err == nil {
					err = fmt.Errorf("syncing batch %d: %w", i, werr)
				}
				break
			}
		}
	}
	for _, b := range batches[:durable] {
		if b.Tag == storage.TagE {
			p.eng.AddE(b.Recs...)
		} else {
			p.eng.AddI(b.Recs...)
		}
		applied++
		p.acceptedBatches.Add(1)
		p.acceptedRecords.Add(uint64(len(b.Recs)))
	}
	return applied, err
}

// Drain blocks until every admitted request has been released — its
// records durable and buffered, or rejected — so a shutting-down
// process can close the engine and take its final checkpoint knowing no
// acknowledgement is still racing the close. It returns ctx's error if
// the context expires first (the shutdown proceeds anyway; the WAL
// still holds whatever was logged).
func (p *Plane) Drain(ctx context.Context) error {
	for {
		p.mu.Lock()
		n := p.inflight
		p.mu.Unlock()
		if n == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// Stats is a point-in-time snapshot of the plane's queue and
// backpressure state. The json tags are its keys in /v1/stats' ingest
// block, rendered by internal/server's wire encoder (which prints a
// Duration as milliseconds, hence "_ms").
type Stats struct {
	// QueueDepth and ShedAfter echo the configured budgets.
	QueueDepth int           `json:"queue_depth"`
	ShedAfter  time.Duration `json:"shed_after_ms"`
	RetryAfter time.Duration `json:"retry_after_ms"`
	// InflightRecords counts admitted records not yet released (waiting on
	// WAL durability); PendingRecords counts records buffered in the
	// engine awaiting a relink (each once).
	InflightRecords int `json:"inflight_records"`
	PendingRecords  int `json:"pending_records"`
	// OldestWait is the age of the oldest record queued anywhere in the
	// pipeline (zero when idle) — the latency-budget input.
	OldestWait time.Duration `json:"oldest_wait_ms"`
	// AcceptedBatches/AcceptedRecords count what Submit applied, whichever
	// route it came in on; the Shed* counters count rejections, split by
	// which budget fired.
	AcceptedBatches uint64 `json:"accepted_batches"`
	AcceptedRecords uint64 `json:"accepted_records"`
	ShedRequests    uint64 `json:"shed_requests"`
	ShedRecords     uint64 `json:"shed_records"`
	ShedQueueDepth  uint64 `json:"shed_queue_depth"`
	ShedLatency     uint64 `json:"shed_latency"`
}

// Stats returns an operational snapshot.
func (p *Plane) Stats() Stats {
	st := Stats{
		QueueDepth:      p.cfg.queueDepth(),
		ShedAfter:       p.cfg.shedAfter(),
		RetryAfter:      p.cfg.retryAfter(),
		PendingRecords:  p.eng.Pending(),
		AcceptedBatches: p.acceptedBatches.Load(),
		AcceptedRecords: p.acceptedRecords.Load(),
		ShedRequests:    p.shedRequests.Load(),
		ShedRecords:     p.shedRecords.Load(),
		ShedQueueDepth:  p.shedDepth.Load(),
		ShedLatency:     p.shedLatency.Load(),
	}
	oldest, have := p.eng.OldestPending()
	p.mu.Lock()
	st.InflightRecords = p.inflight
	if p.head != nil && (!have || p.head.at.Before(oldest)) {
		oldest, have = p.head.at, true
	}
	p.mu.Unlock()
	if have {
		st.OldestWait = time.Since(oldest)
	}
	return st
}
