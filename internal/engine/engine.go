// Package engine turns the batch slim.Linker into the core of a
// long-running linkage service: a thread-safe engine that owns one
// Linker, accepts concurrent streaming ingest, schedules debounced
// background re-link runs, and publishes each run's matched, thresholded
// slim.Result for lock-free reads.
//
// One Linker, exact semantics. SLIM's uniqueness weights (Eq. 3) and
// length normalisation are defined over the whole dataset, so the engine
// keeps both datasets in a single Linker and a run is literally the
// Linker's own pipeline: drain the pending ingest buffers, AddE/AddI,
// Rescore, Publish. The published links are therefore a pure function of
// the acknowledged records — Float64bits-identical to slim.LinkDatasets
// over the min-records-filtered seed plus every streamed record (see
// TestEngineParityWithLinkDatasets in the root package).
//
// What keeps a relink cheap is the Linker's own incremental state, not
// partitioning: a record batch dirties only the pairs its entities take
// part in (the edge store rescores those and retains the rest), the
// candidate index re-signs only dirty entities, the edge store splices
// only the changed edges into its greedy order, and the per-entity and
// per-pair passes fan out over slim.Config.Workers.
//
// Locking. pendMu guards only the pending ingest buffers, so ingest never
// waits behind a relink; runMu serializes everything that touches the
// Linker (whole runs and Explain); mu guards the published result and the
// latest run's record. Stats and /metrics read those, never runMu.
//
// Telemetry. A run fills one RunRecord and every exit path hands it to
// finish; Stats, /v1/stats, /v1/runs and the engine's /metrics families are
// all views of what finish stores (see finish).
package engine

import (
	"context"
	"fmt"
	"log/slog"
	"runtime/debug"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"slim"
	"slim/internal/fault"
	"slim/internal/obs"
)

// DefaultDebounce is the background relink debounce used when
// Config.Debounce is zero, and the default of slimd's -debounce flag.
const DefaultDebounce = 2 * time.Second

// RunDeadline is the relink watchdog deadline: a run exceeding it shows
// up on the slim_relink_stuck_seconds gauge and flips /healthz's relink
// domain.
const RunDeadline = 2 * time.Minute

// DefaultRunJournal is the flight-recorder ring size used when
// Config.RunJournal is zero.
const DefaultRunJournal = 256

// Fault-injection site names of the relink path (Config.Fault). Any
// injected signal at these sites panics the goroutine that hit it —
// they exist to prove the containment below, not to model I/O errors.
const (
	// FaultApply fires before a run drains the pending buffers.
	FaultApply = "engine.apply"
	// FaultRescore fires before a run rescores (after the drain applied).
	FaultRescore = "engine.rescore"
	// FaultRelink fires between rescoring and Publish.
	FaultRelink = "engine.relink"
	// FaultLoop fires in the background scheduler itself, outside Run's
	// containment — the handle for exercising the supervisor restart.
	FaultLoop = "engine.loop"
)

// Config parameterizes the engine.
type Config struct {
	// Link is the linkage configuration. SpatialLevel 0 auto-tunes over the
	// seed datasets (an engine seeded with empty datasets falls back to
	// level 12).
	Link slim.Config
	// Debounce is how long ingest must stay quiet before a started
	// background scheduler triggers a relink (default DefaultDebounce).
	Debounce time.Duration
	// Registry, when set, receives the engine metrics: relink run and
	// per-stage latency histograms, the ingest-to-link-visible freshness
	// histogram and staleness gauge, and counter/gauge views of Stats. A
	// nil Registry wires the metrics to a private, unscraped registry, so
	// instrumentation is always on.
	Registry *obs.Registry
	// RunJournal is the flight-recorder ring size: how many of the most
	// recent relink runs (including short circuits and contained panics)
	// the engine keeps for /v1/runs and explain joins (0 =
	// DefaultRunJournal).
	RunJournal int
	// Fault, when set, arms the engine's panic-injection sites (Fault*
	// constants) — the chaos tests' handle into the relink path.
	Fault *fault.Injector
	// Logger, when set, receives recovered relink panics and supervisor
	// restarts (failures with no caller to report to).
	Logger *slog.Logger
	// AfterPublish, when set, is handed the engine's Stats after every run
	// that publishes a result, once the persister has seen it. It runs under
	// the run lock, so the calls come in run order and each sees its own
	// run's layer snapshots; slimd sizes the process's heap from them.
	AfterPublish func(Stats)
}

// Persister is the engine's checkpoint hook, implemented by
// internal/storage: AfterRun is called after each published relink so the
// persister can capture the result and decide whether to checkpoint. The
// engine logs nothing itself — a record is durable before it reaches AddE/
// AddI (see ingest.Plane.Submit).
type Persister interface {
	AfterRun(res slim.Result, version uint64)
}

// Engine is a concurrent linkage engine over one slim.Linker. All methods
// are safe for concurrent use.
type Engine struct {
	cfg   Config
	level int

	// pendMu guards the ingest side: the pending buffers (records
	// acknowledged but not yet applied to the linker) and the since-boot
	// accepted-record counts. How long acknowledged work has waited is the
	// freshness tracker's to say (OldestUnpublished), not the buffers'.
	pendMu               sync.Mutex
	pendE, pendI         []slim.Record
	ingestedE, ingestedI uint64

	// runMu serializes everything that touches the linker: whole relink
	// runs (manual Run calls and the background scheduler) and Explain.
	// Ingest and result queries never take it. synced reports that the
	// last run completed, i.e. the published result reflects every record
	// the linker holds; a run that finds it set and drains nothing
	// short-circuits.
	runMu  sync.Mutex
	lk     *slim.Linker
	synced bool

	// mu guards the published result and the engine's account of its runs:
	// the latest finished run's record (Seq 0 before the first; last.layers
	// is never nil), the totals folded from every record, and the bounded
	// ring of recent records behind /v1/runs and Explain. Only finish and
	// RestoreResult write them.
	mu      sync.Mutex
	cur     *slim.Result
	version uint64
	last    RunRecord
	totals  Totals
	journal journal

	// pMu guards the checkpoint hook (attached once, before serving).
	pMu     sync.RWMutex
	persist Persister

	// Supervision state: loopRestarts counts supervisor restarts of the
	// background scheduler; runStartNano is the wall-clock start of the
	// run in flight (0 when idle), the watchdog's input; health is the
	// relink failure domain (degraded after a panicked run, healthy
	// again after the next successful publish).
	loopRestarts atomic.Uint64
	runStartNano atomic.Int64
	health       *obs.Health

	metrics *engMetrics

	kick   chan struct{}
	stopCh chan struct{}
	done   chan struct{}

	// lifeMu guards the start/close lifecycle so Close is idempotent and
	// safe to race with Start.
	lifeMu  sync.Mutex
	started bool
	closed  bool
}

// layers is one immutable snapshot of the linker-side state a published
// run left behind: entity counts plus the history-store, candidate-index
// (nil without LSH), edge-store and publish (both nil before the first
// run) snapshots. Runs that publish nothing carry the previous run's
// snapshot forward.
type layers struct {
	entE, entI int
	hist       *slim.HistoryStats
	idx        *slim.CandidateIndexStats
	edge       *slim.EdgeStoreStats
	tail       *slim.PublishTailStats
}

// orZero dereferences a layer snapshot that may not exist yet.
func orZero[T any](p *T) T {
	if p == nil {
		var zero T
		return zero
	}
	return *p
}

// Totals are the since-boot odometers: every finished run's record folded
// in, by finish and nowhere else. The three edge odometers carry no wire
// name of their own: /v1/stats reports them inside the edge_store block,
// next to the last-run deltas they accumulate.
type Totals struct {
	// Runs counts completed relinks, RunsShortCircuited those among them
	// that found nothing to do and republished the cached result;
	// RelinkPanics counts panics recovered in the relink path (each failed
	// run republished the previous result).
	Runs               uint64 `json:"runs"`
	RunsShortCircuited uint64 `json:"runs_short_circuited"`
	RelinkPanics       uint64 `json:"relink_panics"`
	// EdgeRescoredTotal / EdgeRetainedTotal / EdgeDroppedTotal accumulate
	// every run's edge-store delta — the incremental-savings odometer.
	EdgeRescoredTotal uint64 `json:"-"`
	EdgeRetainedTotal uint64 `json:"-"`
	EdgeDroppedTotal  uint64 `json:"-"`
}

func (t *Totals) fold(r *RunRecord) {
	if r.Panicked {
		t.RelinkPanics++
	} else {
		t.Runs++
	}
	if r.ShortCircuit {
		t.RunsShortCircuited++
	}
	t.EdgeRescoredTotal += uint64(r.Rescored)
	t.EdgeRetainedTotal += uint64(r.Retained)
	t.EdgeDroppedTotal += uint64(r.Dropped)
}

// stageNames are the slim_relink_stage_seconds labels, in RunRecord.stages
// order: draining pending ingest into the linker (apply), the incremental
// candidate-index update (candidate_index, carved out of rescore),
// compiling the scoring stores (compile, carved out of rescore likewise),
// compiling and rescoring (rescore), folding the rescore's outcome into
// the record (merge — microseconds), matching (match), and threshold
// selection (threshold).
var stageNames = [...]string{"apply", "candidate_index", "compile", "rescore", "merge", "match", "threshold"}

// engMetrics are the engine's native instruments: run and stage latency
// histograms, observed by finish from each record, plus the freshness
// tracer. Every other run fact registered next to them (newEngMetrics) is
// a view of Stats, so /metrics and /v1/stats cannot disagree.
type engMetrics struct {
	relinkSeconds *obs.Histogram
	stages        [len(stageNames)]*obs.Histogram
	fresh         *obs.Freshness
}

func newEngMetrics(reg *obs.Registry, e *Engine) *engMetrics {
	m := &engMetrics{
		relinkSeconds: reg.Histogram("slim_relink_seconds",
			"Wall time of one complete relink run (drain, rescore, merge, match, threshold, publish).", nil),
		fresh: obs.NewFreshness(reg.Histogram("slim_ingest_to_visible_seconds",
			"Time from a batch's acknowledged ingest until a published relink made it link-visible.", nil)),
	}
	for i, stage := range stageNames {
		m.stages[i] = reg.Histogram("slim_relink_stage_seconds",
			"Wall time of one relink stage (labelled); candidate_index and compile are the incremental index update and the scoring stores' compile inside rescore.",
			nil, obs.L("stage", stage))
	}
	reg.GaugeFunc("slim_link_staleness_seconds",
		"Age of the oldest acknowledged batch not yet link-visible (0 when the pipeline is drained).",
		m.fresh.Staleness)
	reg.GaugeFunc("slim_ingest_acked_seq",
		"Latest acknowledged-and-buffered ingest batch sequence.",
		func() float64 { return float64(m.fresh.AckedSeq()) })
	reg.GaugeFunc("slim_link_visible_seq",
		"Newest ingest batch sequence whose records are link-visible.",
		func() float64 { return float64(m.fresh.VisibleSeq()) })
	reg.GaugeFunc("slim_relink_stuck_seconds",
		"How far the relink in flight is past its watchdog deadline (0 when idle or on time).",
		e.StuckSeconds)
	reg.GaugeFunc("slim_run_journal_records",
		"Relink runs currently retained in the flight-recorder ring.",
		func() float64 { return float64(e.RunJournal().Records) })

	// Everything below is a view of Stats: since-boot totals are counters;
	// the queue, the published result, the latest run and the layer
	// snapshots are gauges (zeros until the first published run).
	reg.GaugeFunc("slim_pending_records",
		"Buffered records awaiting the next relink.",
		func() float64 { return float64(e.Stats().PendingRecords) })
	reg.CounterFunc("slim_ingested_records_total",
		"Records accepted since construction, by dataset.",
		func() uint64 { return e.Stats().IngestedE }, obs.L("dataset", "e"))
	reg.CounterFunc("slim_ingested_records_total",
		"Records accepted since construction, by dataset.",
		func() uint64 { return e.Stats().IngestedI }, obs.L("dataset", "i"))
	reg.CounterFunc("slim_relink_runs_total",
		"Completed relink runs (including short-circuited ones).",
		func() uint64 { return e.Stats().Runs })
	reg.CounterFunc("slim_relink_panics_total",
		"Panics recovered in the relink path (failed runs and supervisor restarts).",
		func() uint64 { return e.Stats().RelinkPanics })
	reg.CounterFunc("slim_relink_short_circuits_total",
		"Fully-clean relink runs that republished the cached result.",
		func() uint64 { return e.Stats().RunsShortCircuited })
	reg.CounterFunc("slim_relink_pairs_rescored_total",
		"Candidate pairs rescored since boot.",
		func() uint64 { return e.Stats().EdgeRescoredTotal })
	reg.CounterFunc("slim_relink_pairs_retained_total",
		"Edge-store pairs retained without rescoring since boot (scoring work avoided).",
		func() uint64 { return e.Stats().EdgeRetainedTotal })
	reg.CounterFunc("slim_relink_pairs_dropped_total",
		"Edge-store pairs dropped since boot.",
		func() uint64 { return e.Stats().EdgeDroppedTotal })
	reg.GaugeFunc("slim_entities",
		"Entities with applied histories, by dataset.",
		func() float64 { return float64(e.Stats().EntitiesE) }, obs.L("dataset", "e"))
	reg.GaugeFunc("slim_entities",
		"Entities with applied histories, by dataset.",
		func() float64 { return float64(e.Stats().EntitiesI) }, obs.L("dataset", "i"))
	reg.GaugeFunc("slim_links",
		"Links in the current published result.",
		func() float64 { return float64(e.Stats().Links) })
	reg.GaugeFunc("slim_link_version",
		"Version of the current published result.",
		func() float64 { return float64(e.Stats().Version) })
	// Edge-store memory visibility: the order column is where scored edges
	// live between runs, so its size must be observable before any
	// tiering/retention lands.
	reg.GaugeFunc("slim_edge_store_pairs",
		"Retained scored edges in the edge store.",
		func() float64 { return float64(orZero(e.Stats().EdgeStore).Pairs) })
	reg.GaugeFunc("slim_edge_store_resident_bytes",
		"Resident bytes of the edge store (its greedy-order edge column).",
		func() float64 { return float64(orZero(e.Stats().EdgeStore).ResidentBytes) })
	reg.CounterFunc("slim_threshold_fit_total",
		"Stop-threshold selections, by whether the detector ran or the cached fit was reused bit-identically.",
		func() uint64 { return orZero(e.Stats().PublishTail).Fits }, obs.L("result", "fit"))
	reg.CounterFunc("slim_threshold_fit_total",
		"Stop-threshold selections, by whether the detector ran or the cached fit was reused bit-identically.",
		func() uint64 { return orZero(e.Stats().PublishTail).Reuses }, obs.L("result", "reused"))
	return m
}

// New builds an engine seeded with the given datasets (either may be
// empty: a service typically starts empty and is fed over ingest). The
// seed is validated, min-records filtered and gridded exactly as
// slim.NewLinker does it — the engine's linker is one.
func New(dsE, dsI slim.Dataset, cfg Config) (*Engine, error) {
	if cfg.Debounce == 0 {
		cfg.Debounce = DefaultDebounce
	}
	lk, err := slim.NewLinker(dsE, dsI, cfg.Link)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:     cfg,
		level:   lk.SpatialLevel(),
		lk:      lk,
		journal: newJournal(cfg.RunJournal),
		kick:    make(chan struct{}, 1),
		stopCh:  make(chan struct{}),
		done:    make(chan struct{}),
	}
	e.last.layers = &layers{
		hist: lk.HistoryStats(),
		idx:  lk.CandidateIndexStats(),
	}
	e.last.layers.entE, e.last.layers.entI = lk.NumEntities()
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	e.metrics = newEngMetrics(reg, e)
	e.health = obs.NewHealth(reg, "relink")
	return e, nil
}

// SpatialLevel returns the history grid level.
func (e *Engine) SpatialLevel() int { return e.level }

// SetPersister attaches the checkpoint hook. Call before serving.
func (e *Engine) SetPersister(p Persister) {
	e.pMu.Lock()
	e.persist = p
	e.pMu.Unlock()
}

func (e *Engine) persister() Persister {
	e.pMu.RLock()
	defer e.pMu.RUnlock()
	return e.persist
}

// AddE buffers records of the first dataset for the next relink; ingest
// never blocks behind a running linkage. Like Linker.AddE, streamed records
// bypass the MinRecords seed filter. It cannot fail and logs nothing: the
// records must already be durable (or the process runs without a data
// directory). Its only callers are ingest.Plane.Submit, which acknowledges
// a batch by logging it and then calling this, and the storage layer
// feeding back what the WAL already holds (recovery replay, degraded-mode
// re-log).
func (e *Engine) AddE(recs ...slim.Record) { e.buffer(&e.pendE, &e.ingestedE, recs) }

// AddI buffers records of the second dataset; see AddE.
func (e *Engine) AddI(recs ...slim.Record) { e.buffer(&e.pendI, &e.ingestedI, recs) }

func (e *Engine) buffer(pend *[]slim.Record, ingested *uint64, recs []slim.Record) {
	if len(recs) == 0 {
		return
	}
	e.pendMu.Lock()
	*pend = append(*pend, recs...)
	*ingested += uint64(len(recs))
	e.pendMu.Unlock()
	// Acked AFTER buffering: every sequence at or below a freshness mark
	// taken before a drain is guaranteed to be in the pending buffers, so
	// the relink that drains them may legally declare them link-visible.
	e.metrics.fresh.Acked(time.Now())
	e.scheduleRelink()
}

// Pending counts buffered records not yet applied by a relink, each record
// once. Together with OldestUnpublished it is the engine's
// queue/backpressure state: the ingest plane sheds load when the depth or
// the age exceeds its budget. Neither waits behind a running linkage.
func (e *Engine) Pending() int {
	e.pendMu.Lock()
	defer e.pendMu.Unlock()
	return len(e.pendE) + len(e.pendI)
}

// OldestUnpublished returns the acknowledgement time of the oldest batch
// no published run covers yet: buffered, drained by the run in flight, or
// drained by a run that failed. ok is false when every acknowledged batch
// is link-visible.
func (e *Engine) OldestUnpublished() (time.Time, bool) { return e.metrics.fresh.Oldest() }

// Run drains pending ingest into the linker, rescores what the drained
// records dirtied (every other pair keeps its retained score), and
// publishes the matched and thresholded result. Runs are serialized;
// ingest and queries proceed concurrently.
//
// A panic anywhere in the run is contained: the run is marked failed, the
// previous published result is returned unchanged (version not bumped,
// persister not notified, freshness watermark not advanced), the next run
// is forced to rescore the whole candidate set and is scheduled at the
// debounce, slim_relink_panics_total increments, and the relink health
// domain degrades until the next successful run.
func (e *Engine) Run() slim.Result {
	res, _ := e.run("manual")
	return res
}

// RunRecorded is Run returning the run's flight-recorder entry as well, so
// a caller can pair the result with the version that same run left
// published (a second Result call could already see a later run's).
func (e *Engine) RunRecorded() (slim.Result, RunRecord) { return e.run("manual") }

// run is the shared body of manual and background relinks; trigger is
// recorded verbatim in the flight-recorder entry this run appends.
func (e *Engine) run(trigger string) (slim.Result, RunRecord) {
	e.runMu.Lock()
	defer e.runMu.Unlock()
	// Arm the watchdog: slim_relink_stuck_seconds reads this while the
	// run is in flight.
	e.runStartNano.Store(time.Now().UnixNano())
	defer e.runStartNano.Store(0)

	// The freshness mark is taken before the drain, so every batch
	// acknowledged at or below it is already buffered and will be
	// link-visible once this run publishes.
	rec := RunRecord{Trigger: trigger, Start: time.Now(), mark: e.metrics.fresh.Mark()}
	var pub *slim.Result
	err := guarded("relink", func() { pub = e.relink(&rec) })
	e.synced = err == nil
	if err == nil {
		e.health.Recover()
	} else {
		rec.Panicked, rec.PanicMsg = true, err.Error()
		// Whatever the failed run left half-applied in the edge store can no
		// longer be trusted: the next run rescores every candidate pair (and
		// re-sorts the store's greedy order with them). Pending
		// buffers are intact if the run never got to drain; what it did
		// drain is still unpublished, so the retry must not wait for more
		// ingest to kick it.
		e.lk.ForceFullRescore()
		e.scheduleRelink()
		e.health.Degrade(err.Error())
		if e.cfg.Logger != nil {
			e.cfg.Logger.Error("relink run panicked; previous result republished",
				"component", "engine", "error", err)
		}
	}
	res := e.finish(&rec, pub)
	// Give the persister the published result (still under runMu, so
	// checkpoints are serialized against the next relink), then the
	// AfterPublish hook the stats that result left.
	if pub != nil {
		if p := e.persister(); p != nil {
			p.AfterRun(res, rec.Version)
		}
		if e.cfg.AfterPublish != nil {
			e.cfg.AfterPublish(e.Stats())
		}
	}
	return res, rec
}

// finish is the one exit of every run — publish, short circuit and
// contained panic alike. It publishes pub (nil when the run produced no
// new result: the previous one stands, the version does not move), stamps
// the record with the outcome, and advances every other telemetry surface
// from the finished record: the latest-run view and since-boot totals
// behind Stats and /metrics, the journal, the run and stage histograms,
// and — unless the run failed — the freshness watermark. It returns the
// result now published.
func (e *Engine) finish(rec *RunRecord, pub *slim.Result) slim.Result {
	res := slim.Result{SpatialLevel: e.level}
	e.mu.Lock()
	if pub != nil {
		e.cur = pub
		e.version++
	} else {
		rec.layers = e.last.layers
	}
	if e.cur != nil {
		res = *e.cur
	}
	rec.Seq, rec.Version = e.last.Seq+1, e.version
	rec.Links = int64(len(res.Links))
	rec.Duration = time.Since(rec.Start)
	e.last = *rec
	e.totals.fold(rec)
	e.journal.add(*rec)
	e.mu.Unlock()

	e.metrics.relinkSeconds.Observe(rec.Duration.Seconds())
	for i, d := range rec.stages() {
		e.metrics.stages[i].Observe(d.Seconds())
	}
	// Every batch acknowledged up to the mark is covered by the result now
	// published — by this run, or (short circuit) drained by an earlier
	// one: staleness must return to zero after a quiesce, not stick at the
	// last ack.
	if !rec.Panicked {
		e.metrics.fresh.Visible(rec.mark, rec.Start.Add(rec.Duration))
	}
	return res
}

// StuckSeconds reports how far the relink in flight is past RunDeadline
// — the slim_relink_stuck_seconds gauge. It is 0 when the engine is idle
// or the run is still within its deadline.
func (e *Engine) StuckSeconds() float64 {
	startNano := e.runStartNano.Load()
	if startNano == 0 {
		return 0
	}
	over := time.Since(time.Unix(0, startNano)) - RunDeadline
	if over <= 0 {
		return 0
	}
	return over.Seconds()
}

// Health returns the relink failure domain: degraded (with the
// recovered panic as the cause) after a failed run, healthy again after
// the next successful publish.
func (e *Engine) Health() (obs.HealthState, string, time.Time) {
	return e.health.State()
}

// hitFault consults the injected fault site; any injected signal is a
// panic here (the engine sites exist to exercise panic containment).
func (e *Engine) hitFault(site string) {
	if err := e.cfg.Fault.Hit(site); err != nil {
		panic(err)
	}
}

// guarded runs fn, converting a panic into an error carrying the stack.
func guarded(what string, fn func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%s: panic: %v\n%s", what, r, debug.Stack())
		}
	}()
	fn()
	return nil
}

// stage runs one named stage of a relink: it is the single place that
// labels the goroutine (and every goroutine the body starts) with
// stage=name for CPU profiles, hits the stage's fault site (none when
// empty), and takes the stage's wall time — stored even when the body
// panics, so a failed run's record still says where the time went.
func (e *Engine) stage(name, site string, dur *time.Duration, body func(context.Context)) {
	start := time.Now()
	defer func() { *dur = time.Since(start) }()
	pprof.Do(context.Background(), pprof.Labels("stage", name), func(ctx context.Context) {
		if site != "" {
			e.hitFault(site)
		}
		body(ctx)
	})
}

// relink is the run body. It fills rec — the run's flight-recorder entry —
// as it goes and returns the result to publish, or nil when the run short
// circuits; the caller contains its panics. Callers hold runMu.
func (e *Engine) relink(rec *RunRecord) *slim.Result {
	drained := 0
	e.stage("apply", FaultApply, &rec.ApplyDur, func(context.Context) {
		e.pendMu.Lock()
		pe, pi := e.pendE, e.pendI
		e.pendE, e.pendI = nil, nil
		e.pendMu.Unlock()
		e.lk.AddE(pe...)
		e.lk.AddI(pi...)
		drained = len(pe) + len(pi)
	})

	// Clean short-circuit: nothing was drained and the published result
	// already reflects the linker, so re-matching and re-thresholding the
	// identical edge set would reproduce it bit for bit. The record simply
	// has no work in it; the version is not bumped and the persister is not
	// notified (there is nothing new to checkpoint).
	if e.synced && drained == 0 {
		rec.ShortCircuit = true
		return nil
	}

	// Edge lineage is stamped with the version this run will publish on
	// success (version+1), so a pair's RescoredSeq joins directly against
	// /v1/stats versions and the run journal. A panicked run leaves some
	// lineage stamped one version ahead, but the forced full rescore of the
	// next run re-stamps everything.
	var stats slim.Stats
	e.stage("rescore", FaultRescore, &rec.RescoreDur, func(context.Context) {
		e.mu.Lock()
		lineageSeq := e.version + 1
		e.mu.Unlock()
		// Rescore compiles the stores first; compiling them here times the
		// compile on its own and leaves Rescore's a no-op.
		e.stage("compile", "", &rec.CompileDur, func(context.Context) { e.lk.Precompile() })
		stats = e.lk.Rescore(lineageSeq)
	})

	// Merge: snapshot the layers and fold the rescore's outcome into the
	// record. The index and edge-store snapshots are the run's own Stats:
	// Publish touches neither. The incremental candidate-index update ran
	// inside Rescore; its cost is reported separately, as a subset of the
	// rescore time.
	e.stage("merge", "", &rec.MergeDur, func(context.Context) {
		rec.layers = &layers{
			hist: e.lk.HistoryStats(),
			idx:  stats.LSH,
			edge: stats.EdgeStore,
		}
		rec.layers.entE, rec.layers.entI = e.lk.NumEntities()
		idx, es := orZero(stats.LSH), stats.EdgeStore
		rec.IndexDur, rec.indexDirty = idx.LastUpdate, idx.LastDirty
		rec.Rescored, rec.Retained, rec.Dropped = es.Rescored, es.Retained, es.Dropped
		rec.FullRescore, rec.edgeDur = es.FullRescore, es.LastUpdate
		rec.CandidatePairs = stats.CandidatePairs
	})

	// Publish: match and threshold. The stage takes the whole publish (all
	// a panicked run's record has); Publish times its own two stages, which
	// replace that figure below.
	var res slim.Result
	e.stage("publish", FaultRelink, &rec.MatchDur, func(context.Context) {
		matched, links, thr := e.lk.Publish()
		res = slim.Result{
			Links:           links,
			Matched:         matched,
			Threshold:       thr.Threshold,
			ThresholdMethod: string(thr.Method),
			SpatialLevel:    e.level,
			Stats:           stats,
			Elapsed:         time.Since(rec.Start),
		}
	})
	// The tail's snapshot supplies its sizes, the record its last-run fields.
	tail := e.lk.PublishTailStats()
	rec.layers.tail = tail
	rec.MatchDur, rec.ThresholdDur, rec.tailDur = tail.LastMatch, tail.LastThreshold, tail.LastUpdate
	rec.TailFullRebuild = rec.FullRescore
	return &res
}

// RestoreResult installs a previously published result, e.g. one loaded
// from a result checkpoint during recovery, so queries can be served before
// the first fresh relink. Subsequent runs continue the version sequence.
func (e *Engine) RestoreResult(res slim.Result, version uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.cur = &res
	e.version = version
}

// Result returns the most recently published result; ok is false before
// the first run. The result's slices are shared — treat them as read-only.
func (e *Engine) Result() (res slim.Result, version uint64, ok bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.cur == nil {
		return slim.Result{}, 0, false
	}
	return *e.cur, e.version, true
}

// Links returns the current links (nil before the first run).
func (e *Engine) Links() []slim.Link {
	res, _, ok := e.Result()
	if !ok {
		return nil
	}
	return res.Links
}

// LinksFor returns the current links involving the given entity on either
// side.
func (e *Engine) LinksFor(id slim.EntityID) []slim.Link {
	var out []slim.Link
	for _, l := range e.Links() {
		if l.U == id || l.V == id {
			out = append(out, l)
		}
	}
	return out
}

// Explanation joins every provenance layer for one (u, v) pair: the
// linker's score decomposition, candidate lineage and edge lineage, the
// engine's current published version, and — when it is still in the
// flight recorder — the journal entry of the run that last rescored the
// pair.
type Explanation struct {
	slim.PairExplanation
	// Version is the published result version at query time. Lineage run
	// sequences are stamped with to-be-published versions, so for a pair
	// rescored by a successful run Edge.RescoredSeq <= Version.
	Version uint64
	// Run is the journal entry of the run that last rescored the pair;
	// nil when that run has aged out of the ring (or never journaled —
	// e.g. a result restored from a checkpoint).
	Run *RunRecord
}

// Explain reports the full provenance of one pair. It briefly takes runMu
// (serializing with relinks, not with ingest or queries), so the answer is
// consistent with the linker state behind the last completed run.
func (e *Engine) Explain(u, v slim.EntityID) Explanation {
	e.runMu.Lock()
	ex := Explanation{PairExplanation: e.lk.Explain(u, v)}
	e.runMu.Unlock()
	e.mu.Lock()
	defer e.mu.Unlock()
	ex.Version = e.version
	if ex.Edge.Linked {
		if rec, ok := e.journal.byVersion(ex.Edge.RescoredSeq); ok {
			ex.Run = &rec
		}
	}
	return ex
}

// Runs returns up to limit flight-recorder entries, newest first,
// skipping the offset newest (limit <= 0 = everything retained). total
// counts runs ever recorded, including entries already overwritten —
// the pagination contract behind /v1/runs.
func (e *Engine) Runs(limit, offset int) (recs []RunRecord, total uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.journal.snapshot(limit, offset), e.last.Seq
}

// JournalStats summarizes the flight recorder: the ring's capacity, how
// many runs it retains right now (at most Capacity) and how many were ever
// recorded, including entries already overwritten.
type JournalStats struct {
	Capacity  int    `json:"capacity"`
	Records   int    `json:"records"`
	TotalRuns uint64 `json:"total_runs"`
}

// RunJournal returns the flight recorder's summary, all three figures
// from the same side of a run.
func (e *Engine) RunJournal() JournalStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return JournalStats{Capacity: e.journal.size, Records: len(e.journal.buf), TotalRuns: e.last.Seq}
}

// Stats is a point-in-time snapshot of the engine's operational state. The
// json tags are the keys of /v1/stats, which internal/server renders from
// this struct with its wire encoder (a Duration prints as milliseconds, a
// Time as Unix milliseconds); a field tagged "-" is not published there.
type Stats struct {
	SpatialLevel int `json:"spatial_level"`
	// EntitiesE / EntitiesI count entities with applied histories.
	EntitiesE int `json:"entities_e"`
	EntitiesI int `json:"entities_i"`
	// IngestedE / IngestedI count records accepted since construction.
	IngestedE uint64 `json:"ingested_e"`
	IngestedI uint64 `json:"ingested_i"`
	// PendingRecords counts buffered records not yet applied by a relink.
	PendingRecords int `json:"pending_records"`
	// Histories, CandidateIndex (nil when LSH is disabled), EdgeStore and
	// PublishTail (both nil before the first published run) are the
	// linker's layer snapshots. Their state fields (sizes, epochs,
	// since-boot counts) are as of the latest published run; their last-run
	// fields are the latest run's record, so they read zero after a short
	// circuit.
	Histories      *slim.HistoryStats        `json:"histories,omitempty"`
	CandidateIndex *slim.CandidateIndexStats `json:"candidate_index,omitempty"`
	EdgeStore      *slim.EdgeStoreStats      `json:"edge_store,omitempty"`
	PublishTail    *slim.PublishTailStats    `json:"publish_tail,omitempty"`
	// Totals are the since-boot run odometers; here RelinkPanics also
	// includes LoopRestarts, the supervisor restarts of the background
	// scheduler after it panicked. Version counts published results.
	Totals
	LoopRestarts uint64 `json:"loop_restarts"`
	Version      uint64 `json:"version"`
	// LastRun is the completion time of the latest relink (zero before the
	// first).
	LastRun time.Time `json:"last_run_unix_ms,omitempty"`
	// Links and Threshold summarize the current result.
	Links     int     `json:"links"`
	Threshold float64 `json:"threshold"`
}

// Stats returns an operational snapshot: the ingest buffers, the published
// result, the latest run's record and the since-boot totals. It never waits
// behind a running linkage (entity counts may trail a relink in flight by
// one run).
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	cur, version, r, tot := e.cur, e.version, e.last, e.totals
	e.mu.Unlock()
	st := Stats{
		SpatialLevel: e.level,
		EntitiesE:    r.layers.entE,
		EntitiesI:    r.layers.entI,
		Totals:       tot,
		LoopRestarts: e.loopRestarts.Load(),
		Version:      version,
	}
	st.RelinkPanics += st.LoopRestarts
	if r.Seq > 0 {
		st.LastRun = r.Start.Add(r.Duration)
	}
	if cur != nil {
		st.Links = len(cur.Links)
		st.Threshold = cur.Threshold
	}
	st.Histories = r.layers.hist
	if r.layers.idx != nil {
		idx := *r.layers.idx
		idx.LastDirty, idx.LastUpdate = r.indexDirty, r.IndexDur
		st.CandidateIndex = &idx
	}
	if r.layers.edge != nil {
		edge := *r.layers.edge
		edge.Rescored, edge.Retained, edge.Dropped = r.Rescored, r.Retained, r.Dropped
		edge.FullRescore, edge.LastUpdate = r.FullRescore, r.edgeDur
		st.EdgeStore = &edge
	}
	if r.layers.tail != nil {
		tail := *r.layers.tail
		tail.LastUpdate, tail.LastMatch, tail.LastThreshold = r.tailDur, r.MatchDur, r.ThresholdDur
		st.PublishTail = &tail
	}
	e.pendMu.Lock()
	st.IngestedE, st.IngestedI = e.ingestedE, e.ingestedI
	st.PendingRecords = len(e.pendE) + len(e.pendI)
	e.pendMu.Unlock()
	return st
}

// scheduleRelink nudges the background scheduler (no-op when not started;
// the kick channel holds one pending nudge).
func (e *Engine) scheduleRelink() {
	select {
	case e.kick <- struct{}{}:
	default:
	}
}

// Start launches the background relink scheduler: after ingest has been
// quiet for the configured debounce, the engine re-links automatically.
// Start is idempotent and a no-op after Close.
func (e *Engine) Start() {
	e.lifeMu.Lock()
	defer e.lifeMu.Unlock()
	if e.started || e.closed {
		return
	}
	e.started = true
	go e.supervise()
}

// supervise runs the debounced scheduler under a restart supervisor: a
// panic escaping the loop (Run itself contains relink panics, so this
// is the last line of defense for the scheduling machinery) is
// recovered, counted, and the loop is restarted after a capped
// exponential backoff — a crash in background scheduling must never
// take down ingest and query serving with it.
func (e *Engine) supervise() {
	defer close(e.done)
	backoff := 10 * time.Millisecond
	const maxBackoff = 5 * time.Second
	for {
		err := guarded("relink scheduler", e.loop)
		if err == nil {
			return // clean stop via Close
		}
		e.loopRestarts.Add(1)
		if e.cfg.Logger != nil {
			e.cfg.Logger.Error("relink scheduler panicked; restarting",
				"component", "engine", "backoff", backoff, "error", err)
		}
		select {
		case <-e.stopCh:
			return
		case <-time.After(backoff):
		}
		// The dead loop may have taken the only kick of work no run has
		// published: the restarted loop debounces it again.
		e.scheduleRelink()
		if backoff *= 2; backoff > maxBackoff {
			backoff = maxBackoff
		}
	}
}

// loop is the debounced background relink scheduler.
func (e *Engine) loop() {
	timer := time.NewTimer(0)
	if !timer.Stop() {
		<-timer.C
	}
	for {
		select {
		case <-e.stopCh:
			return
		case <-e.kick:
			timer.Reset(e.cfg.Debounce)
		debounce:
			for {
				select {
				case <-e.stopCh:
					timer.Stop()
					return
				case <-e.kick:
					// More ingest arrived: push the relink back.
					timer.Reset(e.cfg.Debounce)
				case <-timer.C:
					break debounce
				}
			}
			e.hitFault(FaultLoop)
			e.run("background")
		}
	}
}

// Close stops the background scheduler, waiting for an in-flight relink
// to finish. It is idempotent and safe to call concurrently with Start,
// scheduleRelink, and a second Close: every Close call that observes a
// started scheduler waits for it to exit. The engine remains queryable;
// Run may still be called manually.
func (e *Engine) Close() {
	e.lifeMu.Lock()
	if !e.closed {
		e.closed = true
		close(e.stopCh)
	}
	started := e.started
	e.lifeMu.Unlock()
	if started {
		<-e.done
	}
}
