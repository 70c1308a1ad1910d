// Package server exposes an engine.Engine as a JSON-over-HTTP linkage
// service — the network surface of cmd/slimd.
//
// API (all bodies are JSON unless noted):
//
//	POST /v1/datasets/{e|i}/records   batched record ingest
//	POST /v1/ingest/batch             binary batch ingest (application/
//	                                  x-slim-frame: CRC-framed wire
//	                                  batches, appended to the WAL with
//	                                  zero re-encode; see internal/ingest)
//	POST /v1/link                     trigger a synchronous relink
//	POST /v1/snapshot                 manual storage checkpoint (503 without a data dir)
//	GET  /v1/links                    current links (?limit=&offset=&min_score=)
//	GET  /v1/links/{entity}           links involving one entity (either side)
//	GET  /v1/stats                    engine + candidate-index + storage statistics
//	GET  /v1/explain?e=&i=            full provenance of one pair: score
//	                                  decomposition, candidate (LSH) lineage,
//	                                  edge lineage, and the run that produced it
//	GET  /v1/runs                     relink flight recorder (?limit=&offset=)
//	GET  /healthz                     liveness probe; always 200, the JSON body
//	                                  names any degraded failure domain, its
//	                                  cause, and since when
//	GET  /readyz                      readiness probe: 503 until recovery and
//	                                  the initial seed link have completed
//
// The two ingest routes differ only in how they decode a request into
// wire batches; both then run one tail (Server.submit): admit against the
// ingest.Plane's budgets, acknowledge through Plane.Submit — logged,
// durable, then buffered — and answer 202. Ingested records are applied by
// the next relink (debounced in the background when the engine's scheduler
// is started, or forced via POST /v1/link), so ingest responds quickly
// even while a linkage run is in flight.
//
// When the plane's queue-depth or latency budget is exceeded — WAL fsync
// or relink lagging — requests are shed with 429 Too Many Requests and a
// Retry-After hint instead of buffering unboundedly. A body larger than
// the configured ingest limit is refused with 413.
//
// /v1/stats, /v1/runs and the run block of /v1/explain have no response
// types here: the engine, linker, ingest and storage stats structs carry
// their wire names as json tags and one reflective encoder (wire) renders
// them, converting durations to milliseconds and times to Unix ms.
//
// Degraded mode is different from overload: when the storage layer has
// quarantined its WAL after a persistent write/fsync failure
// (storage.ErrDegraded), accepting ingest would mean acknowledging
// records that cannot be made durable, so ingest answers 503 Service
// Unavailable + Retry-After (not 429 — the client must not interpret a
// disk failure as its own send rate). Reads — /v1/links, /v1/stats,
// /metrics, /healthz — keep serving throughout.
package server

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"slim"
	"slim/internal/engine"
	"slim/internal/ingest"
	"slim/internal/model"
	"slim/internal/obs"
	"slim/internal/storage"
)

// MaxIngestBody is the default bound on one ingest request body (16
// MiB); override per server with WithMaxIngestBody / slimd
// -max-ingest-body.
const MaxIngestBody = 16 << 20

// Server routes HTTP requests onto an engine.
type Server struct {
	eng     *engine.Engine
	store   *storage.Store // nil when running without a data directory
	plane   *ingest.Plane  // admission + the one write path (Plane.Submit)
	maxBody int64
	mux     *http.ServeMux
	log     *slog.Logger
	reg     *obs.Registry
	httpm   *httpMetrics
	ready   atomic.Bool
}

// Option customizes a Server at construction.
type Option func(*Server)

// WithMaxIngestBody overrides the per-request ingest body limit
// (MaxIngestBody). Oversized bodies are refused with 413.
func WithMaxIngestBody(n int64) Option {
	return func(s *Server) {
		if n > 0 {
			s.maxBody = n
		}
	}
}

// WithIngestPlane installs a caller-built ingest plane (custom queue
// depth / shed budgets, or one sharing the process-wide registry).
// Without this option the server builds a plane with default budgets.
func WithIngestPlane(p *ingest.Plane) Option {
	return func(s *Server) { s.plane = p }
}

// WithRegistry installs the process-wide metrics registry: the server
// records per-route request latency/status/byte metrics into it and
// serves its Prometheus exposition on GET /metrics. Without this option
// the server uses a private registry (instrumentation stays on and
// /metrics still serves, but only the server's own metrics appear).
func WithRegistry(reg *obs.Registry) Option {
	return func(s *Server) { s.reg = reg }
}

// New builds a server over the engine. logger may be nil to disable
// request logging. The server starts not-ready: the process must call
// SetReady once recovery and the initial seed link are done, so load
// balancers watching /readyz never route to a node that is still
// replaying its WAL.
func New(eng *engine.Engine, logger *slog.Logger, opts ...Option) *Server {
	s := &Server{eng: eng, maxBody: MaxIngestBody, mux: http.NewServeMux(), log: logger}
	for _, o := range opts {
		o(s)
	}
	if s.plane == nil {
		s.plane = ingest.NewPlane(eng, ingest.Config{})
	}
	if s.reg == nil {
		s.reg = obs.NewRegistry()
	}
	s.httpm = newHTTPMetrics(s.reg)
	s.mux.HandleFunc("POST /v1/datasets/{dataset}/records", s.handleIngest)
	s.mux.HandleFunc("POST /v1/ingest/batch", s.handleIngestBinary)
	s.mux.HandleFunc("POST /v1/link", s.handleLink)
	s.mux.HandleFunc("POST /v1/snapshot", s.handleSnapshot)
	s.mux.HandleFunc("GET /v1/links", s.handleLinks)
	s.mux.HandleFunc("GET /v1/links/{entity}", s.handleLinksFor)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /v1/explain", s.handleExplain)
	s.mux.HandleFunc("GET /v1/runs", s.handleRuns)
	s.mux.Handle("GET /metrics", s.reg.Handler())
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	return s
}

// AttachStore wires the durable storage layer in: /v1/snapshot becomes
// operational, /v1/stats grows storage counters, and every ingest batch
// is logged to the WAL before it is acknowledged. Call before serving.
func (s *Server) AttachStore(st *storage.Store) {
	s.store = st
	s.plane.AttachLogger(st)
}

// SetReady marks the node ready for traffic (see New).
func (s *Server) SetReady() { s.ready.Store(true) }

// Handler returns the root handler (request-ID propagation, per-route
// metrics, and request logging included).
func (s *Server) Handler() http.Handler {
	return s.middleware(s.mux)
}

// statusRecorder captures the response status and body size for the
// request log and the per-route metrics.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	n, err := r.ResponseWriter.Write(b)
	r.bytes += int64(n)
	return n, err
}

// reqInfo is the middleware's per-request state, reachable from handlers
// through the request context: the propagated request id and the ingest
// admission outcome (accepted, shed_depth, shed_latency, too_large) the
// handler settled on.
type reqInfo struct {
	id      string
	outcome string
}

type ctxKey int

const reqInfoKey ctxKey = 0

// requestInfo returns the middleware state for req, or nil when the
// handler is exercised without the middleware (direct mux tests).
func requestInfo(req *http.Request) *reqInfo {
	ri, _ := req.Context().Value(reqInfoKey).(*reqInfo)
	return ri
}

func (s *Server) setOutcome(req *http.Request, outcome string) {
	if ri := requestInfo(req); ri != nil {
		ri.outcome = outcome
	}
}

// requestID returns the propagated request id (empty without the
// middleware).
func requestID(req *http.Request) string {
	if ri := requestInfo(req); ri != nil {
		return ri.id
	}
	return ""
}

// maxRequestIDLen bounds an honored client-supplied X-Request-Id so a
// hostile header cannot bloat logs.
const maxRequestIDLen = 64

// sanitizeRequestID reports whether a client-supplied id is safe to
// propagate verbatim: bounded, printable ASCII, no spaces or quotes.
func sanitizeRequestID(id string) bool {
	if id == "" || len(id) > maxRequestIDLen {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		if c <= ' ' || c > '~' || c == '"' || c == '\\' {
			return false
		}
	}
	return true
}

func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "unavailable"
	}
	return hex.EncodeToString(b[:])
}

// middleware wraps the mux with the cross-cutting request plumbing:
// it honors (or generates) X-Request-Id and echoes it on the response,
// records per-route latency/status/byte metrics, and emits one
// structured log line per request including the ingest admission
// outcome handlers report via setOutcome.
func (s *Server) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		start := time.Now()
		id := req.Header.Get("X-Request-Id")
		if !sanitizeRequestID(id) {
			id = newRequestID()
		}
		w.Header().Set("X-Request-Id", id)
		ri := &reqInfo{id: id}
		req = req.WithContext(context.WithValue(req.Context(), reqInfoKey, ri))

		// Resolve the route pattern before serving: the mux sets Pattern
		// only on the clone it passes to the handler, not on our req.
		_, route := s.mux.Handler(req)
		if route == "" {
			route = "unmatched"
		}

		s.httpm.inflight.Add(1)
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(rec, req)
		s.httpm.inflight.Add(-1)

		elapsed := time.Since(start)
		s.httpm.observe(route, rec.status, req.ContentLength, rec.bytes, elapsed)
		if s.log != nil {
			attrs := []any{
				"method", req.Method,
				"path", req.URL.Path,
				"route", route,
				"status", rec.status,
				"bytes", rec.bytes,
				"duration", elapsed.Round(time.Microsecond),
				"request_id", id,
			}
			if ri.outcome != "" {
				attrs = append(attrs, "outcome", ri.outcome)
			}
			s.log.Info("request", attrs...)
		}
	})
}

// httpMetrics records the server's per-route request metrics. Series are
// created lazily per route (and route×status) and cached, so steady-state
// requests update existing atomics without re-rendering labels.
type httpMetrics struct {
	reg      *obs.Registry
	inflight *obs.Gauge
	bytesIn  *obs.Counter
	bytesOut *obs.Counter

	mu     sync.Mutex
	hists  map[string]*obs.Histogram // route → latency histogram
	counts map[string]*obs.Counter   // route "\x00" status → counter
}

func newHTTPMetrics(reg *obs.Registry) *httpMetrics {
	return &httpMetrics{
		reg: reg,
		inflight: reg.Gauge("slim_http_inflight_requests",
			"Requests currently being served."),
		bytesIn: reg.Counter("slim_http_request_bytes_total",
			"Request body bytes received (per declared Content-Length)."),
		bytesOut: reg.Counter("slim_http_response_bytes_total",
			"Response body bytes written."),
		hists:  make(map[string]*obs.Histogram),
		counts: make(map[string]*obs.Counter),
	}
}

func (m *httpMetrics) observe(route string, status int, reqBytes, respBytes int64, elapsed time.Duration) {
	code := strconv.Itoa(status)
	m.mu.Lock()
	h, ok := m.hists[route]
	if !ok {
		h = m.reg.Histogram("slim_http_request_seconds",
			"Request latency by route pattern.", nil, obs.L("route", route))
		m.hists[route] = h
	}
	ck := route + "\x00" + code
	c, ok := m.counts[ck]
	if !ok {
		c = m.reg.Counter("slim_http_requests_total",
			"Requests served, by route pattern and status code.",
			obs.L("route", route), obs.L("status", code))
		m.counts[ck] = c
	}
	m.mu.Unlock()
	h.Observe(elapsed.Seconds())
	c.Inc()
	if reqBytes > 0 {
		m.bytesIn.Add(uint64(reqBytes))
	}
	if respBytes > 0 {
		m.bytesOut.Add(uint64(respBytes))
	}
}

// recordJSON is the wire form of one mobility record.
type recordJSON struct {
	Entity   string  `json:"entity"`
	Lat      float64 `json:"lat"`
	Lng      float64 `json:"lng"`
	Unix     int64   `json:"unix"`
	RadiusKm float64 `json:"radius_km,omitempty"`
}

type ingestRequest struct {
	Records []recordJSON `json:"records"`
}

type ingestResponse struct {
	Accepted int    `json:"accepted"`
	Dataset  string `json:"dataset"`
	// Pending counts buffered records awaiting the next relink.
	Pending int `json:"pending"`
}

// handleIngest is the JSON route: it decodes and validates the records,
// wraps them in one wire batch (quantized and encoded exactly as a binary
// client would have sent them) and hands it to the shared write path.
func (s *Server) handleIngest(w http.ResponseWriter, req *http.Request) {
	ds := req.PathValue("dataset")
	var tag byte
	switch ds {
	case "e":
		tag = storage.TagE
	case "i":
		tag = storage.TagI
	default:
		s.error(w, req, http.StatusNotFound, fmt.Sprintf("unknown dataset %q (want e or i)", ds))
		return
	}
	var body ingestRequest
	if err := s.decodeJSON(w, req, &body); err != nil {
		s.requestError(w, req, err)
		return
	}
	if len(body.Records) == 0 {
		s.error(w, req, http.StatusBadRequest, "no records in request")
		return
	}
	recs := make([]slim.Record, len(body.Records))
	for i, r := range body.Records {
		recs[i] = slim.Record{
			Entity:   slim.EntityID(r.Entity),
			LatLng:   slim.LatLng{Lat: r.Lat, Lng: r.Lng},
			Unix:     r.Unix,
			RadiusKm: r.RadiusKm,
		}
		if err := model.ValidateRecord(recs[i]); err != nil {
			s.error(w, req, http.StatusBadRequest, fmt.Sprintf("record %d: %v", i, err))
			return
		}
	}
	batches := []storage.WireBatch{storage.EncodeWireBatch(tag, recs)}
	if s.submit(w, req, batches, len(recs)) {
		s.json(w, http.StatusAccepted, ingestResponse{
			Accepted: len(recs),
			Dataset:  ds,
			Pending:  s.eng.Pending(),
		})
	}
}

// binaryIngestResponse acknowledges one binary ingest request: every
// record in every batch is durable (when a data directory is configured)
// and buffered toward the next relink.
type binaryIngestResponse struct {
	Accepted int `json:"accepted"`
	Batches  int `json:"batches"`
	Pending  int `json:"pending"`
}

// handleIngestBinary is the high-throughput route: CRC-framed wire
// batches, checked once at the edge and appended to the WAL with zero
// re-encode. The whole request is admitted or shed atomically.
func (s *Server) handleIngestBinary(w http.ResponseWriter, req *http.Request) {
	if ct := req.Header.Get("Content-Type"); ct != "" && ct != ingest.ContentType {
		s.error(w, req, http.StatusUnsupportedMediaType, fmt.Sprintf("content type %q, want %s", ct, ingest.ContentType))
		return
	}
	body, err := readBody(w, req, s.maxBody)
	if err != nil {
		s.requestError(w, req, err)
		return
	}
	batches, records, err := ingest.ParseRequest(body)
	if err != nil {
		s.error(w, req, http.StatusBadRequest, err.Error())
		return
	}
	if s.submit(w, req, batches, records) {
		s.json(w, http.StatusAccepted, binaryIngestResponse{
			Accepted: records,
			Batches:  len(batches),
			Pending:  s.eng.Pending(),
		})
	}
}

// readBody reads a request body of at most limit bytes. A declared
// Content-Length sizes the buffer once (clamped to limit, plus the slack
// that lets the read reach EOF without growing it) instead of regrowing
// it from 512 B on every request; without one the buffer grows as the
// body arrives. The limit is enforced either way, by MaxBytesReader.
func readBody(w http.ResponseWriter, req *http.Request, limit int64) ([]byte, error) {
	var buf bytes.Buffer
	if n := min(req.ContentLength, limit); n > 0 {
		buf.Grow(int(n) + bytes.MinRead)
	}
	_, err := buf.ReadFrom(http.MaxBytesReader(w, req.Body, limit))
	return buf.Bytes(), err
}

// submit is the tail both ingest routes share — what a 202 means. It
// refuses with 503 while storage is degraded (checked before admission, so
// a disk failure never reads as client-rate 429), admits the request
// against the plane's budgets (429 when shed, before anything is logged or
// buffered), and acknowledges it through Plane.Submit: logged, durable,
// then buffered. It reports true when every batch was applied and the
// caller should answer 202; otherwise it has written the rejection.
func (s *Server) submit(w http.ResponseWriter, req *http.Request, batches []storage.WireBatch, records int) bool {
	if s.store != nil && s.store.Degraded() {
		s.serveDegraded(w, req, storage.ErrDegraded)
		return false
	}
	release, err := s.plane.Admit(records)
	if err != nil {
		s.shed(w, req, err)
		return false
	}
	defer release()
	applied, err := s.plane.Submit(batches)
	if errors.Is(err, storage.ErrDegraded) && applied == 0 {
		// Storage quarantined its WAL between the check above and the
		// append: same answer, nothing was acknowledged.
		s.serveDegraded(w, req, err)
		return false
	}
	if err != nil {
		// The applied prefix is durable and buffered; the failed tail is
		// neither logged nor visible and must be retried by the client.
		s.error(w, req, http.StatusInternalServerError,
			fmt.Sprintf("persisting: %v (%d of %d batches applied)", err, applied, len(batches)))
		return false
	}
	s.setOutcome(req, "accepted")
	return true
}

// degradedRetryAfter is the client retry hint while storage is
// quarantined: the reopen loop's capped backoff means recovery is
// usually either sub-second or not imminent, so a short fixed hint
// keeps well-behaved clients probing without hammering.
const degradedRetryAfter = 1 // seconds

// serveDegraded is the degraded-mode rejection: 503 + Retry-After with
// a JSON body naming the failing domain. Distinct from shed (429): the
// client's send rate is not the problem, the node's disk is.
func (s *Server) serveDegraded(w http.ResponseWriter, req *http.Request, err error) {
	s.setOutcome(req, "degraded")
	s.retryLater(w, req, http.StatusServiceUnavailable, degradedRetryAfter, err.Error(), "domain", "storage")
}

// shed answers a load-shed rejection: 429 with a Retry-After header and
// a JSON body naming the exceeded budget and the request id.
func (s *Server) shed(w http.ResponseWriter, req *http.Request, err error) {
	var se *ingest.ShedError
	if !errors.As(err, &se) {
		s.error(w, req, http.StatusInternalServerError, err.Error())
		return
	}
	switch se.Cause {
	case "queue-depth":
		s.setOutcome(req, "shed_depth")
	case "latency":
		s.setOutcome(req, "shed_latency")
	}
	secs := max(1, int(math.Ceil(se.RetryAfter.Seconds())))
	s.retryLater(w, req, http.StatusTooManyRequests, secs, se.Error(), "cause", se.Cause)
}

// retryLater writes one of the write path's two retryable rejections: a
// Retry-After header and a JSON body carrying the error, the field naming
// what refused the request (the failing domain, the exceeded budget), the
// same hint in seconds and the request id.
func (s *Server) retryLater(w http.ResponseWriter, req *http.Request, code, secs int, msg, field, value string) {
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	body := map[string]any{"error": msg, field: value, "retry_after_seconds": secs}
	if id := requestID(req); id != "" {
		body["request_id"] = id
	}
	s.json(w, code, body)
}

// requestError maps a body-read failure to its status: 413 when the
// configured ingest body limit was exceeded, 400 otherwise.
func (s *Server) requestError(w http.ResponseWriter, req *http.Request, err error) {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		s.setOutcome(req, "too_large")
		s.error(w, req, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("request body exceeds the %d-byte ingest limit", tooLarge.Limit))
		return
	}
	s.error(w, req, http.StatusBadRequest, err.Error())
}

type runResponse struct {
	Version         uint64  `json:"version"`
	Links           int     `json:"links"`
	Matched         int     `json:"matched"`
	Threshold       float64 `json:"threshold"`
	ThresholdMethod string  `json:"threshold_method"`
	SpatialLevel    int     `json:"spatial_level"`
	CandidatePairs  int64   `json:"candidate_pairs"`
	ElapsedMs       float64 `json:"elapsed_ms"`
}

func (s *Server) handleLink(w http.ResponseWriter, req *http.Request) {
	res, run := s.eng.RunRecorded()
	s.json(w, http.StatusOK, runResponse{
		Version:         run.Version,
		Links:           len(res.Links),
		Matched:         len(res.Matched),
		Threshold:       res.Threshold,
		ThresholdMethod: res.ThresholdMethod,
		SpatialLevel:    res.SpatialLevel,
		CandidatePairs:  res.Stats.CandidatePairs,
		ElapsedMs:       ms(res.Elapsed),
	})
}

type linksResponse struct {
	Version   uint64      `json:"version"`
	Threshold float64     `json:"threshold"`
	Total     int         `json:"total"`
	Links     []slim.Link `json:"links"`
}

// orEmpty keeps an empty link list on the wire as [] (a nil slice renders
// as null). Links are encoded as they are: their json tags are the keys.
func orEmpty(links []slim.Link) []slim.Link {
	if links == nil {
		return []slim.Link{}
	}
	return links
}

func (s *Server) handleLinks(w http.ResponseWriter, req *http.Request) {
	res, version, ok := s.eng.Result()
	if !ok {
		s.error(w, req, http.StatusConflict, "no linkage run yet; POST /v1/link or wait for the background relink")
		return
	}
	links := res.Links
	q := req.URL.Query()
	if v := q.Get("min_score"); v != "" {
		minScore, err := strconv.ParseFloat(v, 64)
		if err != nil || math.IsNaN(minScore) { // no score is above NaN
			s.error(w, req, http.StatusBadRequest, "bad min_score")
			return
		}
		links = slim.FilterLinks(links, minScore)
	}
	total := len(links)
	offset, err := intParam(q.Get("offset"), 0)
	if err != nil {
		s.error(w, req, http.StatusBadRequest, "bad offset")
		return
	}
	limit, err := intParam(q.Get("limit"), total)
	if err != nil {
		s.error(w, req, http.StatusBadRequest, "bad limit")
		return
	}
	if offset > len(links) {
		offset = len(links)
	}
	links = links[offset:]
	if limit < len(links) {
		links = links[:limit]
	}
	s.json(w, http.StatusOK, linksResponse{
		Version:   version,
		Threshold: res.Threshold,
		Total:     total,
		Links:     orEmpty(links),
	})
}

func (s *Server) handleLinksFor(w http.ResponseWriter, req *http.Request) {
	if _, _, ok := s.eng.Result(); !ok {
		s.error(w, req, http.StatusConflict, "no linkage run yet; POST /v1/link or wait for the background relink")
		return
	}
	entity := req.PathValue("entity")
	links := s.eng.LinksFor(slim.EntityID(entity))
	s.json(w, http.StatusOK, struct {
		Entity string      `json:"entity"`
		Links  []slim.Link `json:"links"`
	}{Entity: entity, Links: orEmpty(links)})
}

// handleStats renders the engine's, the ingest plane's and (when attached)
// the store's stats structs as they name themselves (see wire). Two blocks
// are composed here: edge_store gains the three since-boot odometers that
// live in engine.Totals, and run_journal summarizes the flight recorder
// (page through the entries themselves on /v1/runs).
func (s *Server) handleStats(w http.ResponseWriter, req *http.Request) {
	st := s.eng.Stats()
	doc := wire(st)
	if es, ok := doc["edge_store"].(map[string]any); ok {
		es["retained_total"] = st.EdgeRetainedTotal
		es["rescored_total"] = st.EdgeRescoredTotal
		es["dropped_total"] = st.EdgeDroppedTotal
	}
	doc["run_journal"] = wire(s.eng.RunJournal())
	doc["ingest"] = wire(s.plane.Stats())
	if s.store != nil {
		doc["storage"] = wire(s.store.Stats())
	}
	s.json(w, http.StatusOK, doc)
}

type snapshotResponse struct {
	Path            string `json:"path"`
	LastSeq         uint64 `json:"last_seq"`
	SeedRecords     int    `json:"seed_records"`
	StreamedRecords int    `json:"streamed_records"`
}

func (s *Server) handleSnapshot(w http.ResponseWriter, req *http.Request) {
	if s.store == nil {
		s.error(w, req, http.StatusServiceUnavailable, "no data directory configured (-data-dir)")
		return
	}
	info, err := s.store.Checkpoint()
	if errors.Is(err, storage.ErrDegraded) {
		s.serveDegraded(w, req, err)
		return
	}
	if err != nil {
		s.error(w, req, http.StatusInternalServerError, fmt.Sprintf("checkpoint: %v", err))
		return
	}
	s.json(w, http.StatusOK, snapshotResponse{
		Path:            info.Path,
		LastSeq:         info.LastSeq,
		SeedRecords:     info.SeedRecords,
		StreamedRecords: info.StreamedRecords,
	})
}

// healthDomainJSON is one failure domain's state on /healthz.
type healthDomainJSON struct {
	Domain string `json:"domain"`
	Status string `json:"status"`
	// Cause and SinceUnixMs are set while the domain is degraded: the
	// recorded failure and when it was first observed.
	Cause       string `json:"cause,omitempty"`
	SinceUnixMs int64  `json:"since_unix_ms,omitempty"`
}

type healthzResponse struct {
	// Status is "ok" when every domain is healthy, "degraded" otherwise.
	// The HTTP status stays 200 either way: /healthz is liveness, and a
	// node in degraded read-only mode is alive and serving reads —
	// restarting it would only lose the quarantined-batch re-log. Load
	// balancers act on /readyz; operators and probes that understand
	// degraded mode act on this body (or the slim_health_state gauge).
	Status  string             `json:"status"`
	Domains []healthDomainJSON `json:"domains,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, req *http.Request) {
	resp := healthzResponse{Status: "ok"}
	report := func(domain string, state obs.HealthState, cause string, since time.Time) {
		d := healthDomainJSON{Domain: domain, Status: state.String()}
		if state != obs.Healthy {
			resp.Status = "degraded"
			d.Cause = cause
			d.SinceUnixMs = since.UnixMilli()
		}
		resp.Domains = append(resp.Domains, d)
	}
	if s.store != nil {
		state, cause, since := s.store.Health()
		report("storage", state, cause, since)
	}
	state, cause, since := s.eng.Health()
	report("relink", state, cause, since)
	s.json(w, http.StatusOK, resp)
}

func (s *Server) handleReadyz(w http.ResponseWriter, req *http.Request) {
	if !s.ready.Load() {
		s.error(w, req, http.StatusServiceUnavailable, "recovering")
		return
	}
	s.json(w, http.StatusOK, map[string]string{"status": "ready"})
}

// decodeJSON strictly decodes one JSON body into v: one value, with only
// white space after it. A body past the configured ingest limit is
// refused as such (the caller maps *http.MaxBytesError to 413 via
// requestError) whatever its first bytes hold, so a rejected body is read
// to the limit.
func (s *Server) decodeJSON(w http.ResponseWriter, req *http.Request, v any) error {
	body := http.MaxBytesReader(w, req.Body, s.maxBody)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		if _, err = dec.Token(); err == io.EOF {
			return nil
		}
		if err == nil {
			err = errors.New("trailing data")
		}
	}
	var tooLarge *http.MaxBytesError
	if _, rest := io.Copy(io.Discard, body); errors.As(rest, &tooLarge) || errors.As(err, &tooLarge) {
		return tooLarge
	}
	return fmt.Errorf("bad json: %w", err)
}

func intParam(v string, def int) (int, error) {
	if v == "" {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("bad integer %q", v)
	}
	return n, nil
}

func (s *Server) json(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func (s *Server) error(w http.ResponseWriter, req *http.Request, code int, msg string) {
	body := map[string]string{"error": msg}
	if id := requestID(req); id != "" {
		body["request_id"] = id
	}
	s.json(w, code, body)
}
