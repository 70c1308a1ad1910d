package server

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"slim"
	"slim/internal/engine"
	"slim/internal/ingest"
	"slim/internal/obs"
)

// newObsServer boots an empty engine and server over one shared registry,
// mirroring how cmd/slimd wires the process.
func newObsServer(t *testing.T, logger *slog.Logger, opts ...Option) (*httptest.Server, *engine.Engine, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	eng, err := engine.New(slim.Dataset{Name: "E"}, slim.Dataset{Name: "I"},
		engine.Config{Link: slim.Defaults(), Debounce: time.Hour, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	plane := ingest.NewPlane(eng, ingest.Config{Registry: reg})
	opts = append([]Option{WithRegistry(reg), WithIngestPlane(plane)}, opts...)
	ts := httptest.NewServer(New(eng, logger, opts...).Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(eng.Close)
	return ts, eng, reg
}

// metricValue extracts one sample (exact name, including any label set)
// from a Prometheus text exposition; ok is false when absent.
func metricValue(body, sample string) (float64, bool) {
	for _, line := range strings.Split(body, "\n") {
		if rest, found := strings.CutPrefix(line, sample+" "); found {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				return 0, false
			}
			return v, true
		}
	}
	return 0, false
}

// TestMetricsEndpoint scrapes GET /metrics after real traffic and checks
// the exposition carries every subsystem, the freshness pipeline moved,
// and the numbers agree with /v1/stats (one source of truth).
func TestMetricsEndpoint(t *testing.T) {
	ts, _, _ := newObsServer(t, nil)

	// Two entities on different routes, mirrored into both datasets, so the
	// first run scores pairs; re-observing one entity makes the second a
	// delta run (retained pairs, a tail apply); the third short-circuits.
	recs := []map[string]any{
		{"entity": "u1", "lat": 40.0, "lng": -74.0, "unix": int64(1000)},
		{"entity": "u1", "lat": 40.1, "lng": -74.1, "unix": int64(2000)},
		{"entity": "u2", "lat": 41.2, "lng": -73.5, "unix": int64(1000)},
		{"entity": "u2", "lat": 41.3, "lng": -73.6, "unix": int64(2000)},
	}
	ingest := func(ds string, recs []map[string]any) {
		t.Helper()
		resp, _ := postJSON(t, ts.URL+"/v1/datasets/"+ds+"/records", map[string]any{"records": recs})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("ingest %s status %d", ds, resp.StatusCode)
		}
	}
	link := func() {
		t.Helper()
		if resp, _ := postJSON(t, ts.URL+"/v1/link", nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("link status %d", resp.StatusCode)
		}
	}
	ingest("e", recs)
	ingest("i", recs)
	link()
	ingest("e", recs[:2])
	link()
	link()

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	if ct := mresp.Header.Get("Content-Type"); ct != obs.TextContentType {
		t.Fatalf("content type %q, want %q", ct, obs.TextContentType)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(mresp.Body); err != nil {
		t.Fatal(err)
	}
	body := buf.String()

	// One family per instrumented subsystem must be present.
	for _, name := range []string{
		"slim_relink_seconds",
		"slim_relink_stage_seconds",
		"slim_ingest_to_visible_seconds",
		"slim_link_staleness_seconds",
		"slim_ingest_accepted_records_total",
		"slim_http_request_seconds",
		"slim_http_requests_total",
	} {
		if !strings.Contains(body, "# TYPE "+name+" ") {
			t.Errorf("exposition missing family %s", name)
		}
	}

	// The acknowledged batch became link-visible through the relink.
	if v, ok := metricValue(body, "slim_ingest_to_visible_seconds_count"); !ok || v < 1 {
		t.Errorf("slim_ingest_to_visible_seconds_count = %v (present=%v), want >= 1", v, ok)
	}
	if v, ok := metricValue(body, "slim_link_staleness_seconds"); !ok || v > 1 {
		t.Errorf("post-relink staleness = %v (present=%v), want ~0", v, ok)
	}
	if v, ok := metricValue(body, `slim_http_requests_total{route="POST /v1/link",status="200"}`); !ok || v != 3 {
		t.Errorf("per-route counter = %v (present=%v), want 3", v, ok)
	}

	// One source of truth: every fact both /v1/stats and /metrics report
	// must read the same on both.
	var stats struct {
		IngestedE     uint64 `json:"ingested_e"`
		Runs          uint64 `json:"runs"`
		ShortCircuits uint64 `json:"runs_short_circuited"`
		Panics        uint64 `json:"relink_panics"`
		Links         uint64 `json:"links"`
		Version       uint64 `json:"version"`
		EdgeStore     struct {
			Pairs    uint64 `json:"pairs"`
			Rescored uint64 `json:"rescored_total"`
			Retained uint64 `json:"retained_total"`
			Dropped  uint64 `json:"dropped_total"`
		} `json:"edge_store"`
		PublishTail struct {
			Fits   uint64 `json:"threshold_fits_total"`
			Reuses uint64 `json:"threshold_reuses_total"`
		} `json:"publish_tail"`
	}
	getJSON(t, ts.URL+"/v1/stats", &stats)
	if stats.ShortCircuits != 1 || stats.EdgeStore.Retained == 0 || stats.PublishTail.Fits == 0 {
		t.Fatalf("workload too thin to compare surfaces: %+v", stats)
	}
	for _, c := range []struct {
		sample string
		want   uint64
	}{
		{`slim_ingested_records_total{dataset="e"}`, stats.IngestedE},
		{"slim_relink_runs_total", stats.Runs},
		{"slim_relink_short_circuits_total", stats.ShortCircuits},
		{"slim_relink_panics_total", stats.Panics},
		{"slim_links", stats.Links},
		{"slim_link_version", stats.Version},
		{"slim_edge_store_pairs", stats.EdgeStore.Pairs},
		{"slim_relink_pairs_rescored_total", stats.EdgeStore.Rescored},
		{"slim_relink_pairs_retained_total", stats.EdgeStore.Retained},
		{"slim_relink_pairs_dropped_total", stats.EdgeStore.Dropped},
		{`slim_threshold_fit_total{result="fit"}`, stats.PublishTail.Fits},
		{`slim_threshold_fit_total{result="reused"}`, stats.PublishTail.Reuses},
	} {
		if v, ok := metricValue(body, c.sample); !ok || uint64(v) != c.want {
			t.Errorf("%s: metrics=%v (present=%v) stats=%d", c.sample, v, ok, c.want)
		}
	}
}

// TestRequestIDPropagation: a valid client X-Request-Id is honored and
// echoed; a missing or hostile one is replaced; error bodies carry it.
func TestRequestIDPropagation(t *testing.T) {
	ts, _, _ := newObsServer(t, nil)

	req, _ := http.NewRequest("GET", ts.URL+"/healthz", nil)
	req.Header.Set("X-Request-Id", "client-id-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != "client-id-42" {
		t.Errorf("echoed id = %q, want client-id-42", got)
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); len(got) != 16 {
		t.Errorf("generated id = %q, want 16 hex chars", got)
	}

	hostile := strings.Repeat("x", maxRequestIDLen+1)
	req, _ = http.NewRequest("GET", ts.URL+"/v1/links", nil)
	req.Header.Set("X-Request-Id", hostile)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got == hostile || got == "" {
		t.Errorf("oversized id must be replaced, got %q", got)
	}
	var errBody map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&errBody); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("status %d, want 409", resp.StatusCode)
	}
	if errBody["request_id"] != resp.Header.Get("X-Request-Id") {
		t.Errorf("error body request_id %q != header %q", errBody["request_id"], resp.Header.Get("X-Request-Id"))
	}
}

// syncBuffer is a goroutine-safe log sink: the middleware logs after the
// response is underway, so assertions must not race the writer.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// waitForLog polls until the log contains want (the request log line is
// written after the handler returns, which can trail the client's read).
func waitForLog(t *testing.T, buf *syncBuffer, want string) string {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		s := buf.String()
		if strings.Contains(s, want) {
			return s
		}
		if time.Now().After(deadline) {
			t.Fatalf("log never contained %q:\n%s", want, s)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRequestLogOutcome is the regression test for the request log: every
// ingest request must be logged with its admission outcome — accepted,
// shed (by cause), or too_large — alongside route, status, and bytes.
func TestRequestLogOutcome(t *testing.T) {
	buf := &syncBuffer{}
	logger := slog.New(slog.NewTextHandler(buf, nil))

	// A one-record queue budget: the first single-record batch is
	// accepted, a two-record batch can never be admitted.
	reg := obs.NewRegistry()
	eng, err := engine.New(slim.Dataset{Name: "E"}, slim.Dataset{Name: "I"},
		engine.Config{Link: slim.Defaults(), Debounce: time.Hour, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	plane := ingest.NewPlane(eng, ingest.Config{QueueDepth: 1, Registry: reg})
	ts := httptest.NewServer(New(eng, logger,
		WithRegistry(reg), WithIngestPlane(plane), WithMaxIngestBody(256)).Handler())
	t.Cleanup(ts.Close)

	one := []map[string]any{{"entity": "u1", "lat": 40.0, "lng": -74.0, "unix": int64(1000)}}
	if resp, _ := postJSON(t, ts.URL+"/v1/datasets/e/records", map[string]any{"records": one}); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest status %d, want 202", resp.StatusCode)
	}
	log := waitForLog(t, buf, "outcome=accepted")
	if !strings.Contains(log, `route="POST /v1/datasets/{dataset}/records"`) || !strings.Contains(log, "status=202") {
		t.Errorf("accepted line missing route/status:\n%s", log)
	}

	// Two records exceed the one-record budget: shed by queue depth.
	two := []map[string]any{
		{"entity": "u2", "lat": 40.0, "lng": -74.0, "unix": int64(1000)},
		{"entity": "u2", "lat": 40.1, "lng": -74.1, "unix": int64(2000)},
	}
	resp, body := postJSON(t, ts.URL+"/v1/datasets/e/records", map[string]any{"records": two})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("shed status %d, want 429: %s", resp.StatusCode, body)
	}
	var shedBody map[string]any
	if err := json.Unmarshal(body, &shedBody); err != nil {
		t.Fatal(err)
	}
	if id, _ := shedBody["request_id"].(string); id == "" {
		t.Errorf("429 body missing request_id: %s", body)
	}
	waitForLog(t, buf, "outcome=shed_depth")

	// A body over the 256-byte limit: refused with 413 and logged as
	// too_large.
	big := make([]map[string]any, 16)
	for i := range big {
		big[i] = map[string]any{"entity": "u3", "lat": 40.0, "lng": -74.0, "unix": int64(1000 + i)}
	}
	resp, body = postJSON(t, ts.URL+"/v1/datasets/e/records", map[string]any{"records": big})
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized status %d, want 413: %s", resp.StatusCode, body)
	}
	var largeBody map[string]string
	if err := json.Unmarshal(body, &largeBody); err != nil {
		t.Fatal(err)
	}
	if largeBody["request_id"] == "" {
		t.Errorf("413 body missing request_id: %s", body)
	}
	waitForLog(t, buf, "outcome=too_large")
}
