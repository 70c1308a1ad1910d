package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"slim"
	"slim/internal/engine"
	"slim/internal/storage"
)

// newTestServer boots an empty engine behind an httptest server.
func newTestServer(t *testing.T) (*httptest.Server, *engine.Engine) {
	t.Helper()
	eng, err := engine.New(slim.Dataset{Name: "E"}, slim.Dataset{Name: "I"},
		engine.Config{Link: slim.Defaults(), Debounce: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(eng, nil).Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(eng.Close)
	return ts, eng
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(body); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, out.Bytes()
}

func getJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
	return resp
}

func toWire(recs []slim.Record) []map[string]any {
	out := make([]map[string]any, len(recs))
	for i, r := range recs {
		lat, lng := r.LatLng.Lat, r.LatLng.Lng
		out[i] = map[string]any{"entity": string(r.Entity), "lat": lat, "lng": lng, "unix": r.Unix}
		if r.RadiusKm != 0 {
			out[i]["radius_km"] = r.RadiusKm
		}
	}
	return out
}

// TestServerIngestLinkQuery is the full HTTP round trip: stream a sampled
// datagen workload into an empty service in batches, trigger a link run,
// and query the links back — globally and per entity.
func TestServerIngestLinkQuery(t *testing.T) {
	ts, _ := newTestServer(t)

	ground := slim.GenerateCab(slim.CabOptions{
		NumTaxis: 16, Days: 2, MeanRecordIntervalSec: 420, Seed: 7,
	})
	w := slim.SampleWorkload(&ground, slim.SampleOptions{
		IntersectionRatio: 0.5, InclusionProbE: 0.6, InclusionProbI: 0.6, Seed: 8,
	})

	// Links are unavailable before the first run.
	if resp := getJSON(t, ts.URL+"/v1/links", nil); resp.StatusCode != http.StatusConflict {
		t.Fatalf("GET /v1/links before run: %d, want 409", resp.StatusCode)
	}

	const batch = 500
	ingest := func(ds string, recs []slim.Record) {
		for i := 0; i < len(recs); i += batch {
			hi := min(i+batch, len(recs))
			resp, body := postJSON(t, ts.URL+"/v1/datasets/"+ds+"/records",
				map[string]any{"records": toWire(recs[i:hi])})
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("ingest %s: %d %s", ds, resp.StatusCode, body)
			}
		}
	}
	ingest("e", w.E.Records)
	ingest("i", w.I.Records)

	var stats struct {
		PendingRecords int `json:"pending_records"`
		IngestedE      int `json:"ingested_e"`
		PublishTail    *struct {
			Matched int64  `json:"matched"`
			Fits    uint64 `json:"threshold_fits_total"`
		} `json:"publish_tail"`
	}
	getJSON(t, ts.URL+"/v1/stats", &stats)
	if stats.IngestedE != len(w.E.Records) {
		t.Fatalf("ingested_e = %d, want %d", stats.IngestedE, len(w.E.Records))
	}
	if want := len(w.E.Records) + len(w.I.Records); stats.PendingRecords != want {
		t.Fatalf("pending_records = %d before the first link, want every ingested record once (%d)",
			stats.PendingRecords, want)
	}

	var run struct {
		Version int     `json:"version"`
		Links   int     `json:"links"`
		Matched int     `json:"matched"`
		Elapsed float64 `json:"elapsed_ms"`
	}
	resp, body := postJSON(t, ts.URL+"/v1/link", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/link: %d %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &run); err != nil {
		t.Fatal(err)
	}
	if run.Links == 0 || run.Version != 1 {
		t.Fatalf("run produced no links: %+v", run)
	}

	var links struct {
		Version int `json:"version"`
		Total   int `json:"total"`
		Links   []struct {
			U     string  `json:"u"`
			V     string  `json:"v"`
			Score float64 `json:"score"`
		} `json:"links"`
	}
	getJSON(t, ts.URL+"/v1/links", &links)
	if links.Total != run.Links || len(links.Links) != run.Links {
		t.Fatalf("GET /v1/links total %d, want %d", links.Total, run.Links)
	}

	// The served links must be real linkage output, not noise.
	var asLinks []slim.Link
	for _, l := range links.Links {
		asLinks = append(asLinks, slim.Link{U: slim.EntityID(l.U), V: slim.EntityID(l.V), Score: l.Score})
	}
	m := slim.Evaluate(asLinks, w.Truth)
	if m.F1 < 0.5 {
		t.Errorf("served links F1 = %.3f, expected a real linkage", m.F1)
	}

	// Pagination.
	var page struct {
		Total int `json:"total"`
		Links []struct {
			U string `json:"u"`
		} `json:"links"`
	}
	getJSON(t, fmt.Sprintf("%s/v1/links?limit=1&offset=1", ts.URL), &page)
	if page.Total != run.Links || len(page.Links) != 1 {
		t.Fatalf("paginated links: total %d, page %d", page.Total, len(page.Links))
	}

	// Per-entity query, both sides.
	first := links.Links[0]
	for _, id := range []string{first.U, first.V} {
		var one struct {
			Entity string `json:"entity"`
			Links  []struct {
				U string `json:"u"`
				V string `json:"v"`
			} `json:"links"`
		}
		getJSON(t, ts.URL+"/v1/links/"+id, &one)
		if len(one.Links) != 1 || one.Links[0].U != first.U || one.Links[0].V != first.V {
			t.Errorf("GET /v1/links/%s = %+v, want the %s-%s link", id, one.Links, first.U, first.V)
		}
	}

	getJSON(t, ts.URL+"/v1/stats", &stats)
	if stats.PendingRecords != 0 {
		t.Errorf("stats after run not clean: %+v", stats)
	}
	if stats.PublishTail == nil || stats.PublishTail.Fits == 0 ||
		stats.PublishTail.Matched != int64(run.Matched) {
		t.Errorf("publish_tail block missing or inconsistent: %+v (matched %d)",
			stats.PublishTail, run.Matched)
	}
}

// TestServerErrors exercises the failure surface: bad dataset names,
// malformed bodies, invalid records and parameters, and liveness.
func TestServerErrors(t *testing.T) {
	ts, _ := newTestServer(t)

	var health struct {
		Status string `json:"status"`
	}
	if resp := getJSON(t, ts.URL+"/healthz", &health); resp.StatusCode != 200 || health.Status != "ok" {
		t.Fatalf("healthz = %d %+v", resp.StatusCode, health)
	}

	cases := []struct {
		name string
		url  string
		body any
		want int
	}{
		{"unknown dataset", "/v1/datasets/x/records", map[string]any{"records": toWire([]slim.Record{slim.NewRecord("a", 0, 0, 0)})}, http.StatusNotFound},
		{"empty batch", "/v1/datasets/e/records", map[string]any{"records": []any{}}, http.StatusBadRequest},
		{"empty entity", "/v1/datasets/e/records", map[string]any{"records": []map[string]any{{"entity": "", "lat": 1.0, "lng": 2.0, "unix": 3}}}, http.StatusBadRequest},
		{"unknown field", "/v1/datasets/e/records", map[string]any{"rows": []any{}}, http.StatusBadRequest},
		// A huge longitude used to hang the wrap-into-range loop forever;
		// the wire layer must reject out-of-range coordinates outright.
		{"huge longitude", "/v1/datasets/e/records", map[string]any{"records": []map[string]any{{"entity": "a", "lat": 0.0, "lng": 1e308, "unix": 0}}}, http.StatusBadRequest},
		{"out-of-range latitude", "/v1/datasets/e/records", map[string]any{"records": []map[string]any{{"entity": "a", "lat": 91.0, "lng": 0.0, "unix": 0}}}, http.StatusBadRequest},
		{"negative radius", "/v1/datasets/e/records", map[string]any{"records": []map[string]any{{"entity": "a", "lat": 0.0, "lng": 0.0, "unix": 0, "radius_km": -1.0}}}, http.StatusBadRequest},
		{"negative zero radius", "/v1/datasets/e/records", map[string]any{"records": []map[string]any{{"entity": "a", "lat": 0.0, "lng": 0.0, "unix": 0, "radius_km": math.Copysign(0, -1)}}}, http.StatusBadRequest},
		// An id with a line break would not survive the canonical CSV.
		{"CRLF in entity", "/v1/datasets/e/records", map[string]any{"records": []map[string]any{{"entity": "a\r\nb", "lat": 1.0, "lng": 2.0, "unix": 3}}}, http.StatusBadRequest},
		{"LF in entity", "/v1/datasets/e/records", map[string]any{"records": []map[string]any{{"entity": "a\nb", "lat": 1.0, "lng": 2.0, "unix": 3}}}, http.StatusBadRequest},
		// A time past model.MaxUnix is outside input both routes refuse.
		{"overflowing timestamp", "/v1/datasets/e/records", map[string]any{"records": []map[string]any{{"entity": "a", "lat": 0.0, "lng": 0.0, "unix": int64(math.MinInt64)}}}, http.StatusBadRequest},
	}
	for _, c := range cases {
		resp, body := postJSON(t, ts.URL+c.url, c.body)
		if resp.StatusCode != c.want {
			t.Errorf("%s: status %d, want %d (%s)", c.name, resp.StatusCode, c.want, body)
		}
	}

	if resp, _ := http.Post(ts.URL+"/v1/datasets/e/records", "application/json",
		bytes.NewBufferString("{not json")); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed json: status %d, want 400", resp.StatusCode)
	}
	if resp := getJSON(t, ts.URL+"/v1/links?limit=-1", nil); resp.StatusCode != http.StatusConflict {
		// Before any run the no-result check fires first; after ingesting
		// nothing we cannot run, so just confirm the route responds.
		t.Errorf("GET /v1/links?limit=-1 = %d", resp.StatusCode)
	}
	if resp := getJSON(t, ts.URL+"/v1/links/nobody", nil); resp.StatusCode != http.StatusConflict {
		t.Errorf("GET /v1/links/nobody before run = %d, want 409", resp.StatusCode)
	}
}

// TestServerBackgroundRelink verifies the service links ingested data on
// its own once the engine scheduler is started — no POST /v1/link needed.
func TestServerBackgroundRelink(t *testing.T) {
	eng, err := engine.New(slim.Dataset{Name: "E"}, slim.Dataset{Name: "I"},
		engine.Config{Link: func() slim.Config {
			c := slim.Defaults()
			c.Threshold = slim.ThresholdNone
			return c
		}(), Debounce: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	eng.Start()
	ts := httptest.NewServer(New(eng, nil).Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(eng.Close)

	mk := func(e string, n int, off float64) []slim.Record {
		var out []slim.Record
		for k := 0; k < n; k++ {
			out = append(out, slim.NewRecord(slim.EntityID(e), 37.5+off+float64(k%4)*0.06, -122.3, 1_000_000+int64(k)*900))
		}
		return out
	}
	for i, e := range []string{"a", "b"} {
		postJSON(t, ts.URL+"/v1/datasets/e/records", map[string]any{"records": toWire(mk("e-"+e, 20, float64(i)))})
		postJSON(t, ts.URL+"/v1/datasets/i/records", map[string]any{"records": toWire(mk("i-"+e, 20, float64(i)))})
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		var links struct {
			Links []struct{ U, V string } `json:"links"`
		}
		if resp := getJSON(t, ts.URL+"/v1/links", &links); resp.StatusCode == 200 && len(links.Links) == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("background relink never served links")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServerReadiness: /readyz must gate traffic until the process marks
// recovery + seed linkage done; /healthz stays live throughout.
func TestServerReadiness(t *testing.T) {
	eng, err := engine.New(slim.Dataset{Name: "E"}, slim.Dataset{Name: "I"},
		engine.Config{Link: slim.Defaults(), Debounce: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(eng, nil)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(eng.Close)

	if resp := getJSON(t, ts.URL+"/readyz", nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz before SetReady = %d, want 503", resp.StatusCode)
	}
	if resp := getJSON(t, ts.URL+"/healthz", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz while not ready = %d, want 200", resp.StatusCode)
	}
	srv.SetReady()
	var ready struct {
		Status string `json:"status"`
	}
	if resp := getJSON(t, ts.URL+"/readyz", &ready); resp.StatusCode != http.StatusOK || ready.Status != "ready" {
		t.Fatalf("readyz after SetReady = %d %+v", resp.StatusCode, ready)
	}
}

// TestServerSnapshotEndpoint: without a data directory the manual
// checkpoint reports 503; with one it checkpoints and the storage
// counters appear in /v1/stats.
func TestServerSnapshotEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	if resp, body := postJSON(t, ts.URL+"/v1/snapshot", nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("snapshot without store = %d %s, want 503", resp.StatusCode, body)
	}

	dir := t.TempDir()
	eng, store, _, err := storage.Recover(dir, slim.Dataset{Name: "E"}, slim.Dataset{Name: "I"},
		engine.Config{Link: slim.Defaults(), Debounce: time.Hour}, storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(eng, nil)
	srv.AttachStore(store)
	srv.SetReady()
	ts2 := httptest.NewServer(srv.Handler())
	t.Cleanup(ts2.Close)
	t.Cleanup(func() { store.Close() })
	t.Cleanup(eng.Close)

	mk := func(e string, n int, off float64) []slim.Record {
		var out []slim.Record
		for k := 0; k < n; k++ {
			out = append(out, slim.NewRecord(slim.EntityID(e), 37.5+off+float64(k%4)*0.06, -122.3, 1_000_000+int64(k)*900))
		}
		return out
	}
	if resp, body := postJSON(t, ts2.URL+"/v1/datasets/e/records",
		map[string]any{"records": toWire(mk("e-a", 20, 0))}); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest: %d %s", resp.StatusCode, body)
	}

	var snap struct {
		Path            string `json:"path"`
		LastSeq         uint64 `json:"last_seq"`
		StreamedRecords int    `json:"streamed_records"`
	}
	resp, body := postJSON(t, ts2.URL+"/v1/snapshot", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot = %d %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.LastSeq != 1 || snap.StreamedRecords != 20 || snap.Path == "" {
		t.Fatalf("snapshot response %+v", snap)
	}

	var stats struct {
		Storage *struct {
			BatchesLogged int    `json:"batches_logged"`
			RecordsLogged int    `json:"records_logged"`
			Snapshots     uint64 `json:"snapshots"`
			WALSegments   int    `json:"wal_segments"`
			Dir           string `json:"dir"`
		} `json:"storage"`
	}
	getJSON(t, ts2.URL+"/v1/stats", &stats)
	if stats.Storage == nil {
		t.Fatal("stats missing storage section")
	}
	// Snapshots: 1 initial (fresh dir) + 1 manual.
	if stats.Storage.BatchesLogged != 1 || stats.Storage.RecordsLogged != 20 ||
		stats.Storage.Snapshots != 2 || stats.Storage.Dir != dir {
		t.Fatalf("storage stats %+v", stats.Storage)
	}
}

// TestServerIngestFailsClosed: when the persister cannot log a batch the
// ingest request must fail and nothing may be buffered.
func TestServerIngestFailsClosed(t *testing.T) {
	dir := t.TempDir()
	eng, store, _, err := storage.Recover(dir, slim.Dataset{Name: "E"}, slim.Dataset{Name: "I"},
		engine.Config{Link: slim.Defaults(), Debounce: time.Hour}, storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(eng, nil)
	srv.AttachStore(store)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(eng.Close)

	store.Close() // storage gone: the service must stop acknowledging ingest
	rec := slim.NewRecord("e-x", 37.5, -122.3, 1_000_000)
	resp, body := postJSON(t, ts.URL+"/v1/datasets/e/records",
		map[string]any{"records": toWire([]slim.Record{rec})})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("ingest with dead store = %d %s, want 500", resp.StatusCode, body)
	}
	if eng.Pending() != 0 {
		t.Fatalf("failed batch buffered: pending=%d", eng.Pending())
	}
}

// TestServerLinksPaginationStableAcrossRelinks: paging through /v1/links
// must be deterministic — identical relinks (including the fully-clean
// short-circuit path) keep the link order stable, so a client walking
// pages while relinks fire sees no duplicates and no gaps, and the
// concatenated pages equal the unpaged listing exactly.
func TestServerLinksPaginationStableAcrossRelinks(t *testing.T) {
	ts, _ := newTestServer(t)

	ground := slim.GenerateCab(slim.CabOptions{
		NumTaxis: 16, Days: 2, MeanRecordIntervalSec: 420, Seed: 31,
	})
	w := slim.SampleWorkload(&ground, slim.SampleOptions{
		IntersectionRatio: 0.5, InclusionProbE: 0.6, InclusionProbI: 0.6, Seed: 32,
	})
	const batch = 500
	for _, d := range []struct {
		ds   string
		recs []slim.Record
	}{{"e", w.E.Records}, {"i", w.I.Records}} {
		for i := 0; i < len(d.recs); i += batch {
			postJSON(t, ts.URL+"/v1/datasets/"+d.ds+"/records",
				map[string]any{"records": toWire(d.recs[i:min(i+batch, len(d.recs))])})
		}
	}
	postJSON(t, ts.URL+"/v1/link", nil)

	type page struct {
		Version uint64      `json:"version"`
		Total   int         `json:"total"`
		Links   []slim.Link `json:"links"`
	}
	var all page
	getJSON(t, ts.URL+"/v1/links", &all)
	if all.Total < 4 {
		t.Fatalf("workload produced only %d links; pagination needs a few pages", all.Total)
	}

	// Walk the pages twice, firing an identical relink before every fetch
	// on the second pass.
	walk := func(relinkBetween bool) []slim.Link {
		var out []slim.Link
		const limit = 3
		for offset := 0; ; offset += limit {
			if relinkBetween {
				postJSON(t, ts.URL+"/v1/link", nil)
			}
			var p page
			getJSON(t, fmt.Sprintf("%s/v1/links?limit=%d&offset=%d", ts.URL, limit, offset), &p)
			if p.Total != all.Total {
				t.Fatalf("total changed mid-walk: %d -> %d", all.Total, p.Total)
			}
			out = append(out, p.Links...)
			if len(p.Links) < limit {
				return out
			}
		}
	}
	for pass, links := range [][]slim.Link{walk(false), walk(true)} {
		if len(links) != all.Total {
			t.Fatalf("pass %d: pages concatenated to %d links, want %d (duplicates or gaps)", pass, len(links), all.Total)
		}
		for i, l := range links {
			if l != all.Links[i] {
				t.Fatalf("pass %d: page item %d = %+v, want %+v", pass, i, l, all.Links[i])
			}
		}
	}

	// The interleaved identical relinks were fully clean: they must have
	// short-circuited, left the version alone, and surfaced the edge-store
	// block with retained pairs.
	var st struct {
		RunsShortCircuited uint64 `json:"runs_short_circuited"`
		Version            uint64 `json:"version"`
		EdgeStore          *struct {
			Pairs         int64  `json:"pairs"`
			Epoch         uint64 `json:"epoch"`
			RescoredTotal uint64 `json:"rescored_total"`
		} `json:"edge_store"`
	}
	getJSON(t, ts.URL+"/v1/stats", &st)
	if st.RunsShortCircuited == 0 {
		t.Error("no-op relinks did not short-circuit")
	}
	if st.Version != all.Version {
		t.Errorf("clean relinks bumped the version: %d -> %d", all.Version, st.Version)
	}
	if st.EdgeStore == nil || st.EdgeStore.Pairs == 0 || st.EdgeStore.Epoch == 0 {
		t.Fatalf("edge_store block missing or empty: %+v", st.EdgeStore)
	}
	if st.EdgeStore.RescoredTotal == 0 {
		t.Errorf("edge_store totals not accumulated: %+v", st.EdgeStore)
	}
}

// TestServerCandidateIndexStats boots an LSH-enabled engine, streams a
// burst, and verifies /v1/stats surfaces the candidate-index metrics
// (signatures, buckets, dirty entities, last-update time), which a no-op
// relink then reports as zero work.
func TestServerCandidateIndexStats(t *testing.T) {
	cfg := slim.Defaults()
	cfg.LSH = &slim.LSHConfig{Threshold: 0.2, StepWindows: 8, SpatialLevel: 12, NumBuckets: 1 << 10}
	eng, err := engine.New(slim.Dataset{Name: "E"}, slim.Dataset{Name: "I"},
		engine.Config{Link: cfg, Debounce: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(eng, nil).Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(eng.Close)

	var recs []map[string]any
	for e := 0; e < 6; e++ {
		for k := 0; k < 8; k++ {
			recs = append(recs, map[string]any{
				"entity": fmt.Sprintf("u%d", e),
				"lat":    37.6 + float64(e)*0.01, "lng": -122.4,
				"unix": int64(900 * k),
			})
		}
	}
	postJSON(t, ts.URL+"/v1/datasets/e/records", map[string]any{"records": recs})
	for i := range recs {
		recs[i]["entity"] = fmt.Sprintf("v%d", i%6)
	}
	postJSON(t, ts.URL+"/v1/datasets/i/records", map[string]any{"records": recs})
	postJSON(t, ts.URL+"/v1/link", nil)

	type candidateStats struct {
		RunsShortCircuited uint64 `json:"runs_short_circuited"`
		CandidateIndex     *struct {
			SignaturesE       int     `json:"signatures_e"`
			SignaturesI       int     `json:"signatures_i"`
			Buckets           int     `json:"buckets"`
			Occupancy         float64 `json:"occupancy"`
			DirtyEntitiesLast int     `json:"dirty_entities_last"`
		} `json:"candidate_index"`
	}
	var st candidateStats
	getJSON(t, ts.URL+"/v1/stats", &st)
	ci := st.CandidateIndex
	if ci == nil {
		t.Fatal("stats response has no candidate_index despite LSH being enabled")
	}
	if ci.SignaturesE != 6 || ci.SignaturesI != 6 {
		t.Errorf("signatures %d/%d, want 6 per side", ci.SignaturesE, ci.SignaturesI)
	}
	if ci.Buckets == 0 || ci.Occupancy <= 0 {
		t.Errorf("index looks unbuilt: %+v", ci)
	}
	if ci.DirtyEntitiesLast == 0 {
		t.Errorf("first relink reports no index work: %+v", ci)
	}

	// A second relink with nothing pending re-signs and re-scores nothing.
	postJSON(t, ts.URL+"/v1/link", nil)
	getJSON(t, ts.URL+"/v1/stats", &st)
	if ci := st.CandidateIndex; ci.DirtyEntitiesLast != 0 || st.RunsShortCircuited != 1 {
		t.Errorf("no-op relink reports index work: %+v (short circuits %d)", ci, st.RunsShortCircuited)
	}

	// Disabled LSH must omit the block entirely.
	eng2, err := engine.New(slim.Dataset{Name: "E"}, slim.Dataset{Name: "I"},
		engine.Config{Link: slim.Defaults(), Debounce: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(New(eng2, nil).Handler())
	t.Cleanup(ts2.Close)
	t.Cleanup(eng2.Close)
	var st2 candidateStats
	getJSON(t, ts2.URL+"/v1/stats", &st2)
	if st2.CandidateIndex != nil {
		t.Error("candidate_index present with LSH disabled")
	}
}
