package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"slim"
	"slim/internal/fault"
	"slim/internal/storage"
)

// newFaultedServer boots a durable server whose storage runs on a
// fault-injectable filesystem, with no automatic checkpoints and a fast
// reopen loop.
func newFaultedServer(t *testing.T) (*httptest.Server, *storage.Store, *fault.Injector) {
	t.Helper()
	n := bootNode(t, nodeOpts{storage: faultedStorage(0)})
	return n.ts, n.store, n.inj
}

// faultedStorage is the storage configuration of the fault tests: the
// given fsync policy, no automatic checkpoints (the WAL keeps every batch,
// so a replay audits all of them) and a fast reopen loop.
func faultedStorage(fsync time.Duration) storage.Options {
	return storage.Options{
		FsyncInterval:     fsync,
		SnapshotEveryRuns: -1,
		ReopenBackoff:     time.Millisecond,
		ReopenMaxBackoff:  5 * time.Millisecond,
	}
}

func ingestBody(entity string, n int) map[string]any {
	recs := make([]map[string]any, n)
	for i := range recs {
		recs[i] = map[string]any{
			"entity": entity, "lat": 40.7 + float64(i)*0.001, "lng": -74.0,
			"unix": int64(1_000_000 + i*600),
		}
	}
	return map[string]any{"records": recs}
}

// TestServerDegradedMode drives the full degraded-mode contract through
// HTTP: a WAL fsync failure flips the node into degraded read-only mode,
// both ingest paths answer 503 + Retry-After (distinct from 429),
// /v1/snapshot refuses, reads and /healthz keep serving (healthz naming
// the failing domain), and once the fault clears the node heals and
// accepts ingest again.
func TestServerDegradedMode(t *testing.T) {
	ts, store, inj := newFaultedServer(t)

	resp, _ := postJSON(t, ts.URL+"/v1/datasets/e/records", ingestBody("d-ok", 4))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("healthy ingest status = %d", resp.StatusCode)
	}

	// Fail the next WAL fsync, and keep segment reopening failing so the
	// node stays degraded while we probe it.
	inj.Arm(storage.SiteFSSync, fault.Rule{Count: 1})
	inj.Arm(storage.SiteFSOpenFile, fault.Rule{Count: 1 << 20})

	resp, body := postJSON(t, ts.URL+"/v1/datasets/e/records", ingestBody("d-fail", 4))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("ingest during fsync failure: status = %d body=%s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("degraded 503 missing Retry-After")
	}
	var deg struct {
		Domain string `json:"domain"`
	}
	if err := json.Unmarshal(body, &deg); err != nil || deg.Domain != "storage" {
		t.Fatalf("degraded body = %s", body)
	}
	if !store.Degraded() {
		t.Fatal("store not degraded after failed append")
	}

	// Both planes refuse while degraded — JSON pre-check and binary.
	resp, _ = postJSON(t, ts.URL+"/v1/datasets/i/records", ingestBody("d-i", 2))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("JSON ingest while degraded: status = %d", resp.StatusCode)
	}
	wire := frameBatches(storage.TagE, []slim.Record{
		slim.NewRecord("d-bin", 40.7, -74.0, 1_000_000),
	}, 1)
	resp, _ = postBinary(t, ts.URL, wire)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("binary ingest while degraded: status = %d", resp.StatusCode)
	}

	// Checkpoints cannot be durable either.
	resp, err := http.Post(ts.URL+"/v1/snapshot", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/v1/snapshot while degraded: status = %d", resp.StatusCode)
	}

	// Reads keep serving: stats, metrics, and healthz all answer 200,
	// healthz naming the failing domain with cause and since-when.
	for _, path := range []string{"/v1/stats", "/metrics", "/healthz", "/readyz"} {
		r, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Fatalf("GET %s while degraded: status = %d", path, r.StatusCode)
		}
	}
	r, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz struct {
		Status  string `json:"status"`
		Domains []struct {
			Domain      string `json:"domain"`
			Status      string `json:"status"`
			Cause       string `json:"cause"`
			SinceUnixMs int64  `json:"since_unix_ms"`
		} `json:"domains"`
	}
	if err := json.NewDecoder(r.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if hz.Status != "degraded" {
		t.Fatalf("healthz status = %q, want degraded", hz.Status)
	}
	foundStorage := false
	for _, d := range hz.Domains {
		if d.Domain == "storage" {
			foundStorage = true
			if d.Status != "degraded" || d.Cause == "" || d.SinceUnixMs == 0 {
				t.Fatalf("healthz storage domain = %+v", d)
			}
		}
	}
	if !foundStorage {
		t.Fatalf("healthz missing storage domain: %+v", hz.Domains)
	}

	// Heal the disk: the reopen loop recovers, ingest resumes, healthz
	// returns to ok.
	inj.DisarmAll()
	deadline := time.Now().Add(5 * time.Second)
	for store.Degraded() {
		if time.Now().After(deadline) {
			t.Fatal("store never recovered after fault cleared")
		}
		time.Sleep(time.Millisecond)
	}
	resp, body = postJSON(t, ts.URL+"/v1/datasets/e/records", ingestBody("d-after", 4))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest after recovery: status = %d body=%s", resp.StatusCode, body)
	}
	r, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hz.Domains = nil
	if err := json.NewDecoder(r.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if hz.Status != "ok" {
		t.Fatalf("healthz after recovery = %q, want ok", hz.Status)
	}
}
