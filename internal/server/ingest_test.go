package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"testing"
	"time"

	"slim"
	"slim/internal/engine"
	"slim/internal/ingest"
	"slim/internal/storage"
)

// newDurableServer boots an empty engine over a fresh data directory.
func newDurableServer(t *testing.T, opts ...Option) (*httptest.Server, string) {
	t.Helper()
	dir := t.TempDir()
	eng, store, _, err := storage.Recover(dir, slim.Dataset{Name: "E"}, slim.Dataset{Name: "I"},
		engine.Config{Link: slim.Defaults(), Debounce: time.Hour}, storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(eng, nil, opts...)
	srv.AttachStore(store)
	srv.SetReady()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(eng.Close)
	t.Cleanup(func() { store.Close() })
	return ts, dir
}

func postBinary(t *testing.T, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/ingest/batch", ingest.ContentType, bytes.NewReader(body))
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

// frameBatches encodes records into CRC-framed wire batches of batchLen.
func frameBatches(tag byte, recs []slim.Record, batchLen int) []byte {
	var body []byte
	for i := 0; i < len(recs); i += batchLen {
		hi := min(i+batchLen, len(recs))
		body = storage.AppendFrame(body, storage.AppendWireBatch(nil, tag, recs[i:hi]))
	}
	return body
}

// TestBinaryJSONIngestParity is the cross-plane equivalence proof: the
// same workload ingested over JSON and over the binary wire must produce
// byte-identical /v1/links output AND an identical WAL modulo framing —
// the same sequence of (tag, records) batches on disk.
func TestBinaryJSONIngestParity(t *testing.T) {
	ground := slim.GenerateCab(slim.CabOptions{
		NumTaxis: 12, Days: 2, MeanRecordIntervalSec: 420, Seed: 21,
	})
	w := slim.SampleWorkload(&ground, slim.SampleOptions{
		IntersectionRatio: 0.5, InclusionProbE: 0.6, InclusionProbI: 0.6, Seed: 22,
	})

	tsJSON, dirJSON := newDurableServer(t)
	tsBin, dirBin := newDurableServer(t)

	const batch = 500
	for i := 0; i < len(w.E.Records); i += batch {
		hi := min(i+batch, len(w.E.Records))
		resp, body := postJSON(t, tsJSON.URL+"/v1/datasets/e/records",
			map[string]any{"records": toWire(w.E.Records[i:hi])})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("json ingest: %d %s", resp.StatusCode, body)
		}
	}
	for i := 0; i < len(w.I.Records); i += batch {
		hi := min(i+batch, len(w.I.Records))
		resp, body := postJSON(t, tsJSON.URL+"/v1/datasets/i/records",
			map[string]any{"records": toWire(w.I.Records[i:hi])})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("json ingest: %d %s", resp.StatusCode, body)
		}
	}

	// Same records, same batch boundaries, over the binary wire (several
	// frames per request — request framing must not affect the log).
	var accepted int
	for _, req := range [][]byte{
		frameBatches(storage.TagE, w.E.Records, batch),
		frameBatches(storage.TagI, w.I.Records, batch),
	} {
		resp, body := postBinary(t, tsBin.URL, req)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("binary ingest: %d %s", resp.StatusCode, body)
		}
		var ack binaryIngestResponse
		if err := json.Unmarshal(body, &ack); err != nil {
			t.Fatal(err)
		}
		accepted += ack.Accepted
	}
	if accepted != len(w.E.Records)+len(w.I.Records) {
		t.Fatalf("binary plane accepted %d records, want %d", accepted, len(w.E.Records)+len(w.I.Records))
	}

	// Identical linkage output.
	type linksPage struct {
		Total int        `json:"total"`
		Links []linkJSON `json:"links"`
	}
	var a, b linksPage
	postJSON(t, tsJSON.URL+"/v1/link", nil)
	postJSON(t, tsBin.URL+"/v1/link", nil)
	getJSON(t, tsJSON.URL+"/v1/links", &a)
	getJSON(t, tsBin.URL+"/v1/links", &b)
	if a.Total == 0 {
		t.Fatal("workload produced no links; parity test is vacuous")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("links diverge between planes: %d vs %d links", a.Total, b.Total)
	}

	// Identical WAL modulo framing: same (tag, records) batch sequence.
	type walBatch struct {
		Tag  byte
		Recs []slim.Record
	}
	replay := func(dir string) []walBatch {
		var out []walBatch
		if _, _, err := storage.ReplayWAL(dir, 0, func(bt storage.Batch) error {
			out = append(out, walBatch{Tag: bt.Tag, Recs: bt.Recs})
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	wa, wb := replay(dirJSON), replay(dirBin)
	if len(wa) == 0 {
		t.Fatal("JSON plane logged nothing")
	}
	if !reflect.DeepEqual(wa, wb) {
		t.Fatalf("WAL content diverges between planes: %d vs %d batches", len(wa), len(wb))
	}
}

// TestBinaryIngestErrorSurface: the binary endpoint's full rejection
// matrix, plus the shared 413 limit on the JSON path.
func TestBinaryIngestErrorSurface(t *testing.T) {
	ts, _ := newDurableServer(t, WithMaxIngestBody(2048))

	good := frameBatches(storage.TagE, mkBurst("e-a", 10), 10)

	if resp, err := http.Post(ts.URL+"/v1/ingest/batch", "text/plain", bytes.NewReader(good)); err != nil {
		t.Fatal(err)
	} else if resp.Body.Close(); resp.StatusCode != http.StatusUnsupportedMediaType {
		t.Errorf("wrong content type = %d, want 415", resp.StatusCode)
	}

	badTag := append([]byte{'Q'}, storage.AppendWireBatch(nil, storage.TagE, mkBurst("e-a", 3))[1:]...)
	for name, body := range map[string][]byte{
		"empty body": nil,
		"garbage":    []byte("this is not a frame"),
		"torn frame": good[:len(good)-2],
		"bad tag":    storage.AppendFrame(nil, badTag),
	} {
		if resp, respBody := postBinary(t, ts.URL, body); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s = %d %s, want 400", name, resp.StatusCode, respBody)
		}
	}

	// Oversized bodies: 413 on both planes.
	huge := frameBatches(storage.TagE, mkBurst("e-big", 200), 200)
	if len(huge) <= 2048 {
		t.Fatalf("test burst only %d bytes, need > 2048", len(huge))
	}
	if resp, body := postBinary(t, ts.URL, huge); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized binary body = %d %s, want 413", resp.StatusCode, body)
	}
	if resp, body := postJSON(t, ts.URL+"/v1/datasets/e/records",
		map[string]any{"records": toWire(mkBurst("e-big", 200))}); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized json body = %d %s, want 413", resp.StatusCode, body)
	}

	// Nothing above may have reached the log or the queues.
	var st statsResponse
	getJSON(t, ts.URL+"/v1/stats", &st)
	if st.PendingRecords != 0 || st.Storage.RecordsLogged != 0 {
		t.Fatalf("rejected requests leaked records: %+v %+v", st.PendingRecords, st.Storage)
	}
}

// mkBurst builds n records for one entity.
func mkBurst(e string, n int) []slim.Record {
	out := make([]slim.Record, 0, n)
	for k := 0; k < n; k++ {
		out = append(out, slim.NewRecord(slim.EntityID(e),
			37.5+float64(k%4)*0.06, -122.3, 1_000_000+int64(k)*900))
	}
	return out
}

// TestIngestShedLosslessOrRejected: with a tiny queue budget, overload
// must shed with 429 + Retry-After on BOTH planes, and replay-count
// accounting must prove every record was either fully applied (in the
// WAL and the queues) or fully rejected — never half-applied.
func TestIngestShedLosslessOrRejected(t *testing.T) {
	dir := t.TempDir()
	eng, store, _, err := storage.Recover(dir, slim.Dataset{Name: "E"}, slim.Dataset{Name: "I"},
		engine.Config{Link: slim.Defaults(), Debounce: time.Hour}, storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	plane := ingest.NewPlane(eng, ingest.Config{QueueDepth: 600, RetryAfter: 3 * time.Second})
	srv := New(eng, nil, WithIngestPlane(plane))
	srv.AttachStore(store)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(eng.Close)
	t.Cleanup(func() { store.Close() })

	// No background relink (huge debounce): accepted records accumulate in
	// the pending queues until the depth budget sheds the next request.
	acceptedRecords := 0
	sheds := 0
	for i := 0; i < 4; i++ {
		burst := mkBurst("e-"+strconv.Itoa(i), 500)
		resp, body := postBinary(t, ts.URL, frameBatches(storage.TagE, burst, 500))
		switch resp.StatusCode {
		case http.StatusAccepted:
			acceptedRecords += 500
		case http.StatusTooManyRequests:
			sheds++
			if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 {
				t.Fatalf("429 Retry-After header = %q, want an integer >= 1", resp.Header.Get("Retry-After"))
			}
			var shed struct {
				Cause string `json:"cause"`
			}
			if err := json.Unmarshal(body, &shed); err != nil || shed.Cause != "queue-depth" {
				t.Fatalf("shed body %s (err %v), want cause queue-depth", body, err)
			}
		default:
			t.Fatalf("burst %d: %d %s", i, resp.StatusCode, body)
		}
	}
	if acceptedRecords == 0 || sheds == 0 {
		t.Fatalf("test needs both outcomes: accepted %d records, %d sheds", acceptedRecords, sheds)
	}

	// The JSON plane sheds under the same policy.
	if resp, _ := postJSON(t, ts.URL+"/v1/datasets/e/records",
		map[string]any{"records": toWire(mkBurst("e-json", 500))}); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("json ingest while overloaded = %d, want 429", resp.StatusCode)
	}

	// Replay-count accounting: the WAL holds exactly the acknowledged
	// records — shed requests left no partial batches behind.
	walRecords := 0
	if _, _, err := storage.ReplayWAL(dir, 0, func(b storage.Batch) error {
		walRecords += len(b.Recs)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if walRecords != acceptedRecords {
		t.Fatalf("WAL holds %d records, acknowledged %d — shed ingest was half-applied", walRecords, acceptedRecords)
	}
	if eng.Pending() != acceptedRecords {
		t.Fatalf("queues hold %d records, acknowledged %d", eng.Pending(), acceptedRecords)
	}

	// The stats block tells the same story.
	var st statsResponse
	getJSON(t, ts.URL+"/v1/stats", &st)
	if st.Ingest == nil {
		t.Fatal("stats response has no ingest block")
	}
	if st.Ingest.QueueDepth != 600 || st.Ingest.AcceptedRecords != uint64(acceptedRecords) ||
		st.Ingest.ShedRequests != uint64(sheds)+1 || st.Ingest.ShedQueueDepth != uint64(sheds)+1 {
		t.Fatalf("ingest stats %+v, want %d accepted / %d sheds", st.Ingest, acceptedRecords, sheds+1)
	}
	if st.Ingest.PendingRecords != acceptedRecords || st.Ingest.InflightRecords != 0 {
		t.Fatalf("ingest queue state %+v", st.Ingest)
	}

	// Backpressure recovers: a relink drains the queues and ingest resumes.
	postJSON(t, ts.URL+"/v1/link", nil)
	if resp, body := postBinary(t, ts.URL,
		frameBatches(storage.TagE, mkBurst("e-after", 500), 500)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest after relink = %d %s, want 202", resp.StatusCode, body)
	}

	// And the accepted records survive a crash: recovery replays exactly
	// the acknowledged set.
	var replayed int
	if _, _, err := storage.ReplayWAL(dir, 0, func(b storage.Batch) error {
		replayed += len(b.Recs)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if replayed != acceptedRecords+500 {
		t.Fatalf("post-recovery WAL holds %d records, want %d", replayed, acceptedRecords+500)
	}
}
