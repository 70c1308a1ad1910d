package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"testing"
	"time"

	"slim"
	"slim/internal/engine"
	"slim/internal/fault"
	"slim/internal/geo"
	"slim/internal/ingest"
	"slim/internal/obs"
	"slim/internal/storage"
	"slim/internal/testenv"
)

// nodeOpts parameterizes bootNode; the zero value is a durable node with
// default budgets and inline fsync (storage.Options' zero value).
type nodeOpts struct {
	memoryOnly   bool            // no data directory: Submit buffers without logging
	seedE, seedI []slim.Record   // the seed datasets' records (-e/-i)
	link         *slim.Config    // nil = slim.Defaults()
	storage      storage.Options // FS and Registry are filled in by bootNode
	plane        ingest.Config   // Registry is filled in by bootNode
	server       []Option
}

// node is one in-process slimd, wired the way cmd/slimd wires the
// process: engine, store, ingest plane and server over one registry, the
// store on a fault-injectable filesystem (an unarmed injector is
// byte-transparent, see storage.TestFaultFSQuietParity).
type node struct {
	ts    *httptest.Server
	eng   *engine.Engine
	store *storage.Store // nil when memoryOnly
	inj   *fault.Injector
	dir   string
}

func bootNode(t *testing.T, o nodeOpts) *node {
	t.Helper()
	n := &node{inj: fault.New()}
	reg := obs.NewRegistry()
	link := slim.Defaults()
	if o.link != nil {
		link = *o.link
	}
	engCfg := engine.Config{Link: link, Debounce: time.Hour, Registry: reg}
	seedE, seedI := slim.Dataset{Name: "E", Records: o.seedE}, slim.Dataset{Name: "I", Records: o.seedI}
	var err error
	if o.memoryOnly {
		n.eng, err = engine.New(storage.QuantizeDataset(seedE), storage.QuantizeDataset(seedI), engCfg)
	} else {
		n.dir = t.TempDir()
		o.storage.FS = storage.NewFaultFS(storage.OSFS, n.inj)
		o.storage.Registry = reg
		n.eng, n.store, _, err = storage.Recover(n.dir, seedE, seedI, engCfg, o.storage)
	}
	if err != nil {
		t.Fatal(err)
	}
	o.plane.Registry = reg
	plane := ingest.NewPlane(n.eng, o.plane)
	srv := New(n.eng, nil, append([]Option{WithRegistry(reg), WithIngestPlane(plane)}, o.server...)...)
	if n.store != nil {
		srv.AttachStore(n.store)
	}
	srv.SetReady()
	n.ts = httptest.NewServer(srv.Handler())
	t.Cleanup(n.ts.Close)
	t.Cleanup(n.eng.Close)
	if n.store != nil {
		t.Cleanup(func() { n.store.Close() })
	}
	return n
}

// waitHealthy blocks until the node's store has left degraded mode.
func (n *node) waitHealthy(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for n.store.Degraded() {
		if time.Now().After(deadline) {
			t.Fatal("store never recovered after the faults cleared")
		}
		time.Sleep(time.Millisecond)
	}
}

// newDurableServer boots an empty engine over a fresh data directory.
func newDurableServer(t *testing.T, opts ...Option) (*httptest.Server, string) {
	t.Helper()
	n := bootNode(t, nodeOpts{server: opts})
	return n.ts, n.dir
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

// TestBinaryJSONIngestParity is the cross-route equivalence proof of the
// one write path: the same workload ingested over JSON without a data
// directory, over JSON with one, and over the binary wire must produce
// Float64bits-identical links, and the two durable runs must leave
// byte-identical WAL segments. Every fifth E record sits within 1e-12
// degrees of a history-grid cell edge, on the side E7 rounding pulls it
// off (onCellEdge), so a route that buffered unquantized positions — as
// JSON ingest without a data directory did before Submit became its only
// path — bins those records into different cells and scores differently.
func TestBinaryJSONIngestParity(t *testing.T) {
	ground := slim.GenerateCab(slim.CabOptions{
		NumTaxis: 12, Days: 2, MeanRecordIntervalSec: 420, Seed: 21,
	})
	w := slim.SampleWorkload(&ground, slim.SampleOptions{
		IntersectionRatio: 0.5, InclusionProbE: 0.6, InclusionProbI: 0.6, Seed: 22,
	})
	for i := range w.E.Records {
		switch i % 5 {
		case 0:
			w.E.Records[i].LatLng = onCellEdge(t, w.E.Records[i].LatLng, slim.Defaults().SpatialLevel)
		case 1: // regions too: the codec carries their radius verbatim
			w.E.Records[i].RadiusKm = 0.4
		}
	}

	// E before I on every node, so the durable runs' sequence numbers line up.
	const batch = 500
	ingestJSON := func(n *node) {
		for _, ds := range []struct {
			name string
			recs []slim.Record
		}{{"e", w.E.Records}, {"i", w.I.Records}} {
			for i := 0; i < len(ds.recs); i += batch {
				resp, body := postJSON(t, n.ts.URL+"/v1/datasets/"+ds.name+"/records",
					map[string]any{"records": toWire(ds.recs[i:min(i+batch, len(ds.recs))])})
				if resp.StatusCode != http.StatusAccepted {
					t.Fatalf("json ingest: %d %s", resp.StatusCode, body)
				}
			}
		}
	}
	memJSON := bootNode(t, nodeOpts{memoryOnly: true})
	durJSON := bootNode(t, nodeOpts{})
	durBin := bootNode(t, nodeOpts{})
	ingestJSON(memJSON)
	ingestJSON(durJSON)

	// Same records, same batch boundaries, over the binary wire (several
	// frames per request — request framing must not affect the log).
	var accepted int
	for _, req := range [][]byte{
		frameBatches(storage.TagE, w.E.Records, batch),
		frameBatches(storage.TagI, w.I.Records, batch),
	} {
		resp, body := postBinary(t, durBin.ts.URL, req)
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

	// Identical linkage output, bit for bit.
	want := durBin.eng.Run().Links
	if len(want) == 0 {
		t.Fatal("workload produced no links; parity test is vacuous")
	}
	for name, n := range map[string]*node{"json, memory only": memJSON, "json, durable": durJSON} {
		requireSameLinks(t, name, n.eng.Run().Links, "binary route", want)
	}

	// Identical WAL, byte for byte: same segment files, same contents.
	segments := func(dir string) map[string][]byte {
		paths, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
		if err != nil {
			t.Fatal(err)
		}
		out := map[string][]byte{}
		for _, p := range paths {
			buf, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			out[filepath.Base(p)] = buf
		}
		return out
	}
	wa, wb := segments(durJSON.dir), segments(durBin.dir)
	logged := 0
	for _, buf := range wa {
		logged += len(buf)
	}
	if logged == 0 {
		t.Fatal("JSON route logged nothing")
	}
	if !reflect.DeepEqual(wa, wb) {
		t.Fatalf("WAL segments diverge between routes: %d vs %d files", len(wa), len(wb))
	}
}

// requireSameLinks fails unless two link lists are equal pair for pair
// with Float64bits-identical scores.
func requireSameLinks(t *testing.T, name string, got []slim.Link, wantName string, want []slim.Link) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d links, %s %d", name, len(got), wantName, len(want))
	}
	for i := range want {
		if got[i].U != want[i].U || got[i].V != want[i].V ||
			math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			t.Fatalf("%s: link %d = %+v, %s %+v", name, i, got[i], wantName, want[i])
		}
	}
}

// TestSeedsLinkTheSameWithAndWithoutDataDir: slimd builds its engine over
// the -e/-i seeds in memory, or through a fresh data directory that stores
// them on the E7 grid, and the two must publish Float64bits-identical
// links. Every third E record sits within 1e-12 degrees of a history-grid
// cell edge, on the side E7 rounding pulls it off (onCellEdge), so an
// engine built over the raw seeds bins those records into other cells.
func TestSeedsLinkTheSameWithAndWithoutDataDir(t *testing.T) {
	ground := slim.GenerateCab(slim.CabOptions{
		NumTaxis: 20, Days: 2, MeanRecordIntervalSec: 420, Seed: 21,
	})
	w := slim.SampleWorkload(&ground, slim.SampleOptions{
		IntersectionRatio: 0.5, InclusionProbE: 0.6, InclusionProbI: 0.6, Seed: 22,
	})
	for i := 0; i < len(w.E.Records); i += 3 {
		w.E.Records[i].LatLng = onCellEdge(t, w.E.Records[i].LatLng, slim.Defaults().SpatialLevel)
	}
	durable := bootNode(t, nodeOpts{seedE: w.E.Records, seedI: w.I.Records})
	memory := bootNode(t, nodeOpts{memoryOnly: true, seedE: w.E.Records, seedI: w.I.Records})
	want := durable.eng.Run().Links
	if len(want) == 0 {
		t.Fatal("workload produced no links; the comparison is vacuous")
	}
	requireSameLinks(t, "memory only", memory.eng.Run().Links, "data directory", want)
}

// onCellEdge moves ll north to the next cell edge of the given grid level
// and returns a position within 1e-12 degrees of it whose E7 rounding lies
// in the neighbouring cell: quantizing it changes the cell it bins into.
func onCellEdge(t *testing.T, ll slim.LatLng, level int) slim.LatLng {
	t.Helper()
	cell := func(lat float64) geo.CellID {
		return geo.CellIDFromLatLngLevel(geo.LatLng{Lat: lat, Lng: ll.Lng}, level)
	}
	lo, hi := ll.Lat, ll.Lat+0.1 // level-12 cells are ~0.02 degrees tall
	if cell(lo) == cell(hi) {
		t.Fatalf("no cell edge within 0.1 degrees north of %+v", ll)
	}
	for hi-lo > 1e-12 {
		if mid := (lo + hi) / 2; cell(mid) == cell(lo) {
			lo = mid
		} else {
			hi = mid
		}
	}
	// The nearest E7 grid point is on one side of the edge; the bracket end
	// on the other side is the position rounding carries across.
	for _, lat := range []float64{lo, hi} {
		q := storage.QuantizeRecord(slim.Record{LatLng: slim.LatLng{Lat: lat, Lng: ll.Lng}})
		if cell(q.LatLng.Lat) != cell(lat) {
			return slim.LatLng{Lat: lat, Lng: ll.Lng}
		}
	}
	t.Fatalf("cell edge north of %+v lies on the E7 grid", ll)
	return ll
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
		// An id with a line break would not survive the canonical CSV.
		"CRLF in entity": frameBatches(storage.TagE, mkBurst("e-a\r\nb", 3), 3),
		"CR in entity":   frameBatches(storage.TagE, mkBurst("e-a\rb", 3), 3),
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
	var st struct {
		PendingRecords int `json:"pending_records"`
		Storage        struct {
			RecordsLogged uint64 `json:"records_logged"`
		} `json:"storage"`
	}
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
	plane := ingest.NewPlane(eng, ingest.Config{QueueDepth: 600})
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
	var st struct {
		Ingest *struct {
			QueueDepth      int    `json:"queue_depth"`
			InflightRecords int    `json:"inflight_records"`
			PendingRecords  int    `json:"pending_records"`
			AcceptedRecords uint64 `json:"accepted_records"`
			ShedRequests    uint64 `json:"shed_requests"`
			ShedQueueDepth  uint64 `json:"shed_queue_depth"`
		} `json:"ingest"`
	}
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

// TestReadBodySizedFromContentLength: the binary route's body read makes
// one buffer from the declared Content-Length instead of regrowing from
// 512 B — a 1,000-record request allocates at most twice its body — and
// a missing, understated or overstated length changes nothing about what
// is read or refused.
func TestReadBodySizedFromContentLength(t *testing.T) {
	recs := make([]slim.Record, 1000)
	for k := range recs {
		recs[k] = slim.NewRecord(slim.EntityID("e-"+strconv.Itoa(k%40)), 37.5+float64(k%7)*0.01, -122.3, 1_000_000+int64(k)*60)
	}
	body := frameBatches(storage.TagE, recs, len(recs))
	read := func(declared, limit int64) ([]byte, error) {
		req := httptest.NewRequest(http.MethodPost, "/v1/ingest/batch", bytes.NewReader(body))
		req.ContentLength = declared
		return readBody(httptest.NewRecorder(), req, limit)
	}
	for _, declared := range []int64{int64(len(body)), -1, 0, 10, 1 << 30} {
		got, err := read(declared, MaxIngestBody)
		if err != nil || !bytes.Equal(got, body) {
			t.Fatalf("Content-Length %d: read %d bytes, %v; want the %d-byte body", declared, len(got), err, len(body))
		}
	}
	var tooLarge *http.MaxBytesError
	if _, err := read(int64(len(body)), int64(len(body))-1); !errors.As(err, &tooLarge) {
		t.Fatalf("body over the limit: %v, want MaxBytesError", err)
	}

	if testenv.RaceEnabled {
		t.Skip("allocation budget; skipped under the race detector")
	}
	const runs = 50
	reqs := make([]*http.Request, runs)
	for k := range reqs {
		reqs[k] = httptest.NewRequest(http.MethodPost, "/v1/ingest/batch", bytes.NewReader(body))
	}
	w := httptest.NewRecorder()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, req := range reqs {
		if _, err := readBody(w, req, MaxIngestBody); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if perRead := (after.TotalAlloc - before.TotalAlloc) / runs; perRead > 2*uint64(len(body)) {
		t.Fatalf("reading a %d-byte body allocated %d bytes, want at most twice the body", len(body), perRead)
	}
}
