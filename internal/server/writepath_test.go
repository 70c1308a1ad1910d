package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"reflect"
	"testing"
	"time"

	"slim"
	"slim/internal/engine"
	"slim/internal/fault"
	"slim/internal/ingest"
	"slim/internal/storage"
)

// ingestRoute posts one batch of records over one of the two wire
// formats; everything behind the decode is the shared write path.
type ingestRoute struct {
	name string
	post func(t *testing.T, n *node, tag byte, recs []slim.Record) (*http.Response, []byte)
}

var ingestRoutes = []ingestRoute{
	{"json", func(t *testing.T, n *node, tag byte, recs []slim.Record) (*http.Response, []byte) {
		ds := "e"
		if tag == storage.TagI {
			ds = "i"
		}
		return postJSON(t, n.ts.URL+"/v1/datasets/"+ds+"/records", map[string]any{"records": toWire(recs)})
	}},
	{"binary", func(t *testing.T, n *node, tag byte, recs []slim.Record) (*http.Response, []byte) {
		return postBinary(t, n.ts.URL, frameBatches(tag, recs, len(recs)))
	}},
}

// writePathCounters are the /metrics samples the write path moves.
var writePathCounters = []string{
	"slim_ingest_accepted_batches_total",
	"slim_ingest_accepted_records_total",
	`slim_ingest_shed_requests_total{cause="queue-depth"}`,
	`slim_ingest_shed_requests_total{cause="latency"}`,
	"slim_ingest_shed_records_total",
	"slim_wal_batches_total",
	"slim_wal_records_total",
}

func scrapeWritePath(t *testing.T, n *node) map[string]float64 {
	t.Helper()
	resp, err := http.Get(n.ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	out := map[string]float64{}
	for _, name := range writePathCounters {
		v, ok := metricValue(buf.String(), name)
		if !ok {
			t.Fatalf("/metrics has no sample %s", name)
		}
		out[name] = v
	}
	return out
}

// ackOutcome is everything a client and an operator can observe of one
// ingest request: the response, and how far the write path's counters and
// the engine's pending buffers moved.
type ackOutcome struct {
	Status     int
	RetryAfter string
	Cause      string // 429 body: the exceeded budget
	Domain     string // 503 body: the failing domain
	Moved      map[string]float64
	Buffered   int
}

// TestWritePathMatrix drives both ingest routes through every verdict the
// shared tail can reach and requires them to be indistinguishable: same
// status, same Retry-After, same body fields, the same counters moving by
// the same amounts, and nothing buffered unless the batch was acknowledged.
func TestWritePathMatrix(t *testing.T) {
	const n = 10 // records in the probed batch
	holdDegraded := func(nd *node) {
		// Reopening needs a fresh segment; failing its create keeps the node
		// degraded (and the quarantine un-re-logged) while it is probed.
		nd.inj.Arm(storage.SiteFSOpenFile, fault.Rule{Count: 1 << 20})
	}
	accepted := map[string]float64{
		"slim_ingest_accepted_batches_total": 1, "slim_ingest_accepted_records_total": n,
		"slim_wal_batches_total": 1, "slim_wal_records_total": n,
	}
	for _, sc := range []struct {
		name    string
		opts    nodeOpts
		prepare func(t *testing.T, nd *node, r ingestRoute) // runs before the counters are read
		want    ackOutcome
		// relogged: once the faults clear, the reopen re-logs the nacked batch
		// and the store buffers it — exactly once.
		relogged bool
	}{
		{
			name: "healthy",
			opts: nodeOpts{storage: faultedStorage(0)},
			want: ackOutcome{Status: http.StatusAccepted, Moved: accepted, Buffered: n},
		},
		{
			name: "append error",
			opts: nodeOpts{storage: faultedStorage(0)},
			prepare: func(t *testing.T, nd *node, r ingestRoute) {
				nd.inj.Arm(storage.SiteFSWrite, fault.Rule{Count: 1})
				holdDegraded(nd)
			},
			want: ackOutcome{Status: http.StatusServiceUnavailable, RetryAfter: "1", Domain: "storage"},
		},
		{
			// The append succeeded (the store consumed it), its covering fsync
			// did not: nacked, not buffered, re-logged by the reopen.
			name: "group-commit wait error",
			opts: nodeOpts{storage: faultedStorage(time.Millisecond)},
			prepare: func(t *testing.T, nd *node, r ingestRoute) {
				nd.inj.Arm(storage.SiteFSSync, fault.Rule{Count: 1})
				holdDegraded(nd)
			},
			want: ackOutcome{Status: http.StatusServiceUnavailable, RetryAfter: "1", Domain: "storage",
				Moved: map[string]float64{"slim_wal_batches_total": 1, "slim_wal_records_total": n}},
			relogged: true,
		},
		{
			name: "already degraded",
			opts: nodeOpts{storage: faultedStorage(0)},
			prepare: func(t *testing.T, nd *node, r ingestRoute) {
				nd.inj.Arm(storage.SiteFSSync, fault.Rule{Count: 1})
				holdDegraded(nd)
				if resp, body := r.post(t, nd, storage.TagE, mkBurst("e-trip", 2)); resp.StatusCode != http.StatusServiceUnavailable {
					t.Fatalf("tripping batch = %d %s, want 503", resp.StatusCode, body)
				}
			},
			want: ackOutcome{Status: http.StatusServiceUnavailable, RetryAfter: "1", Domain: "storage"},
		},
		{
			name: "shed by depth",
			opts: nodeOpts{storage: faultedStorage(0), plane: ingest.Config{QueueDepth: n - 1}},
			want: ackOutcome{Status: http.StatusTooManyRequests, RetryAfter: "1", Cause: "queue-depth",
				Moved: map[string]float64{`slim_ingest_shed_requests_total{cause="queue-depth"}`: 1, "slim_ingest_shed_records_total": n}},
		},
		{
			name: "shed by latency",
			opts: nodeOpts{storage: faultedStorage(0), plane: ingest.Config{ShedAfter: time.Millisecond}},
			prepare: func(t *testing.T, nd *node, r ingestRoute) {
				// An acknowledged batch no relink drains ages past the budget.
				if resp, body := r.post(t, nd, storage.TagI, mkBurst("i-old", 2)); resp.StatusCode != http.StatusAccepted {
					t.Fatalf("aging batch = %d %s, want 202", resp.StatusCode, body)
				}
				time.Sleep(5 * time.Millisecond)
			},
			want: ackOutcome{Status: http.StatusTooManyRequests, RetryAfter: "1", Cause: "latency",
				Moved: map[string]float64{`slim_ingest_shed_requests_total{cause="latency"}`: 1, "slim_ingest_shed_records_total": n}},
		},
	} {
		t.Run(sc.name, func(t *testing.T) {
			for _, r := range ingestRoutes {
				nd := bootNode(t, sc.opts)
				if sc.prepare != nil {
					sc.prepare(t, nd, r)
				}
				before, pending := scrapeWritePath(t, nd), nd.eng.Pending()
				resp, body := r.post(t, nd, storage.TagE, mkBurst("e-probe", n))
				var fields struct {
					Cause  string `json:"cause"`
					Domain string `json:"domain"`
				}
				if err := json.Unmarshal(body, &fields); err != nil {
					t.Fatalf("%s: body %s: %v", r.name, body, err)
				}
				got := ackOutcome{
					Status:     resp.StatusCode,
					RetryAfter: resp.Header.Get("Retry-After"),
					Cause:      fields.Cause,
					Domain:     fields.Domain,
					Buffered:   nd.eng.Pending() - pending,
				}
				for name, v := range scrapeWritePath(t, nd) {
					if d := v - before[name]; d != 0 {
						if got.Moved == nil {
							got.Moved = map[string]float64{}
						}
						got.Moved[name] = d
					}
				}
				if !reflect.DeepEqual(got, sc.want) {
					t.Errorf("%s route:\n got %+v\nwant %+v", r.name, got, sc.want)
				}
				if resp.Header.Get("X-Request-Id") == "" {
					t.Errorf("%s route: response carries no X-Request-Id", r.name)
				}

				if sc.relogged {
					nd.inj.DisarmAll()
					nd.waitHealthy(t)
					if d := nd.eng.Pending() - pending; d != n {
						t.Errorf("%s route: %d records buffered after the re-log, want %d", r.name, d, n)
					}
				}
			}
		})
	}
}

// TestGroupCommitRelogLinkVisibleOnce follows one nacked batch through a
// whole degraded episode under group commit, on either route: its fsync
// fails, the client sees 503 and nothing is buffered; the reopen re-logs
// it and the store buffers it into the engine; the next relink makes it
// link-visible; the WAL holds it exactly once; and an engine recovered
// from that WAL publishes bit-identical links.
func TestGroupCommitRelogLinkVisibleOnce(t *testing.T) {
	link := slim.Defaults()
	link.Threshold = slim.ThresholdNone // a two-entity instance: keep the whole matching
	for _, r := range ingestRoutes {
		t.Run(r.name, func(t *testing.T) {
			nd := bootNode(t, nodeOpts{link: &link, storage: faultedStorage(time.Millisecond)})
			// Two entities a side (one alone has no uniqueness weight, so no
			// score); b is a degree north of a.
			north := func(e string) []slim.Record {
				recs := mkBurst(e, 20)
				for i := range recs {
					recs[i].LatLng.Lat++
				}
				return recs
			}
			for _, b := range []struct {
				tag  byte
				recs []slim.Record
			}{{storage.TagI, mkBurst("i-a", 20)}, {storage.TagI, north("i-b")}, {storage.TagE, north("e-b")}} {
				if resp, body := r.post(t, nd, b.tag, b.recs); resp.StatusCode != http.StatusAccepted {
					t.Fatalf("healthy ingest = %d %s", resp.StatusCode, body)
				}
			}

			nd.inj.Arm(storage.SiteFSSync, fault.Rule{Count: 1})
			nd.inj.Arm(storage.SiteFSOpenFile, fault.Rule{Count: 1 << 20})
			resp, body := r.post(t, nd, storage.TagE, mkBurst("e-a", 20))
			if resp.StatusCode != http.StatusServiceUnavailable {
				t.Fatalf("ingest under a failing fsync = %d %s, want 503", resp.StatusCode, body)
			}
			nd.eng.Run()
			if got := nd.eng.LinksFor("e-a"); len(got) != 0 || nd.eng.Stats().IngestedE != 20 {
				t.Fatalf("nacked batch reached the engine while degraded: links %+v, %d E records",
					got, nd.eng.Stats().IngestedE)
			}

			nd.inj.DisarmAll()
			nd.waitHealthy(t)
			live := nd.eng.Run().Links
			if len(live) != 2 || live[0].U != "e-a" || live[0].V != "i-a" || live[1].U != "e-b" || live[1].V != "i-b" {
				t.Fatalf("links after the re-log = %+v, want (e-a, i-a) and (e-b, i-b)", live)
			}
			if st := nd.eng.Stats(); st.IngestedE != 40 || st.IngestedI != 40 || st.PendingRecords != 0 {
				t.Fatalf("re-logged batch not buffered exactly once: %d E / %d I ingested, %d pending",
					st.IngestedE, st.IngestedI, st.PendingRecords)
			}

			// The WAL audit: all four batches, each record once.
			inWAL := map[slim.EntityID]int{}
			if _, _, err := storage.ReplayWAL(nd.dir, 0, func(b storage.Batch) error {
				for _, rec := range b.Recs {
					inWAL[rec.Entity]++
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(inWAL, map[slim.EntityID]int{"e-a": 20, "e-b": 20, "i-a": 20, "i-b": 20}) {
				t.Fatalf("WAL holds %v, want all four entities with 20 records each", inWAL)
			}

			// A crash right here recovers to the same links (the first store
			// is still open, as a kill -9 would leave the directory).
			eng2, store2, info, err := storage.Recover(nd.dir, slim.Dataset{Name: "E"}, slim.Dataset{Name: "I"},
				engine.Config{Link: link, Debounce: time.Hour}, storage.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer store2.Close()
			defer eng2.Close()
			if info.ReplayedRecords != 80 {
				t.Fatalf("recovery replayed %d records, want 80", info.ReplayedRecords)
			}
			recovered := eng2.Run().Links
			if len(recovered) != len(live) {
				t.Fatalf("recovered links %+v, live links %+v", recovered, live)
			}
			for i := range live {
				if recovered[i].U != live[i].U || recovered[i].V != live[i].V ||
					math.Float64bits(recovered[i].Score) != math.Float64bits(live[i].Score) {
					t.Fatalf("recovered link %d = %+v, live %+v", i, recovered[i], live[i])
				}
			}
		})
	}
}
