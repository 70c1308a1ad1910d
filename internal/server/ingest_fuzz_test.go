package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"slim"
	"slim/internal/engine"
	"slim/internal/ingest"
	"slim/internal/storage"
)

// batchRecorder is an ingest plane's logger that keeps every batch the
// plane hands it and makes each durable at once: what the write path
// received, before the engine buffers it.
type batchRecorder struct{ batches []storage.WireBatch }

func (r *batchRecorder) LogEncoded(tag byte, recordBytes []byte, recs []slim.Record) (func() error, error) {
	r.batches = append(r.batches, storage.WireBatch{Tag: tag, RecordBytes: recordBytes, Recs: recs})
	return func() error { return nil }, nil
}

// fuzzIngestLimit is the JSON route's body limit under FuzzJSONIngest,
// small enough for the fuzzer to cross.
const fuzzIngestLimit = 4 << 10

// jsonIngestSeeds are request bodies from the ingest tests: accepted
// batches, TestServerErrors' rejected ones, bodies past the limit (one a
// valid batch padded with white space) and bodies with trailing data.
func jsonIngestSeeds(t testing.TB) [][]byte {
	ground := slim.GenerateCab(slim.CabOptions{NumTaxis: 4, Days: 1, MeanRecordIntervalSec: 900, Seed: 21})
	recs := ground.Records[:6]
	recs[1].RadiusKm = 0.4
	one := func(fields map[string]any) any { return map[string]any{"records": []map[string]any{fields}} }
	var big []map[string]any
	for len(big)*40 < 2*fuzzIngestLimit {
		big = append(big, toWire(recs)...)
	}
	var seeds [][]byte
	for _, body := range []any{
		map[string]any{"records": toWire(recs)},
		map[string]any{"records": []any{}},
		map[string]any{"rows": []any{}},
		one(map[string]any{"entity": "", "lat": 1.0, "lng": 2.0, "unix": 3}),
		one(map[string]any{"entity": "a", "lat": 0.0, "lng": 1e308, "unix": 0}),
		one(map[string]any{"entity": "a", "lat": 91.0, "lng": 0.0, "unix": 0}),
		one(map[string]any{"entity": "a", "lat": 0.0, "lng": 0.0, "unix": 0, "radius_km": -1.0}),
		one(map[string]any{"entity": "a", "lat": 0.0, "lng": 0.0, "unix": 0, "radius_km": math.Copysign(0, -1)}),
		one(map[string]any{"entity": "a\r\nb", "lat": 1.0, "lng": 2.0, "unix": 3}),
		one(map[string]any{"entity": "a", "lat": 0.0, "lng": 0.0, "unix": int64(math.MinInt64)}),
		map[string]any{"records": big},
	} {
		buf, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds, buf)
	}
	padded := append(bytes.Clone(seeds[0]), bytes.Repeat([]byte(" "), fuzzIngestLimit)...)
	return append(seeds, []byte("{not json"), padded,
		append(bytes.Clone(seeds[0]), "]"...), append(bytes.Clone(seeds[0]), "}"...), append(bytes.Clone(seeds[0]), " {}"...))
}

// FuzzJSONIngest drives the JSON ingest route (handleIngest through
// decodeJSON) on a memory-only engine whose ingest plane records what it
// is handed. No input panics or gets a 500. A 202 means the plane
// received exactly the body's records, as encoding/json decodes them and
// put on the E7 grid, bit for bit, in one batch of the route's dataset,
// and the engine buffered them. Any 4xx means nothing reached the plane
// or the engine. A body over the limit is a 413.
func FuzzJSONIngest(f *testing.F) {
	for k, seed := range jsonIngestSeeds(f) {
		f.Add(seed, k%2 == 1)
	}
	f.Fuzz(func(t *testing.T, body []byte, toI bool) {
		eng, err := engine.New(slim.Dataset{Name: "E"}, slim.Dataset{Name: "I"}, engine.Config{Link: slim.Defaults(), Debounce: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		plane := ingest.NewPlane(eng, ingest.Config{})
		rec := &batchRecorder{}
		plane.AttachLogger(rec)
		srv := New(eng, nil, WithIngestPlane(plane), WithMaxIngestBody(fuzzIngestLimit))
		srv.SetReady()
		ds, tag := "e", byte(storage.TagE)
		if toI {
			ds, tag = "i", storage.TagI
		}
		w := httptest.NewRecorder()
		srv.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/datasets/"+ds+"/records", bytes.NewReader(body)))

		switch code := w.Code; {
		case code == http.StatusAccepted:
			var req ingestRequest
			if err := json.Unmarshal(body, &req); err != nil {
				t.Fatalf("accepted a body encoding/json rejects (%v): %q", err, body)
			}
			want := make([]slim.Record, len(req.Records))
			for i, r := range req.Records {
				want[i] = storage.QuantizeRecord(slim.Record{
					Entity: slim.EntityID(r.Entity), LatLng: slim.LatLng{Lat: r.Lat, Lng: r.Lng}, Unix: r.Unix, RadiusKm: r.RadiusKm,
				})
			}
			if len(rec.batches) != 1 || rec.batches[0].Tag != tag || !sameRecords(rec.batches[0].Recs, want) {
				t.Fatalf("accepted %q; the plane received %+v, want one batch of %+v", body, rec.batches, want)
			}
			decoded, err := storage.DecodeWireBatch(append([]byte{tag}, rec.batches[0].RecordBytes...))
			if err != nil || !sameRecords(decoded.Recs, want) {
				t.Fatalf("accepted %q; its encoded batch decodes to %+v (%v), want %+v", body, decoded.Recs, err, want)
			}
			if eng.Pending() != len(want) {
				t.Fatalf("accepted %d records, the engine buffered %d", len(want), eng.Pending())
			}
		case code >= 400 && code < 500:
			if len(rec.batches) != 0 || eng.Pending() != 0 {
				t.Fatalf("status %d for %q, yet the plane received %d batches and the engine buffered %d records",
					code, body, len(rec.batches), eng.Pending())
			}
		default:
			t.Fatalf("status %d for %q: %s", code, body, w.Body)
		}
		if len(body) > fuzzIngestLimit && w.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("a %d-byte body over the %d-byte limit got %d: %s", len(body), fuzzIngestLimit, w.Code, w.Body)
		}
	})
}

// sameRecords compares two record lists field by field, floats by their
// bits.
func sameRecords(a, b []slim.Record) bool {
	if len(a) != len(b) {
		return false
	}
	bits := math.Float64bits
	for i := range a {
		x, y := a[i], b[i]
		if x.Entity != y.Entity || x.Unix != y.Unix || bits(x.LatLng.Lat) != bits(y.LatLng.Lat) ||
			bits(x.LatLng.Lng) != bits(y.LatLng.Lng) || bits(x.RadiusKm) != bits(y.RadiusKm) {
			return false
		}
	}
	return true
}
