package ingest

import (
	"math"
	"slices"
	"testing"

	"slim"
	"slim/internal/geo"
	"slim/internal/storage"
	"slim/internal/testenv"
)

// parseBytesPerInputByte and parseFixedBytes bound what ParseRequest
// allocates for a body of n bytes. The record-count guard of the batch
// decoder lets a batch ask for at most one 48-byte record per payload
// byte, and an id is a copy of at most every byte once more; the batch
// list costs 56 bytes per frame of at least ten.
const (
	parseBytesPerInputByte = 64
	parseFixedBytes        = 1 << 10
)

// FuzzParseRequest holds the binary ingest route's parser, the frame codec
// and the wire batch decoder behind both binary routes, to three oracles
// (requireParsesBack) on any body, and on the input framed whole as one
// payload, so that mutations reach the batch decoder past the frame's
// checksum. The seeds are a valid two-frame body and every cut of it; the
// committed corpus (testdata/fuzz) holds TestDecodeBatchRejectsCorruption's
// cases as validly framed wire batches.
func FuzzParseRequest(f *testing.F) {
	body := storage.AppendFrame(nil, storage.AppendWireBatch(nil, storage.TagE, mkRecs("a", 2)))
	body = storage.AppendFrame(body, storage.AppendWireBatch(nil, storage.TagI, []slim.Record{
		slim.NewRecord("b", -12.5, 170.25, -4_000_000_000),
		{Entity: "b", LatLng: geo.LatLng{Lat: 1, Lng: 2}, Unix: 3, RadiusKm: 0.5},
	}))
	for cut := 0; cut <= len(body); cut++ {
		f.Add(body[:cut])
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		requireParsesBack(t, in)
		requireParsesBack(t, storage.AppendFrame(nil, in))
	})
}

// requireParsesBack fails the test unless ParseRequest, given body, does
// not panic; allocates within parseBytesPerInputByte per body byte beyond
// parseFixedBytes, on the least of three runs; and, when it accepts the
// body, parses the batches re-encoded with
// storage.AppendFrame(storage.AppendWireBatch(…)) back to the same
// batches, every record bit for bit.
func requireParsesBack(t *testing.T, body []byte) {
	t.Helper()
	var batches []storage.WireBatch
	var records int
	var err error
	n := testenv.LeastAllocated(func() { batches, records, err = ParseRequest(body) })
	if budget := parseFixedBytes + parseBytesPerInputByte*uint64(len(body)); !testenv.RaceEnabled && n > budget {
		t.Fatalf("parsing %d bytes allocated %d B, budget %d B", len(body), n, budget)
	}
	if err != nil {
		return
	}
	var again []byte
	for _, b := range batches {
		again = storage.AppendFrame(again, storage.AppendWireBatch(nil, b.Tag, b.Recs))
	}
	back, backRecords, err := ParseRequest(again)
	if err != nil {
		t.Fatalf("an accepted body does not parse once re-encoded: %v", err)
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if backRecords != records || !slices.EqualFunc(back, batches, func(x, y storage.WireBatch) bool {
		return x.Tag == y.Tag && slices.EqualFunc(x.Recs, y.Recs, func(r, s slim.Record) bool {
			return r.Entity == s.Entity && r.Unix == s.Unix && same(r.LatLng.Lat, s.LatLng.Lat) &&
				same(r.LatLng.Lng, s.LatLng.Lng) && same(r.RadiusKm, s.RadiusKm)
		})
	}) {
		t.Fatalf("re-encoded body parses to\n%+v\nnot\n%+v", back, batches)
	}
}
