package storage

import (
	"math"
	"math/rand"
	"testing"

	"slim"
	"slim/internal/geo"
)

func randRecords(rng *rand.Rand, n int) []slim.Record {
	recs := make([]slim.Record, n)
	t := int64(1_500_000_000)
	for i := range recs {
		t += rng.Int63n(3600) - 600 // deltas of both signs
		r := slim.Record{
			Entity: slim.EntityID("entity-" + string(rune('a'+rng.Intn(26)))),
			LatLng: geo.LatLng{
				Lat: rng.Float64()*180 - 90,
				Lng: rng.Float64()*360 - 180,
			},
			Unix: t,
		}
		if rng.Intn(4) == 0 {
			r.RadiusKm = rng.Float64() * 5
		}
		recs[i] = r
	}
	return recs
}

func quantizeAll(recs []slim.Record) []slim.Record {
	out := make([]slim.Record, len(recs))
	for i, r := range recs {
		out[i] = QuantizeRecord(r)
	}
	return out
}

// batchPayload is the WAL payload of b, built by walPayload as
// Store.LogEncoded builds it.
func batchPayload(b Batch) []byte {
	return walPayload(b.Seq, b.Tag, appendRecords(nil, b.Recs))
}

func TestBatchRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{0, 1, 7, 500} {
		in := Batch{Seq: uint64(n) + 3, Tag: TagE, Recs: randRecords(rng, n)}
		payload := batchPayload(in)
		out, err := decodeBatch(payload)
		if err != nil {
			t.Fatalf("n=%d: decode: %v", n, err)
		}
		if out.Seq != in.Seq || out.Tag != in.Tag || len(out.Recs) != n {
			t.Fatalf("n=%d: header mismatch: %+v", n, out)
		}
		want := quantizeAll(in.Recs)
		for i := range want {
			if out.Recs[i] != want[i] {
				t.Fatalf("n=%d record %d: got %+v want %+v", n, i, out.Recs[i], want[i])
			}
		}
	}
}

// TestQuantizeIdempotent: a record that already went through the codec
// must survive a second round trip bit-identically — the property that
// makes recovered engine state equal to the pre-crash engine state.
func TestQuantizeIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	recs := quantizeAll(randRecords(rng, 200))
	payload := batchPayload(Batch{Seq: 1, Tag: TagI, Recs: recs})
	out, err := decodeBatch(payload)
	if err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		if out.Recs[i] != recs[i] {
			t.Fatalf("record %d drifted: got %+v want %+v", i, out.Recs[i], recs[i])
		}
	}
}

func TestQuantizeResolution(t *testing.T) {
	r := slim.Record{Entity: "x", LatLng: geo.LatLng{Lat: 37.123456789, Lng: -122.987654321}, Unix: 1}
	q := QuantizeRecord(r)
	if math.Abs(q.LatLng.Lat-r.LatLng.Lat) > 0.5/latLngScale ||
		math.Abs(q.LatLng.Lng-r.LatLng.Lng) > 0.5/latLngScale {
		t.Fatalf("quantization error too large: %+v vs %+v", q.LatLng, r.LatLng)
	}
}

func TestDecodeBatchRejectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	payload := batchPayload(Batch{Seq: 5, Tag: TagE, Recs: randRecords(rng, 20)})
	cases := map[string][]byte{
		"empty":     {},
		"bad tag":   append(append([]byte{5}, 'X'), payload[2:]...),
		"truncated": payload[:len(payload)/2],
		"trailing":  append(append([]byte{}, payload...), 0xFF),
		"count overrun": func() []byte {
			p := append([]byte{}, payload...)
			p[2] = 0xFF // explode the record count varint region
			return p
		}(),
		"latitude off the globe":  batchPayload(Batch{Seq: 5, Tag: TagE, Recs: []slim.Record{{Entity: "a", LatLng: geo.LatLng{Lat: 90.0000001}}}}),
		"longitude off the globe": batchPayload(Batch{Seq: 5, Tag: TagE, Recs: []slim.Record{{Entity: "a", LatLng: geo.LatLng{Lng: -1e12}}}}),
	}
	for name, p := range cases {
		if _, err := decodeBatch(p); err == nil {
			t.Errorf("%s: decode accepted corrupt payload", name)
		}
	}
}

func TestFrameRoundTripAndTearing(t *testing.T) {
	payload := []byte("hello frames")
	buf := AppendFrame(nil, payload)
	buf = AppendFrame(buf, []byte{})

	got, rest, err := NextFrame(buf)
	if err != nil || string(got) != string(payload) {
		t.Fatalf("first frame: %q, %v", got, err)
	}
	got, rest, err = NextFrame(rest)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty frame: %q, %v", got, err)
	}
	if len(rest) != 0 {
		t.Fatalf("leftover bytes: %d", len(rest))
	}

	full := AppendFrame(nil, payload)
	for cut := 0; cut < len(full); cut++ {
		if _, _, err := NextFrame(full[:cut]); err == nil {
			t.Fatalf("cut=%d: torn frame accepted", cut)
		}
	}
	// Flip one payload byte: CRC must catch it.
	bad := append([]byte{}, full...)
	bad[frameHeaderLen] ^= 0x01
	if _, _, err := NextFrame(bad); err == nil {
		t.Fatal("bit flip accepted")
	}
}

func TestZigzag(t *testing.T) {
	for _, v := range []int64{0, 1, -1, 63, -64, math.MaxInt64, math.MinInt64} {
		if got := unzigzag(zigzag(v)); got != v {
			t.Errorf("zigzag(%d) round trip = %d", v, got)
		}
	}
}
