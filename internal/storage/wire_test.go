package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"os"
	"reflect"
	"testing"
	"time"

	"slim"
)

// TestWireBatchRoundTrip: the binary-ingest wire form must decode back
// to the records the codec reproduces (the QuantizeRecord grid), through
// the same CRC framing the WAL uses.
func TestWireBatchRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	recs := randRecords(rng, 200)

	var body []byte
	body = AppendFrame(body, AppendWireBatch(nil, TagE, recs[:120]))
	body = AppendFrame(body, AppendWireBatch(nil, TagI, recs[120:]))

	var got []slim.Record
	tags := []byte{}
	for len(body) > 0 {
		payload, rest, err := NextFrame(body)
		if err != nil {
			t.Fatal(err)
		}
		body = rest
		b, err := DecodeWireBatch(payload)
		if err != nil {
			t.Fatal(err)
		}
		tags = append(tags, b.Tag)
		got = append(got, b.Recs...)
	}
	if string(tags) != "EI" {
		t.Fatalf("tags = %q, want EI", tags)
	}
	if !reflect.DeepEqual(got, quantizeAll(recs)) {
		t.Fatal("wire round trip did not reproduce the quantized records")
	}
}

func TestDecodeWireBatchErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	good := AppendWireBatch(nil, TagE, randRecords(rng, 3))

	cases := []struct {
		name    string
		payload []byte
	}{
		{"empty payload", nil},
		{"unknown tag", append([]byte{'X'}, good[1:]...)},
		{"trailing bytes", append(append([]byte{}, good...), 0xFF)},
		{"truncated records", good[:len(good)-2]},
	}
	for _, c := range cases {
		if _, err := DecodeWireBatch(c.payload); err == nil {
			t.Errorf("%s: decoded without error", c.name)
		}
	}

	// A frame whose bytes were torn in transit must surface ErrTornFrame.
	framed := AppendFrame(nil, good)
	if _, _, err := NextFrame(framed[:len(framed)-1]); !errors.Is(err, ErrTornFrame) {
		t.Fatalf("torn frame error = %v, want ErrTornFrame", err)
	}
	framed[len(framed)-1] ^= 0xFF
	if _, _, err := NextFrame(framed); !errors.Is(err, ErrTornFrame) {
		t.Fatalf("corrupt frame error = %v, want ErrTornFrame", err)
	}
}

// TestEncodeWireBatchMatchesWire: a wire batch built from records (the
// JSON route, LogE/LogI) must be the batch a binary client sending the
// same records produces — same bytes, same records bit for bit — with the
// caller's slice left on the codec grid. Both routes then reach
// LogEncoded with identical arguments, so their logs cannot differ.
func TestEncodeWireBatchMatchesWire(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, n := range []int{1, 50, 200} {
		recs := randRecords(rng, n)
		want, err := DecodeWireBatch(AppendWireBatch(nil, TagI, recs))
		if err != nil {
			t.Fatal(err)
		}
		got := EncodeWireBatch(TagI, recs)
		if got.Tag != want.Tag || !bytes.Equal(got.RecordBytes, want.RecordBytes) {
			t.Fatalf("n=%d: encoded batch differs from the wire form", n)
		}
		for i := range want.Recs {
			g, w := got.Recs[i], want.Recs[i]
			if g.Entity != w.Entity || g.Unix != w.Unix ||
				math.Float64bits(g.LatLng.Lat) != math.Float64bits(w.LatLng.Lat) ||
				math.Float64bits(g.LatLng.Lng) != math.Float64bits(w.LatLng.Lng) ||
				math.Float64bits(g.RadiusKm) != math.Float64bits(w.RadiusKm) {
				t.Fatalf("n=%d record %d: %+v, want %+v", n, i, g, w)
			}
			if recs[i] != g {
				t.Fatalf("n=%d record %d: caller's slice not quantized in place", n, i)
			}
		}
	}
}

// TestLogEncodedWaitIsDurable: the wait returned by LogEncoded must not
// resolve before the group-commit window fsyncs the frame.
func TestLogEncodedWaitIsDurable(t *testing.T) {
	dir := t.TempDir()
	_, st, _, err := Recover(dir, emptyDS("E"), emptyDS("I"), testEngineCfg(),
		Options{FsyncInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(14))
	wire, err := DecodeWireBatch(AppendWireBatch(nil, TagE, randRecords(rng, 10)))
	if err != nil {
		t.Fatal(err)
	}
	wait, err := st.LogEncoded(wire.Tag, wire.RecordBytes, wire.Recs)
	if err != nil {
		t.Fatal(err)
	}
	if err := wait(); err != nil {
		t.Fatal(err)
	}
	st.crashClose() // durable means surviving a crash right here

	var total int
	if _, _, err := ReplayWAL(dir, 0, func(b Batch) error {
		total += len(b.Recs)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if total != 10 {
		t.Fatalf("replayed %d records after crash, want 10", total)
	}
}

// TestWALPayloadIsSeqThenWireBatch pins the one WAL payload layout. For
// random batches of both tags, the frames Store.LogEncoded writes to a
// segment hold uvarint(seq) followed by AppendWireBatch(tag, recs) byte for
// byte, and replayWAL hands back the tag and records DecodeWireBatch reads
// from that wire batch.
func TestWALPayloadIsSeqThenWireBatch(t *testing.T) {
	dir := t.TempDir()
	_, st, _, err := Recover(dir, emptyDS("E"), emptyDS("I"), testEngineCfg(),
		Options{FsyncInterval: -1, SnapshotEveryRuns: -1})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(15))
	var wantPayloads [][]byte
	var wantBatches []WireBatch
	for k := 0; k < 16; k++ {
		tag := byte(TagE)
		if rng.Intn(2) == 0 {
			tag = TagI
		}
		wire := AppendWireBatch(nil, tag, randRecords(rng, rng.Intn(40)))
		b, err := DecodeWireBatch(wire)
		if err != nil {
			t.Fatal(err)
		}
		seq := st.Stats().NextSeq
		wait, err := st.LogEncoded(b.Tag, b.RecordBytes, b.Recs)
		if err != nil {
			t.Fatal(err)
		}
		if err := wait(); err != nil {
			t.Fatal(err)
		}
		wantPayloads = append(wantPayloads, append(binary.AppendUvarint(nil, seq), wire...))
		wantBatches = append(wantBatches, b)
	}
	st.crashClose()

	segs, err := listNumbered(OSFS, dir, segPrefix, segSuffix)
	if err != nil {
		t.Fatal(err)
	}
	var payloads [][]byte
	for _, seg := range segs {
		buf, err := os.ReadFile(seg.path)
		if err != nil {
			t.Fatal(err)
		}
		for len(buf) > 0 {
			payload, rest, err := NextFrame(buf)
			if err != nil {
				t.Fatalf("%s: %v", seg.path, err)
			}
			payloads, buf = append(payloads, payload), rest
		}
	}
	if len(payloads) != len(wantPayloads) {
		t.Fatalf("segments hold %d frames, want %d", len(payloads), len(wantPayloads))
	}
	for k := range payloads {
		if !bytes.Equal(payloads[k], wantPayloads[k]) {
			t.Fatalf("frame %d is not uvarint(seq) followed by the wire batch", k)
		}
	}

	k := 0
	if _, _, err := replayWAL(OSFS, dir, 0, func(b Batch) error {
		if w := wantBatches[k]; b.Tag != w.Tag || !reflect.DeepEqual(b.Recs, w.Recs) {
			t.Fatalf("replayed batch %d: tag %q with %d records, DecodeWireBatch gives %q with %d",
				k, b.Tag, len(b.Recs), w.Tag, len(w.Recs))
		}
		k++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if k != len(wantBatches) {
		t.Fatalf("replayed %d batches, want %d", k, len(wantBatches))
	}
}
