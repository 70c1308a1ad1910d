package storage

import (
	"crypto/md5"
	"encoding/hex"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"slim"
	"slim/internal/datagen"
	"slim/internal/testenv"
)

func testSnapshotData(rng *rand.Rand) *snapshotData {
	return &snapshotData{
		lastSeq: 42,
		seedE:   slim.Dataset{Name: "E", Records: quantizeAll(randRecords(rng, 30))},
		seedI:   slim.Dataset{Name: "I", Records: quantizeAll(randRecords(rng, 25))},
		streamE: quantizeAll(randRecords(rng, 12)),
		streamI: quantizeAll(randRecords(rng, 0)),
		result: &resultData{
			links:        []slim.Link{{U: "e-a", V: "i-a", Score: 3.25}, {U: "e-b", V: "i-b", Score: 1.5}},
			threshold:    0.75,
			method:       "gmm",
			spatialLevel: 12,
			version:      7,
		},
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	dir := t.TempDir()
	in := testSnapshotData(rng)
	path, err := writeSnapshot(OSFS, dir, in)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != snapName(42) {
		t.Fatalf("snapshot path %s", path)
	}
	out, err := loadNewestSnapshot(OSFS, dir)
	if err != nil {
		t.Fatal(err)
	}
	if out == nil {
		t.Fatal("no snapshot loaded")
	}
	if out.lastSeq != in.lastSeq ||
		!reflect.DeepEqual(out.seedE, in.seedE) ||
		!reflect.DeepEqual(out.seedI, in.seedI) ||
		!reflect.DeepEqual(out.streamE, in.streamE) ||
		len(out.streamI) != 0 ||
		!reflect.DeepEqual(out.result, in.result) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", out, in)
	}
}

func TestSnapshotNoResult(t *testing.T) {
	dir := t.TempDir()
	in := &snapshotData{lastSeq: 1, seedE: slim.Dataset{Name: "E"}, seedI: slim.Dataset{Name: "I"}}
	if _, err := writeSnapshot(OSFS, dir, in); err != nil {
		t.Fatal(err)
	}
	out, err := loadNewestSnapshot(OSFS, dir)
	if err != nil || out == nil || out.result != nil {
		t.Fatalf("out=%+v err=%v", out, err)
	}
}

// TestSnapshotLoaderFailsStopOnCorruption: the loader serves the newest
// base, and a corrupt newest is a hard error naming the file (never a
// silent fallback that would time-travel state); removing the corrupt
// file is an explicit operator action, after which an older base — if an
// interrupted compaction of an older release left one — is what loads.
func TestSnapshotLoaderFailsStopOnCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	dir := t.TempDir()
	old := testSnapshotData(rng)
	old.lastSeq = 10
	if _, err := writeSnapshot(OSFS, dir, old); err != nil {
		t.Fatal(err)
	}
	newer := testSnapshotData(rng)
	newer.lastSeq = 20
	path, err := writeSnapshot(OSFS, dir, newer)
	if err != nil {
		t.Fatal(err)
	}

	// Sanity: with both valid, the newest wins.
	got, err := loadNewestSnapshot(OSFS, dir)
	if err != nil || got == nil || got.lastSeq != 20 {
		t.Fatalf("got %+v, %v", got, err)
	}

	// Corrupt the newest (bitrot / non-atomic filesystem): loading must
	// fail stop, naming the damaged file.
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf[:len(buf)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadNewestSnapshot(OSFS, dir); err == nil {
		t.Fatal("corrupt newest snapshot loaded (or silently skipped)")
	}

	// Removing the corrupt file is the explicit path back to the older
	// snapshot.
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	got, err = loadNewestSnapshot(OSFS, dir)
	if err != nil || got == nil || got.lastSeq != 10 {
		t.Fatalf("after removal: got %+v, %v", got, err)
	}
}

func TestSnapshotIgnoresTempFiles(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, snapPrefix+"12345.tmp"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := loadNewestSnapshot(OSFS, dir)
	if err != nil || got != nil {
		t.Fatalf("temp file treated as snapshot: %+v, %v", got, err)
	}
}

// TestResultRoundTrip: a result checkpoint decodes to what was written,
// bit for bit, with and without a published result, and anything but the
// whole file is an error.
func TestResultRoundTrip(t *testing.T) {
	in := testSnapshotData(rand.New(rand.NewSource(4))).result
	in.links[0].Score = math.Nextafter(in.links[0].Score, 4)
	buf := encodeResult(42, in)
	seq, out, err := decodeResult(buf)
	if err != nil || seq != 42 || !reflect.DeepEqual(out, in) {
		t.Fatalf("round trip = seq %d, %+v, %v; want seq 42, %+v", seq, out, err, in)
	}
	if math.Float64bits(out.links[0].Score) != math.Float64bits(in.links[0].Score) {
		t.Fatal("score not bit-identical")
	}
	if seq, out, err := decodeResult(encodeResult(7, nil)); err != nil || seq != 7 || out != nil {
		t.Fatalf("no-result round trip = seq %d, %+v, %v", seq, out, err)
	}
	for cut := 0; cut < len(buf); cut++ {
		if _, _, err := decodeResult(buf[:cut]); err == nil {
			t.Fatalf("decoded a result cut at byte %d of %d", cut, len(buf))
		}
	}
	if _, _, err := decodeResult(append(buf, 0)); err == nil {
		t.Fatal("decoded a result with trailing bytes")
	}
	if _, _, err := decodeResult(encodeSnapshot(&snapshotData{})); err == nil {
		t.Fatal("decoded a base file as a result")
	}
}

func TestRemoveResultsBefore(t *testing.T) {
	dir := t.TempDir()
	for _, seq := range []uint64{5, 10, 15} {
		if _, err := writeResult(OSFS, dir, seq, nil); err != nil {
			t.Fatal(err)
		}
	}
	// A base is never a checkpoint's to remove, whatever its sequence.
	if _, err := writeSnapshot(OSFS, dir, &snapshotData{lastSeq: 3}); err != nil {
		t.Fatal(err)
	}
	if err := removeResultsBefore(OSFS, dir, 15); err != nil {
		t.Fatal(err)
	}
	results, err := listNumbered(OSFS, dir, resultPrefix, snapSuffix)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].n != 15 {
		t.Fatalf("kept %+v, want only seq 15", results)
	}
	if snaps, err := listNumbered(OSFS, dir, snapPrefix, snapSuffix); err != nil || len(snaps) != 1 {
		t.Fatalf("bases = %+v (%v), want the one written", snaps, err)
	}
}

// pinnedSeeds is the seed pair the byte pins encode: the E and I sides
// SampleWorkload draws from 2,000 SM users (seed 1), on the E7 grid.
func pinnedSeeds() (e, i slim.Dataset) {
	ground := datagen.SM(datagen.SMConfig{NumUsers: 2000, Days: 26, Seed: 1})
	s := datagen.Sample(&ground, datagen.SampleConfig{Seed: 2})
	QuantizeDataset(s.E)
	QuantizeDataset(s.I)
	return s.E, s.I
}

// TestBaseBytesPinned pins every byte both file kinds are written with,
// so data directories written by any release recover alike: the base a
// fresh directory gets, a base an older release compacted (stream sections
// and a result), and a result checkpoint with and without a result. The
// digests were taken before the encoders framed in place.
func TestBaseBytesPinned(t *testing.T) {
	e, i := pinnedSeeds()
	res := &resultData{
		links: []slim.Link{
			{U: "e-a", V: "i-a", Score: 1.0 / 3}, {U: `x,"q`, V: "i-é", Score: math.Nextafter(2, 3)},
		},
		threshold:    math.Pi,
		method:       "gmm",
		spatialLevel: 12,
		version:      7,
	}
	digest := func(buf []byte) string {
		sum := md5.Sum(buf)
		return hex.EncodeToString(sum[:])
	}
	got := map[string]string{
		"base":      digest(encodeSnapshot(&snapshotData{seedE: e, seedI: i})),
		"compacted": digest(encodeSnapshot(&snapshotData{lastSeq: 9, seedE: e, seedI: i, streamE: i.Records[:500], streamI: e.Records[:300], result: res})),
		"result":    digest(encodeResult(6, res)),
		"no-result": digest(encodeResult(7, nil)),
	}
	want := map[string]string{
		"base":      "9707ec2964114679c2219fb2eae4319a",
		"compacted": "dd5f4fd3eea7d55776de905616c9fd07",
		"result":    "0a356709a771e83090d66c32c980ec1c",
		"no-result": "ee2c5fa33dbd6793522e3dffa44253b2",
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: md5 %s, want %s", name, got[name], w)
		}
	}
}

// TestEncodersAllocateOnce: both file kinds are framed in place into one
// buffer sized from their records and links, so encoding the pinned base
// allocates that buffer and nothing else. Building each section apart and
// growing it by append allocated 6.6 times the file's bytes, in 83 pieces,
// for the 2.7 MB base of serve_revisit's seed.
func TestEncodersAllocateOnce(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	e, i := pinnedSeeds()
	base := &snapshotData{seedE: e, seedI: i}
	res := &resultData{links: []slim.Link{{U: "e-a", V: "i-a", Score: 1.0 / 3}}, method: "gmm"}
	for name, encode := range map[string]func() []byte{
		"base":   func() []byte { return encodeSnapshot(base) },
		"result": func() []byte { return encodeResult(6, res) },
	} {
		if n := testing.AllocsPerRun(3, func() { _ = encode() }); n != 1 {
			t.Errorf("%s: encoding allocates %v times, want once", name, n)
		}
	}
}
