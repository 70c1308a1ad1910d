package storage

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"slim"
	"slim/internal/geo"
)

// mkBatch builds a deterministic batch of n records for entity base.
func mkBatch(seq uint64, tag byte, base string, n int) Batch {
	recs := make([]slim.Record, n)
	for i := range recs {
		recs[i] = QuantizeRecord(slim.Record{
			Entity: slim.EntityID(base),
			LatLng: geo.LatLng{Lat: 37.5 + float64(i%4)*0.06, Lng: -122.3},
			Unix:   1_000_000 + int64(seq)*10_000 + int64(i)*900,
		})
	}
	return Batch{Seq: seq, Tag: tag, Recs: recs}
}

func appendBatches(t *testing.T, w *wal, batches []Batch) {
	t.Helper()
	for _, b := range batches {
		wait, err := w.Append(batchPayload(b))
		if err != nil {
			t.Fatalf("append seq %d: %v", b.Seq, err)
		}
		if err := wait(); err != nil {
			t.Fatalf("wait seq %d: %v", b.Seq, err)
		}
	}
}

func TestWALAppendReplay(t *testing.T) {
	dir := t.TempDir()
	w, err := openWAL(OSFS, dir, 1, 0, -1, walMetrics{})
	if err != nil {
		t.Fatal(err)
	}
	var in []Batch
	for seq := uint64(1); seq <= 20; seq++ {
		tag := byte(TagE)
		if seq%3 == 0 {
			tag = TagI
		}
		in = append(in, mkBatch(seq, tag, fmt.Sprintf("ent-%d", seq), int(seq%5)+1))
	}
	appendBatches(t, w, in)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	var out []Batch
	lastSeq, n, err := replayWAL(OSFS, dir, 0, func(b Batch) error {
		out = append(out, b)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != len(in) || lastSeq != 20 {
		t.Fatalf("replayed %d batches through seq %d, want %d through 20", n, lastSeq, len(in))
	}
	for i, b := range out {
		if b.Seq != in[i].Seq || b.Tag != in[i].Tag || len(b.Recs) != len(in[i].Recs) {
			t.Fatalf("batch %d: got %+v", i, b)
		}
		for j := range b.Recs {
			if b.Recs[j] != in[i].Recs[j] {
				t.Fatalf("batch %d record %d mismatch", i, j)
			}
		}
	}

	// Replay from a snapshot boundary skips covered batches.
	_, n, err = replayWAL(OSFS, dir, 15, nil)
	if err != nil || n != 5 {
		t.Fatalf("tail replay = %d batches, %v; want 5", n, err)
	}
}

func TestWALSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	w, err := openWAL(OSFS, dir, 1, 256, -1, walMetrics{}) // tiny segments force rotation
	if err != nil {
		t.Fatal(err)
	}
	var in []Batch
	for seq := uint64(1); seq <= 40; seq++ {
		in = append(in, mkBatch(seq, TagE, fmt.Sprintf("e%d", seq), 3))
	}
	appendBatches(t, w, in)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listNumbered(OSFS, dir, segPrefix, segSuffix)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("expected rotation to produce several segments, got %d", len(segs))
	}
	_, n, err := replayWAL(OSFS, dir, 0, nil)
	if err != nil || n != 40 {
		t.Fatalf("replay across segments = %d, %v; want 40", n, err)
	}
}

// TestReplayRequiresContiguousSequence: replay skips what the base
// covers, then accepts exactly fromSeq+1, +2, ...; a jump or a repeat
// fails it, naming the segment.
func TestReplayRequiresContiguousSequence(t *testing.T) {
	write := func(t *testing.T, seqs ...uint64) string {
		dir := t.TempDir()
		w, err := openWAL(OSFS, dir, 1, 0, -1, walMetrics{})
		if err != nil {
			t.Fatal(err)
		}
		for _, seq := range seqs {
			appendBatches(t, w, []Batch{mkBatch(seq, TagE, "a", 2)})
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	cases := []struct {
		name    string
		seqs    []uint64
		fromSeq uint64
		want    int // batches replayed; <0 = error
	}{
		{"whole log", []uint64{1, 2, 3}, 0, 3},
		{"leftovers below the base are skipped", []uint64{2, 3, 4, 5}, 3, 2},
		{"log does not reach back to the base", []uint64{3, 4}, 1, -1},
		{"hole", []uint64{1, 2, 4}, 0, -1},
		{"repeat", []uint64{1, 2, 2}, 0, -1},
	}
	for _, c := range cases {
		dir := write(t, c.seqs...)
		_, n, err := replayWAL(OSFS, dir, c.fromSeq, nil)
		switch {
		case c.want >= 0 && (err != nil || n != c.want):
			t.Errorf("%s: replayed %d batches, %v; want %d", c.name, n, err, c.want)
		case c.want < 0 && (!errors.Is(err, errCorrupt) || !strings.Contains(err.Error(), segName(1))):
			t.Errorf("%s: error %v, want a corruption error naming %s", c.name, err, segName(1))
		}
	}
}

// TestWALGroupCommit hammers a group-commit WAL from many goroutines:
// every acknowledged append must be durable and replayable, in sequence
// order, sharing far fewer fsyncs than appends.
func TestWALGroupCommit(t *testing.T) {
	dir := t.TempDir()
	w, err := openWAL(OSFS, dir, 1, 0, time.Millisecond, walMetrics{})
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 8, 25
	var mu sync.Mutex
	seq := uint64(0)
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < perWriter; k++ {
				mu.Lock()
				seq++
				b := mkBatch(seq, TagE, fmt.Sprintf("w%d-%d", g, k), 1)
				wait, err := w.Append(batchPayload(b))
				mu.Unlock()
				if err != nil {
					t.Errorf("append: %v", err)
					return
				}
				if err := wait(); err != nil {
					t.Errorf("wait: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	_, n, err := replayWAL(OSFS, dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != writers*perWriter {
		t.Fatalf("replayed %d, want %d", n, writers*perWriter)
	}
}

func TestWALClosedRejectsAppends(t *testing.T) {
	dir := t.TempDir()
	w, err := openWAL(OSFS, dir, 1, 0, -1, walMetrics{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil { // idempotent
		t.Fatalf("second close: %v", err)
	}
	if _, err := w.Append([]byte("x")); err != ErrClosed {
		t.Fatalf("append after close = %v, want ErrClosed", err)
	}
}

// TestReplayThroughputFloor enforces the subsystem's replay performance
// contract: at least 100k records/s (real hardware does orders of
// magnitude better; this catches only catastrophic regressions).
func TestReplayThroughputFloor(t *testing.T) {
	if testing.Short() {
		t.Skip("throughput measurement; skipped in -short")
	}
	dir := t.TempDir()
	w, err := openWAL(OSFS, dir, 1, 0, -1, walMetrics{})
	if err != nil {
		t.Fatal(err)
	}
	const batches, perBatch = 100, 1000
	rng := rand.New(rand.NewSource(3))
	for seq := uint64(1); seq <= batches; seq++ {
		b := Batch{Seq: seq, Tag: TagE, Recs: quantizeAll(randRecords(rng, perBatch))}
		wait, err := w.Append(batchPayload(b))
		if err != nil {
			t.Fatal(err)
		}
		_ = wait
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	total := 0
	if _, _, err := replayWAL(OSFS, dir, 0, func(b Batch) error {
		total += len(b.Recs)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if total != batches*perBatch {
		t.Fatalf("replayed %d records, want %d", total, batches*perBatch)
	}
	rate := float64(total) / elapsed.Seconds()
	t.Logf("replayed %d records in %v (%.0f records/s)", total, elapsed, rate)
	if rate < 100_000 {
		t.Errorf("replay throughput %.0f records/s below the 100k floor", rate)
	}
}

// benchRecords returns one reusable batch payload of n records.
func benchPayload(seq uint64, n int) []byte {
	rng := rand.New(rand.NewSource(int64(seq)))
	return batchPayload(Batch{Seq: seq, Tag: TagE, Recs: randRecords(rng, n)})
}

// BenchmarkWALAppend measures the append path (codec framing + write)
// without fsync, 100-record batches.
func BenchmarkWALAppend(b *testing.B) {
	dir := b.TempDir()
	w, err := openWAL(OSFS, dir, 1, 0, -1, walMetrics{})
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	const perBatch = 100
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		payload := benchPayload(uint64(i)+1, perBatch)
		if _, err := w.Append(payload); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N*perBatch)/b.Elapsed().Seconds(), "records/s")
}

// BenchmarkWALAppendGroupCommit measures acknowledged durable appends
// under group commit from a single writer.
func BenchmarkWALAppendGroupCommit(b *testing.B) {
	dir := b.TempDir()
	w, err := openWAL(OSFS, dir, 1, 0, 100*time.Microsecond, walMetrics{})
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	const perBatch = 100
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		payload := benchPayload(uint64(i)+1, perBatch)
		wait, err := w.Append(payload)
		if err != nil {
			b.Fatal(err)
		}
		if err := wait(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N*perBatch)/b.Elapsed().Seconds(), "records/s")
}

// BenchmarkWALReplay measures recovery replay throughput.
func BenchmarkWALReplay(b *testing.B) {
	dir := b.TempDir()
	w, err := openWAL(OSFS, dir, 1, 0, -1, walMetrics{})
	if err != nil {
		b.Fatal(err)
	}
	const batches, perBatch = 200, 100
	for seq := uint64(1); seq <= batches; seq++ {
		if _, err := w.Append(benchPayload(seq, perBatch)); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	total := 0
	for i := 0; i < b.N; i++ {
		total = 0
		if _, _, err := replayWAL(OSFS, dir, 0, func(bt Batch) error {
			total += len(bt.Recs)
			return nil
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if total != batches*perBatch {
		b.Fatalf("replayed %d", total)
	}
	b.ReportMetric(float64(b.N*total)/b.Elapsed().Seconds(), "records/s")
}
