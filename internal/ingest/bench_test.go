package ingest

import (
	"fmt"
	"testing"
	"time"

	"slim"
	"slim/internal/engine"
	"slim/internal/storage"
	"slim/internal/testenv"
)

// benchPlane boots a durable plane (real WAL in a temp dir, group-commit
// fsync) with budgets wide enough that the benchmark measures the
// pipeline, not the shed policy.
func benchPlane(tb testing.TB) *Plane {
	tb.Helper()
	cfg := slim.Defaults()
	cfg.Threshold = slim.ThresholdNone
	eng, store, _, err := storage.Recover(tb.TempDir(), slim.Dataset{Name: "E"}, slim.Dataset{Name: "I"},
		engine.Config{Link: cfg, Debounce: time.Hour}, storage.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(eng.Close)
	tb.Cleanup(func() { store.Close() })
	p := NewPlane(eng, Config{QueueDepth: 1 << 30, ShedAfter: -1})
	p.AttachLogger(store)
	return p
}

// benchBody pre-encodes one wire request: batches CRC-framed batches of
// perBatch records each, spread over a fixed entity population.
func benchBody(batches, perBatch, entities int) (body []byte, records int) {
	unix := int64(1_600_000_000)
	for bi := 0; bi < batches; bi++ {
		recs := make([]slim.Record, 0, perBatch)
		for k := 0; k < perBatch; k++ {
			id := (bi*perBatch + k) % entities
			recs = append(recs, slim.NewRecord(
				slim.EntityID(fmt.Sprintf("cab-%05d", id)),
				37.7+float64(id%100)*1e-3, -122.4+float64(id%97)*1e-3, unix))
			unix++
		}
		body = storage.AppendFrame(body, storage.AppendWireBatch(nil, storage.TagE, recs))
		records += perBatch
	}
	return body, records
}

// BenchmarkIngestBinary measures the full binary ingest pipeline —
// parse + CRC check, admission, WAL append with group-commit fsync, and
// buffering onto the engine's pending queue — in records/s. This is the number the 1M
// records/s target and the CI floor refer to.
func BenchmarkIngestBinary(b *testing.B) {
	p := benchPlane(b)
	body, records := benchBody(16, 4096, 4096)
	b.SetBytes(int64(len(body)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batches, n, err := ParseRequest(body)
		if err != nil {
			b.Fatal(err)
		}
		release, err := p.Admit(n)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := p.Submit(batches); err != nil {
			b.Fatal(err)
		}
		release()
	}
	b.StopTimer()
	b.ReportMetric(float64(records*b.N)/b.Elapsed().Seconds(), "records/s")
}

// TestIngestThroughputFloor enforces the ingest plane's performance
// contract in CI: at least 250k records/s through parse + admission +
// durable WAL append + buffering (real hardware does far better; this
// catches only catastrophic regressions, e.g. a re-encode sneaking back
// into the pipeline).
func TestIngestThroughputFloor(t *testing.T) {
	if testing.Short() {
		t.Skip("throughput measurement; skipped in -short")
	}
	if testenv.RaceEnabled {
		t.Skip("race instrumentation costs ~10x on this path; CI gates the floor in a dedicated non-race step")
	}
	p := benchPlane(t)
	body, records := benchBody(16, 4096, 4096)
	const rounds = 4
	start := time.Now()
	for i := 0; i < rounds; i++ {
		batches, n, err := ParseRequest(body)
		if err != nil {
			t.Fatal(err)
		}
		release, err := p.Admit(n)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Submit(batches); err != nil {
			t.Fatal(err)
		}
		release()
	}
	elapsed := time.Since(start)
	total := records * rounds
	rate := float64(total) / elapsed.Seconds()
	t.Logf("ingested %d records in %v (%.0f records/s)", total, elapsed, rate)
	if rate < 250_000 {
		t.Errorf("ingest throughput %.0f records/s below the 250k floor", rate)
	}
	if st := p.Stats(); st.AcceptedRecords != uint64(total) {
		t.Fatalf("accepted %d records, want %d", st.AcceptedRecords, total)
	}
}
