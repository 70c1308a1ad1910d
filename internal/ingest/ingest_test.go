package ingest

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"slim"
	"slim/internal/engine"
	"slim/internal/geo"
	"slim/internal/storage"
)

func testEngine(t *testing.T) *engine.Engine {
	t.Helper()
	cfg := slim.Defaults()
	cfg.Threshold = slim.ThresholdNone
	eng, err := engine.New(slim.Dataset{Name: "E"}, slim.Dataset{Name: "I"},
		engine.Config{Link: cfg, Debounce: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	return eng
}

func mkRecs(e string, n int) []slim.Record {
	out := make([]slim.Record, 0, n)
	for k := 0; k < n; k++ {
		out = append(out, slim.NewRecord(slim.EntityID(e),
			37.5+float64(k%4)*0.06, -122.3, 1_000_000+int64(k)*900))
	}
	return out
}

func wireBody(t *testing.T, batches ...[]byte) []byte {
	t.Helper()
	var body []byte
	for _, b := range batches {
		body = storage.AppendFrame(body, b)
	}
	return body
}

func TestParseRequest(t *testing.T) {
	body := wireBody(t,
		storage.AppendWireBatch(nil, storage.TagE, mkRecs("a", 10)),
		storage.AppendWireBatch(nil, storage.TagI, mkRecs("b", 5)),
	)
	batches, records, err := ParseRequest(body)
	if err != nil {
		t.Fatal(err)
	}
	if len(batches) != 2 || records != 15 {
		t.Fatalf("parsed %d batches / %d records, want 2 / 15", len(batches), records)
	}
	if batches[0].Tag != storage.TagE || batches[1].Tag != storage.TagI {
		t.Fatalf("tags %c %c, want E I", batches[0].Tag, batches[1].Tag)
	}

	bad := slim.Record{Entity: "x", LatLng: geo.LatLng{Lat: 91}} // latitude out of range
	cases := []struct {
		name string
		body []byte
	}{
		{"empty body", nil},
		{"torn frame", body[:len(body)-3]},
		{"bad tag", wireBody(t, append([]byte{'Q'}, storage.AppendWireBatch(nil, storage.TagE, mkRecs("a", 1))[1:]...))},
		{"empty batch", wireBody(t, storage.AppendWireBatch(nil, storage.TagE, nil))},
		{"invalid record", wireBody(t, storage.AppendWireBatch(nil, storage.TagE, []slim.Record{bad}))},
		{"garbage", []byte("not a frame at all")},
	}
	for _, c := range cases {
		if _, _, err := ParseRequest(c.body); err == nil {
			t.Errorf("%s: parsed without error", c.name)
		}
	}
}

func TestAdmitQueueDepth(t *testing.T) {
	p := NewPlane(testEngine(t), Config{QueueDepth: 100})

	rel1, err := p.Admit(60)
	if err != nil {
		t.Fatal(err)
	}
	var se *ShedError
	if _, err := p.Admit(41); !errors.As(err, &se) || se.Cause != "queue-depth" {
		t.Fatalf("over-budget admit = %v, want queue-depth ShedError", err)
	}
	if se.RetryAfter <= 0 {
		t.Fatalf("RetryAfter = %v, want > 0", se.RetryAfter)
	}
	if rel2, err := p.Admit(40); err != nil { // exactly at budget
		t.Fatalf("at-budget admit shed: %v", err)
	} else {
		rel2()
	}
	rel1()
	rel3, err := p.Admit(100)
	if err != nil {
		t.Fatalf("admit after release shed: %v", err)
	}
	rel3()

	st := p.Stats()
	if st.ShedRequests != 1 || st.ShedRecords != 41 || st.ShedQueueDepth != 1 || st.ShedLatency != 0 {
		t.Fatalf("shed counters %+v", st)
	}
	if st.InflightRecords != 0 {
		t.Fatalf("inflight = %d after all releases, want 0", st.InflightRecords)
	}
}

// TestAdmitCountsEnginePending: records sitting in the engine's pending
// buffers occupy the same budget as in-flight admissions, each record
// once — N pending I records read as N, so I-heavy traffic sheds at the
// documented depth, not a fraction of it.
func TestAdmitCountsEnginePending(t *testing.T) {
	eng := testEngine(t)
	p := NewPlane(eng, Config{QueueDepth: 100})

	eng.BufferI(mkRecs("i", 90)...)
	if st := p.Stats(); st.PendingRecords != 90 {
		t.Fatalf("90 pending I records read as %d", st.PendingRecords)
	}
	if _, err := p.Admit(11); err == nil {
		t.Fatal("admit over engine-pending budget succeeded")
	}
	rel, err := p.Admit(10)
	if err != nil {
		t.Fatal(err)
	}
	rel()
	eng.Run() // drains the queues
	rel, err = p.Admit(100)
	if err != nil {
		t.Fatalf("admit after relink drained the queues: %v", err)
	}
	rel()
}

func TestAdmitLatency(t *testing.T) {
	eng := testEngine(t)
	p := NewPlane(eng, Config{QueueDepth: 1 << 20, ShedAfter: time.Millisecond})

	// An in-flight admission that outlives the budget (a stuck fsync)
	// sheds new work.
	rel, err := p.Admit(1)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond)
	var se *ShedError
	if _, err := p.Admit(1); !errors.As(err, &se) || se.Cause != "latency" {
		t.Fatalf("admit with stale inflight = %v, want latency ShedError", err)
	}
	rel()
	if rel2, err := p.Admit(1); err != nil {
		t.Fatalf("admit after release shed: %v", err)
	} else {
		rel2()
	}

	// Engine pending queues older than the budget (a lagging relink) shed
	// the same way.
	eng.BufferE(mkRecs("e", 3)...)
	time.Sleep(5 * time.Millisecond)
	if _, err := p.Admit(1); !errors.As(err, &se) || se.Cause != "latency" {
		t.Fatalf("admit with stale engine pending = %v, want latency ShedError", err)
	}
	if st := p.Stats(); st.OldestWait < 5*time.Millisecond {
		t.Fatalf("OldestWait = %v, want >= 5ms", st.OldestWait)
	}
	eng.Run()
	if rel3, err := p.Admit(1); err != nil {
		t.Fatalf("admit after relink shed: %v", err)
	} else {
		rel3()
	}

	// A negative ShedAfter disables the latency budget entirely.
	pNo := NewPlane(eng, Config{ShedAfter: -1})
	relHold, err := pNo.Admit(1)
	if err != nil {
		t.Fatal(err)
	}
	defer relHold()
	time.Sleep(2 * time.Millisecond)
	if rel4, err := pNo.Admit(1); err != nil {
		t.Fatalf("latency-disabled plane shed: %v", err)
	} else {
		rel4()
	}
}

// TestSubmitBuffersWithoutLogger: a plane with no durable store behaves
// like the JSON path without -data-dir — records go straight to the
// engine's pending queues.
func TestSubmitBuffersWithoutLogger(t *testing.T) {
	eng := testEngine(t)
	p := NewPlane(eng, Config{})

	body := wireBody(t,
		storage.AppendWireBatch(nil, storage.TagE, mkRecs("a", 10)),
		storage.AppendWireBatch(nil, storage.TagI, mkRecs("b", 4)),
	)
	batches, records, err := ParseRequest(body)
	if err != nil {
		t.Fatal(err)
	}
	applied, err := p.Submit(batches)
	if err != nil || applied != 2 {
		t.Fatalf("Submit = %d, %v; want 2, nil", applied, err)
	}
	if eng.Pending() != 14 {
		t.Fatalf("Pending = %d, want 14", eng.Pending())
	}
	if st := p.Stats(); st.AcceptedBatches != 2 || st.AcceptedRecords != uint64(records) {
		t.Fatalf("accepted counters %+v, want 2 batches / %d records", st, records)
	}
}

// failLogger accepts appends until failAt (0-indexed), then errors.
type failLogger struct {
	n      int
	failAt int
}

func (l *failLogger) LogEncoded(tag byte, recordBytes []byte, recs []slim.Record) (func() error, error) {
	if l.n == l.failAt {
		return nil, fmt.Errorf("injected append failure at batch %d", l.n)
	}
	l.n++
	return func() error { return nil }, nil
}

// TestSubmitDurablePrefix: when an append fails mid-request, the durable
// prefix is buffered (it will be replayed on recovery, so it must be
// visible) and the tail is neither acknowledged nor buffered.
func TestSubmitDurablePrefix(t *testing.T) {
	eng := testEngine(t)
	p := NewPlane(eng, Config{})
	p.AttachLogger(&failLogger{failAt: 2})

	var raw [][]byte
	for i := 0; i < 4; i++ {
		raw = append(raw, storage.AppendWireBatch(nil, storage.TagE, mkRecs(fmt.Sprintf("e%d", i), 5)))
	}
	batches, _, err := ParseRequest(wireBody(t, raw...))
	if err != nil {
		t.Fatal(err)
	}
	applied, err := p.Submit(batches)
	if err == nil {
		t.Fatal("Submit with failing logger returned no error")
	}
	if applied != 2 {
		t.Fatalf("applied = %d, want the 2-batch durable prefix", applied)
	}
	if eng.Pending() != 10 {
		t.Fatalf("Pending = %d, want exactly the durable prefix's 10 records", eng.Pending())
	}
	if st := p.Stats(); st.AcceptedBatches != 2 || st.AcceptedRecords != 10 {
		t.Fatalf("accepted counters %+v, want the prefix only", st)
	}
}
