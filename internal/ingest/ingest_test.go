package ingest

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"slim"
	"slim/internal/engine"
	"slim/internal/fault"
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
		{"overflowing timestamp", wireBody(t, storage.AppendWireBatch(nil, storage.TagE, []slim.Record{slim.NewRecord("x", 0, 0, math.MaxInt64)}))},
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

	eng.AddI(mkRecs("i", 90)...)
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
	eng.AddE(mkRecs("e", 3)...)
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

// TestAdmitCountsDrainedUnpublished: a record leaves the latency budget
// when a run publishes it, not when the run drains it. A relink held
// after its drain keeps the drained records' age on the budget, so new
// work sheds once that age passes ShedAfter.
func TestAdmitCountsDrainedUnpublished(t *testing.T) {
	cfg := slim.Defaults()
	cfg.Threshold = slim.ThresholdNone
	inj := fault.New()
	eng, err := engine.New(slim.Dataset{Name: "E"}, slim.Dataset{Name: "I"},
		engine.Config{Link: cfg, Debounce: time.Hour, Fault: inj})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	p := NewPlane(eng, Config{QueueDepth: 1 << 20, ShedAfter: 20 * time.Millisecond})

	inj.Arm(engine.FaultRelink, fault.Rule{Delay: 400 * time.Millisecond, Count: 1})
	start := time.Now()
	eng.AddE(mkRecs("e", 12)...)
	ran := make(chan struct{})
	go func() { eng.Run(); close(ran) }()
	for eng.Pending() != 0 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(time.Until(start.Add(150 * time.Millisecond)))
	var se *ShedError
	if _, err := p.Admit(1); !errors.As(err, &se) || se.Cause != "latency" {
		t.Fatalf("admit while 12 drained records wait on a held relink = %v, want latency ShedError", err)
	}
	if st := p.Stats(); st.OldestWait < 100*time.Millisecond {
		t.Fatalf("OldestWait = %v with drained records unpublished for 150ms", st.OldestWait)
	}
	<-ran
	if rel, err := p.Admit(1); err != nil {
		t.Fatalf("admit after the held relink published: %v", err)
	} else {
		rel()
	}
}

// TestSubmitBuffersWithoutLogger: a plane with no durable store (slimd
// without -data-dir) acknowledges by buffering — records go straight to
// the engine's pending queues.
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

// failLogger accepts appends until batch appendFailAt, and fails the
// durability wait of batch waitFailAt (0-indexed; -1 = never).
type failLogger struct {
	n                        int
	appendFailAt, waitFailAt int
}

func (l *failLogger) LogEncoded(tag byte, recordBytes []byte, recs []slim.Record) (func() error, error) {
	i := l.n
	if i == l.appendFailAt {
		return nil, fmt.Errorf("injected append failure at batch %d", i)
	}
	l.n++
	return func() error {
		if i == l.waitFailAt {
			return fmt.Errorf("injected fsync failure at batch %d", i)
		}
		return nil
	}, nil
}

// TestSubmitDurablePrefix: a log error rejects the batch entirely. When an
// append or a group-commit wait fails mid-request, the durable prefix is
// buffered (it will be replayed on recovery, so it must be visible) and
// the batches at and after the failure are neither acknowledged nor
// buffered — even the ones whose own append succeeded.
func TestSubmitDurablePrefix(t *testing.T) {
	for _, tc := range []struct {
		name        string
		logger      *failLogger
		wantApplied int
	}{
		{"append fails at batch 2", &failLogger{appendFailAt: 2, waitFailAt: -1}, 2},
		{"append fails at batch 0", &failLogger{appendFailAt: 0, waitFailAt: -1}, 0},
		{"wait fails at batch 1", &failLogger{appendFailAt: -1, waitFailAt: 1}, 1},
		{"wait fails at batch 0", &failLogger{appendFailAt: -1, waitFailAt: 0}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := testEngine(t)
			p := NewPlane(eng, Config{})
			p.AttachLogger(tc.logger)

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
			if applied != tc.wantApplied {
				t.Fatalf("applied = %d, want the %d-batch durable prefix", applied, tc.wantApplied)
			}
			if want := 5 * tc.wantApplied; eng.Pending() != want {
				t.Fatalf("Pending = %d, want exactly the durable prefix's %d records", eng.Pending(), want)
			}
			st := p.Stats()
			if st.AcceptedBatches != uint64(tc.wantApplied) || st.AcceptedRecords != uint64(5*tc.wantApplied) {
				t.Fatalf("accepted counters %+v, want the prefix only", st)
			}
			if es := eng.Stats(); es.IngestedE != uint64(5*tc.wantApplied) {
				t.Fatalf("rejected batches counted as ingested: %d", es.IngestedE)
			}
		})
	}
}
