package engine

import (
	"testing"
	"time"

	"slim"
)

// TestBufferAndOldestUnpublished: AddE/AddI enqueue into the pending
// buffers (each record counted once, the oldest acknowledgement time
// kept), the next run drains, applies and publishes them, and each
// published run reaches AfterRun and AfterPublish once, the hook with the
// stats that run left; a short circuit reaches neither.
func TestBufferAndOldestUnpublished(t *testing.T) {
	cfg := slim.Defaults()
	cfg.Threshold = slim.ThresholdNone
	var published []Stats
	eng, err := New(slim.Dataset{Name: "E"}, slim.Dataset{Name: "I"},
		Config{Link: cfg, Debounce: time.Hour,
			AfterPublish: func(st Stats) { published = append(published, st) }})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	p := &recordingPersister{}
	eng.SetPersister(p)

	if _, ok := eng.OldestUnpublished(); ok {
		t.Fatal("OldestUnpublished reported a queue age on an idle engine")
	}

	mk := func(e string, off float64, n int) []slim.Record {
		var out []slim.Record
		for k := 0; k < n; k++ {
			out = append(out, slim.NewRecord(slim.EntityID(e),
				37.5+off+float64(k%4)*0.06, -122.3, 1_000_000+int64(k)*900))
		}
		return out
	}
	before := time.Now()
	for i, off := range []float64{0, 0.8, 1.6} {
		e := string(rune('a' + i))
		eng.AddE(mk("e-"+e, off, 20)...)
		eng.AddI(mk("i-"+e, off, 20)...)
	}

	// Queue depth counts every record exactly once, E and I alike.
	if eng.Pending() != 120 {
		t.Fatalf("Pending = %d, want 120", eng.Pending())
	}
	oldest, ok := eng.OldestUnpublished()
	if !ok || oldest.Before(before) || oldest.After(time.Now()) {
		t.Fatalf("OldestUnpublished = %v, %v; want a stamp from this test", oldest, ok)
	}

	res := eng.Run()
	if len(res.Links) != 3 {
		t.Fatalf("run produced %d links, want 3", len(res.Links))
	}
	if p.runs != 1 {
		t.Fatalf("AfterRun called %d times, want 1", p.runs)
	}
	if len(published) != 1 {
		t.Fatalf("AfterPublish called %d times, want 1", len(published))
	}
	if st := published[0]; st.Version != 1 || st.PendingRecords != 0 || st.EntitiesE != 3 || st.EdgeStore == nil {
		t.Fatalf("AfterPublish saw %+v, want the published run's stats", st)
	}
	if eng.Run(); p.runs != 1 || len(published) != 1 {
		t.Fatalf("a short circuit reached AfterRun %d, AfterPublish %d times; want 1, 1", p.runs, len(published))
	}
	if eng.Pending() != 0 {
		t.Fatalf("Pending = %d after run, want 0", eng.Pending())
	}
	if _, ok := eng.OldestUnpublished(); ok {
		t.Fatal("OldestUnpublished still set after the run published the queues")
	}
	if st := eng.Stats(); st.IngestedE != 60 || st.IngestedI != 60 {
		t.Fatalf("ingested counters = %d/%d, want 60/60", st.IngestedE, st.IngestedI)
	}
}
