package engine

import (
	"testing"
	"time"

	"slim"
)

// TestBufferAndOldestPending: AddE/AddI enqueue into the pending buffers
// (each record counted once, the oldest enqueue time kept), the next run
// drains and applies them, and each published run reaches AfterRun once.
func TestBufferAndOldestPending(t *testing.T) {
	cfg := slim.Defaults()
	cfg.Threshold = slim.ThresholdNone
	eng, err := New(slim.Dataset{Name: "E"}, slim.Dataset{Name: "I"},
		Config{Link: cfg, Debounce: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	p := &recordingPersister{}
	eng.SetPersister(p)

	if _, ok := eng.OldestPending(); ok {
		t.Fatal("OldestPending reported a queue age on an idle engine")
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
	oldest, ok := eng.OldestPending()
	if !ok || oldest.Before(before) || oldest.After(time.Now()) {
		t.Fatalf("OldestPending = %v, %v; want a stamp from this test", oldest, ok)
	}
	if st := eng.Stats(); st.PendingOldestAge <= 0 {
		t.Fatalf("Stats().PendingOldestAge = %v, want > 0", st.PendingOldestAge)
	}

	res := eng.Run()
	if len(res.Links) != 3 {
		t.Fatalf("run produced %d links, want 3", len(res.Links))
	}
	if p.runs != 1 {
		t.Fatalf("AfterRun called %d times, want 1", p.runs)
	}
	if eng.Pending() != 0 {
		t.Fatalf("Pending = %d after run, want 0", eng.Pending())
	}
	if _, ok := eng.OldestPending(); ok {
		t.Fatal("OldestPending still set after the run drained the queues")
	}
	if st := eng.Stats(); st.PendingOldestAge != 0 {
		t.Fatalf("PendingOldestAge = %v after run, want 0", st.PendingOldestAge)
	}
	if st := eng.Stats(); st.IngestedE != 60 || st.IngestedI != 60 {
		t.Fatalf("ingested counters = %d/%d, want 60/60", st.IngestedE, st.IngestedI)
	}
}
