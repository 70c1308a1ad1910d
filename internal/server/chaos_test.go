package server

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"slim"
	"slim/internal/engine"
	"slim/internal/fault"
	"slim/internal/storage"
)

// TestServerChaos runs a fixed-seed randomized fault schedule — disk
// errors, write delays, and relink panics — against a live node while
// concurrent JSON and binary ingest races the background relink loop.
// Invariants checked:
//
//   - the process never crashes and /healthz answers 200 throughout;
//   - every request resolves to an explicit verdict (202 acked, or
//     429/503/500 rejected) — never a hang or a connection error;
//   - after the faults clear the node heals on its own, and the WAL
//     holds exactly the acked batches: every acked record is durable
//     exactly once, and every rejected batch is wholly absent — under the
//     inline-fsync schedule, where a nacked append never survives
//     quarantine. Under the group-commit schedule a batch nacked by a
//     failed fsync is re-logged by the reopen (at-least-once), so a
//     rejected batch is absent or present exactly once;
//   - under both, the engine was fed exactly the records the WAL holds —
//     acked ones by Submit, re-logged ones by the store.
//
// The schedule derives from a fixed seed so a failure replays exactly.
func TestServerChaos(t *testing.T) {
	t.Run("inline", func(t *testing.T) { runServerChaos(t, 0) })
	t.Run("group-commit", func(t *testing.T) { runServerChaos(t, time.Millisecond) })
}

func runServerChaos(t *testing.T, fsyncInterval time.Duration) {
	rng := rand.New(rand.NewSource(42))
	inj := fault.New()
	dir := t.TempDir()
	eng, store, _, err := storage.Recover(dir,
		slim.Dataset{Name: "E"}, slim.Dataset{Name: "I"},
		engine.Config{Link: slim.Defaults(), Debounce: 2 * time.Millisecond, Fault: inj},
		storage.Options{
			FS:                storage.NewFaultFS(storage.OSFS, inj),
			FsyncInterval:     fsyncInterval,
			SnapshotEveryRuns: -1, // no checkpoints: every injected disk fault lands on the WAL
			ReopenBackoff:     time.Millisecond,
			ReopenMaxBackoff:  5 * time.Millisecond,
		})
	if err != nil {
		t.Fatal(err)
	}
	eng.Start()
	srv := New(eng, nil)
	srv.AttachStore(store)
	srv.SetReady()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(eng.Close)
	t.Cleanup(func() { store.Close() })

	// Shared verdict ledger: entity -> record count for acked batches,
	// entity -> true for rejected ones. One unique entity per batch makes
	// the WAL audit exact.
	var (
		mu       sync.Mutex
		acked    = map[string]int{}
		rejected = map[string]bool{}
	)
	verdict := func(entity string, n, status int) {
		mu.Lock()
		defer mu.Unlock()
		switch status {
		case http.StatusAccepted:
			acked[entity] = n
		case http.StatusTooManyRequests, http.StatusServiceUnavailable,
			http.StatusInternalServerError:
			rejected[entity] = true
		default:
			t.Errorf("entity %s: unexpected ingest status %d", entity, status)
		}
	}
	recsFor := func(entity string, n int) []slim.Record {
		recs := make([]slim.Record, n)
		for i := range recs {
			recs[i] = slim.NewRecord(slim.EntityID(entity),
				40.0+float64(i%7)*0.01, -74.0, int64(1_000_000+i*600))
		}
		return recs
	}

	const (
		workers          = 3
		batchesPerWorker = 60
		recsPerBatch     = 4
	)
	var wg sync.WaitGroup
	// JSON ingest workers, alternating datasets.
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ds := "e"
			if w%2 == 1 {
				ds = "i"
			}
			for b := 0; b < batchesPerWorker; b++ {
				entity := fmt.Sprintf("c-j%d-%d", w, b)
				recs := make([]map[string]any, recsPerBatch)
				for i, r := range recsFor(entity, recsPerBatch) {
					recs[i] = map[string]any{
						"entity": r.Entity, "lat": r.LatLng.Lat,
						"lng": r.LatLng.Lng, "unix": r.Unix,
					}
				}
				resp, _ := postJSON(t, ts.URL+"/v1/datasets/"+ds+"/records",
					map[string]any{"records": recs})
				verdict(entity, recsPerBatch, resp.StatusCode)
				time.Sleep(time.Millisecond)
			}
		}(w)
	}
	// Binary ingest worker: one batch per frame so a request's verdict is
	// the batch's verdict (no partial-prefix ambiguity).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for b := 0; b < batchesPerWorker; b++ {
			entity := fmt.Sprintf("c-bin-%d", b)
			wire := frameBatches(storage.TagI, recsFor(entity, recsPerBatch), recsPerBatch)
			resp, _ := postBinary(t, ts.URL, wire)
			verdict(entity, recsPerBatch, resp.StatusCode)
			time.Sleep(time.Millisecond)
		}
	}()

	// Liveness monitor: /healthz must answer 200 for the whole run, even
	// mid-quarantine.
	monitorStop := make(chan struct{})
	var monitorWG sync.WaitGroup
	monitorWG.Add(1)
	go func() {
		defer monitorWG.Done()
		for {
			select {
			case <-monitorStop:
				return
			case <-time.After(5 * time.Millisecond):
			}
			r, err := http.Get(ts.URL + "/healthz")
			if err != nil {
				t.Errorf("healthz during chaos: %v", err)
				return
			}
			r.Body.Close()
			if r.StatusCode != http.StatusOK {
				t.Errorf("healthz during chaos: status %d", r.StatusCode)
			}
		}
	}()

	ingestDone := make(chan struct{})
	go func() { wg.Wait(); close(ingestDone) }()

	// One storage fault lands by construction: a WAL write failure stays
	// armed until it fires while the ingest workers still run. The
	// wall-clock schedule below can fall wholly outside the ingest window
	// on a loaded host; this fault cannot.
	inj.Arm(storage.SiteFSWrite, fault.Rule{Count: 1})
	for inj.Fired(storage.SiteFSWrite) == 0 {
		select {
		case <-ingestDone:
			t.Fatal("ingest finished before the armed WAL write fault fired")
		case <-time.After(100 * time.Microsecond):
		}
	}

	// The chaos schedule: random storage faults, write delays, and engine
	// panics, armed and cleared on a fixed-seed timeline.
	engineSites := []string{
		engine.FaultApply, engine.FaultRescore, engine.FaultRelink, engine.FaultLoop,
	}
	for i := 0; i < 50; i++ {
		time.Sleep(time.Duration(1+rng.Intn(4)) * time.Millisecond)
		switch rng.Intn(6) {
		case 0, 1:
			site := storage.FaultSites[rng.Intn(len(storage.FaultSites))]
			inj.Arm(site, fault.Rule{After: rng.Intn(3), Count: 1 + rng.Intn(3)})
		case 2:
			site := engineSites[rng.Intn(len(engineSites))]
			inj.Arm(site, fault.Rule{Panic: "chaos " + site, Count: 1})
		case 3:
			inj.Arm(storage.SiteFSWrite,
				fault.Rule{Delay: time.Duration(rng.Intn(2000)) * time.Microsecond, Count: 2})
		default:
			inj.DisarmAll()
		}
	}
	inj.DisarmAll()

	<-ingestDone
	close(monitorStop)
	monitorWG.Wait()

	// Heal: with every fault cleared the reopen loop must converge.
	deadline := time.Now().Add(10 * time.Second)
	for store.Degraded() {
		if time.Now().After(deadline) {
			t.Fatal("store never healed after faults cleared")
		}
		time.Sleep(time.Millisecond)
	}
	// Force a clean relink so everything buffered is applied and the
	// relink domain recovers too.
	for _, path := range []string{"/v1/link", "/v1/link"} {
		r, err := http.Post(ts.URL+path, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Fatalf("POST %s after heal: status %d", path, r.StatusCode)
		}
	}
	if st := eng.Stats(); st.PendingRecords != 0 {
		t.Fatalf("records still pending after healed relink: %d", st.PendingRecords)
	}

	// Audit the quiesced WAL: exactly the acked batches, nothing else.
	walCount := map[string]int{}
	if _, _, err := storage.ReplayWAL(dir, 0, func(b storage.Batch) error {
		for _, r := range b.Recs {
			walCount[string(r.Entity)]++
		}
		return nil
	}); err != nil {
		t.Fatalf("WAL replay after chaos: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	t.Logf("chaos verdicts: %d acked, %d rejected", len(acked), len(rejected))
	if len(acked) == 0 {
		t.Fatal("chaos run acked nothing — schedule starved ingest entirely")
	}
	if len(rejected) == 0 {
		t.Fatal("chaos run rejected nothing — no fault ever landed")
	}
	for entity, n := range acked {
		if walCount[entity] != n {
			t.Errorf("acked entity %s: %d records in WAL, want %d",
				entity, walCount[entity], n)
		}
	}
	relogged := 0
	for entity := range rejected {
		switch n := walCount[entity]; {
		case n == 0:
		case n == recsPerBatch && fsyncInterval > 0:
			relogged++
		default:
			t.Errorf("rejected entity %s leaked %d records into the WAL",
				entity, n)
		}
	}
	t.Logf("%d rejected batches were re-logged by a reopen", relogged)
	walRecords := 0
	for entity, n := range walCount {
		walRecords += n
		if _, ok := acked[entity]; !ok && !rejected[entity] {
			t.Errorf("WAL holds unknown entity %s", entity)
		}
	}
	if st := eng.Stats(); st.IngestedE+st.IngestedI != uint64(walRecords) {
		t.Errorf("engine was fed %d records, the WAL holds %d",
			st.IngestedE+st.IngestedI, walRecords)
	}
}
