package engine

import (
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"slim"
)

// standardWorkload mirrors the repo's standard datagen benchmark workload
// (see benchWorkload in the root bench_test.go): a synthetic Cab trace
// sampled into two overlapping anonymized datasets with ground truth.
func standardWorkload(taxis int) slim.SampledWorkload {
	ground := slim.GenerateCab(slim.CabOptions{
		NumTaxis: taxis, Days: 2, MeanRecordIntervalSec: 360, Seed: 99,
	})
	return slim.SampleWorkload(&ground, slim.SampleOptions{
		IntersectionRatio: 0.5, InclusionProbE: 0.5, InclusionProbI: 0.5, Seed: 100,
	})
}

// splitByTime divides a dataset's records at a unix timestamp.
func splitByTime(d slim.Dataset, cut int64) (before, after []slim.Record) {
	for _, r := range d.Records {
		if r.Unix < cut {
			before = append(before, r)
		} else {
			after = append(after, r)
		}
	}
	return before, after
}

func sortLinks(ls []slim.Link) {
	sort.Slice(ls, func(i, j int) bool {
		if ls[i].U != ls[j].U {
			return ls[i].U < ls[j].U
		}
		return ls[i].V < ls[j].V
	})
}

// TestEngineIncrementalMatchesFullLoad streams the tail of the workload
// into an engine seeded with the head and verifies the relinked result is
// identical to an engine seeded with everything.
func TestEngineIncrementalMatchesFullLoad(t *testing.T) {
	w := standardWorkload(20)
	lo, _, _ := w.E.TimeRange()
	cut := lo + 130000 // ~1.5 days in: every entity already has many records

	beforeE, afterE := splitByTime(w.E, cut)
	beforeI, afterI := splitByTime(w.I, cut)

	cfg := slim.Defaults()
	inc, err := New(
		slim.Dataset{Name: "E", Records: beforeE},
		slim.Dataset{Name: "I", Records: beforeI},
		Config{Link: cfg},
	)
	if err != nil {
		t.Fatal(err)
	}
	inc.Run()
	inc.AddE(afterE...)
	inc.AddI(afterI...)
	streamed := inc.Run()

	full, err := New(w.E, w.I, Config{Link: cfg})
	if err != nil {
		t.Fatal(err)
	}
	batch := full.Run()

	if len(streamed.Links) != len(batch.Links) {
		t.Fatalf("streamed links = %d, full-load links = %d",
			len(streamed.Links), len(batch.Links))
	}
	sortLinks(streamed.Links)
	sortLinks(batch.Links)
	for i := range batch.Links {
		if streamed.Links[i] != batch.Links[i] {
			t.Fatalf("link %d differs: %+v vs %+v", i, streamed.Links[i], batch.Links[i])
		}
	}
}

// TestEngineEmptyStartAndBackgroundRelink boots an empty engine, streams
// three linkable pairs through it, and waits for the debounced background
// scheduler to publish the linkage without any manual Run call.
func TestEngineEmptyStartAndBackgroundRelink(t *testing.T) {
	mk := func(e string, latOff float64, n int, startUnix int64) []slim.Record {
		var out []slim.Record
		for k := 0; k < n; k++ {
			out = append(out, slim.NewRecord(slim.EntityID(e),
				37.5+latOff+float64(k%4)*0.06, -122.3, startUnix+int64(k)*900))
		}
		return out
	}
	cfg := slim.Defaults()
	cfg.Threshold = slim.ThresholdNone // tiny instance: keep the full matching
	eng, err := New(slim.Dataset{Name: "E"}, slim.Dataset{Name: "I"},
		Config{Link: cfg, Debounce: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	eng.Start()
	defer eng.Close()

	for i, off := range []float64{0, 0.8, 1.6} {
		e := string(rune('a' + i))
		eng.AddE(mk("e-"+e, off, 20, 1_000_000)...)
		eng.AddI(mk("i-"+e, off, 20, 1_000_030)...)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, v, ok := eng.Result(); ok && v > 0 && eng.Stats().PendingRecords == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("background relink never published a result")
		}
		time.Sleep(5 * time.Millisecond)
	}
	links := eng.Links()
	if len(links) != 3 {
		t.Fatalf("links = %v, want 3 pairs", links)
	}
	got := eng.LinksFor("e-b")
	if len(got) != 1 || got[0].V != "i-b" {
		t.Errorf("LinksFor(e-b) = %v", got)
	}
	st := eng.Stats()
	if st.IngestedE != 60 || st.IngestedI != 60 {
		t.Errorf("ingest counters = %d/%d, want 60/60", st.IngestedE, st.IngestedI)
	}
}

// TestEngineConcurrentIngestWhileRun hammers the engine with concurrent
// streaming ingest, manual runs, the background scheduler and queries.
// Run it under -race: it is the subsystem's data-race gate.
func TestEngineConcurrentIngestWhileRun(t *testing.T) {
	w := standardWorkload(16)
	lo, _, _ := w.E.TimeRange()
	cut := lo + 120000
	beforeE, afterE := splitByTime(w.E, cut)
	beforeI, afterI := splitByTime(w.I, cut)

	eng, err := New(
		slim.Dataset{Name: "E", Records: beforeE},
		slim.Dataset{Name: "I", Records: beforeI},
		Config{Link: slim.Defaults(), Debounce: time.Millisecond},
	)
	if err != nil {
		t.Fatal(err)
	}
	eng.Start()
	eng.Run()

	const batch = 25
	var wg sync.WaitGroup
	wg.Add(4)
	go func() { // stream E records in batches
		defer wg.Done()
		for i := 0; i < len(afterE); i += batch {
			hi := min(i+batch, len(afterE))
			eng.AddE(afterE[i:hi]...)
		}
	}()
	go func() { // stream I records in batches
		defer wg.Done()
		for i := 0; i < len(afterI); i += batch {
			hi := min(i+batch, len(afterI))
			eng.AddI(afterI[i:hi]...)
		}
	}()
	go func() { // manual relinks racing the background scheduler
		defer wg.Done()
		for i := 0; i < 5; i++ {
			eng.Run()
		}
	}()
	go func() { // concurrent readers
		defer wg.Done()
		for i := 0; i < 50; i++ {
			eng.Links()
			eng.Stats()
			eng.LinksFor("anyone")
			eng.Result()
		}
	}()
	wg.Wait()
	eng.Close()

	final := eng.Run()
	if len(final.Links) == 0 {
		t.Fatal("no links after concurrent ingest")
	}
	st := eng.Stats()
	if st.PendingRecords != 0 {
		t.Errorf("engine not clean after final run: %+v", st)
	}
	if st.IngestedE != uint64(len(afterE)) || st.IngestedI != uint64(len(afterI)) {
		t.Errorf("ingest counters %d/%d, want %d/%d",
			st.IngestedE, st.IngestedI, len(afterE), len(afterI))
	}
}

// TestEngineCloseIdempotentAndRaced is the lifecycle -race gate: Close
// must be idempotent and safe to race with Start, ingest (which nudges
// scheduleRelink), a manual Run, and a background relink in flight.
// Every Close that observes a started scheduler must block until the
// scheduler goroutine — including its in-flight relink — has exited.
func TestEngineCloseIdempotentAndRaced(t *testing.T) {
	mk := func(e string, latOff float64, n int, startUnix int64) []slim.Record {
		var out []slim.Record
		for k := 0; k < n; k++ {
			out = append(out, slim.NewRecord(slim.EntityID(e),
				37.5+latOff+float64(k%4)*0.06, -122.3, startUnix+int64(k)*900))
		}
		return out
	}
	cfg := slim.Defaults()
	cfg.Threshold = slim.ThresholdNone
	eng, err := New(slim.Dataset{Name: "E"}, slim.Dataset{Name: "I"},
		Config{Link: cfg, Debounce: time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	eng.Start()

	// Get a background relink moving before the Closes race in.
	eng.AddE(mk("e-a", 0, 20, 1_000_000)...)
	eng.AddI(mk("i-a", 0, 20, 1_000_030)...)

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			eng.Close()
		}()
	}
	wg.Add(3)
	go func() {
		defer wg.Done()
		eng.Start() // Start racing Close must not resurrect the scheduler
	}()
	go func() {
		defer wg.Done()
		// scheduleRelink racing Close
		eng.AddE(mk("e-b", 0.8, 20, 1_000_000)...)
		eng.AddI(mk("i-b", 0.8, 20, 1_000_030)...)
	}()
	go func() {
		defer wg.Done()
		eng.Run()
	}()
	wg.Wait()
	eng.Close() // still idempotent after the dust settles

	// The engine stays queryable and manually runnable after Close.
	res := eng.Run()
	if len(res.Links) == 0 {
		t.Fatal("no links from post-Close manual run")
	}
	if eng.Pending() != 0 {
		t.Fatalf("pending after final run = %d", eng.Pending())
	}
}

// TestEngineRunShortCircuitsWhenClean is the regression gate for the
// clean fast path: a Run with nothing pending must republish the previous result without re-matching (version
// unchanged, persister not re-notified), and the next real ingest must
// take the full path again.
func TestEngineRunShortCircuitsWhenClean(t *testing.T) {
	w := standardWorkload(16)
	eng, err := New(w.E, w.I, Config{Link: slim.Defaults()})
	if err != nil {
		t.Fatal(err)
	}
	first := eng.Run()
	_, v1, _ := eng.Result()
	p := &recordingPersister{}
	eng.SetPersister(p)

	second := eng.Run()
	_, v2, _ := eng.Result()
	if v2 != v1 {
		t.Fatalf("clean rerun bumped the version: %d -> %d", v1, v2)
	}
	if p.runs != 0 {
		t.Fatalf("clean rerun notified the persister %d times", p.runs)
	}
	sortLinks(first.Links)
	sortLinks(second.Links)
	if len(first.Links) == 0 || !slices.Equal(first.Links, second.Links) {
		t.Fatalf("short-circuited run diverged: %d vs %d links", len(second.Links), len(first.Links))
	}
	st := eng.Stats()
	if st.RunsShortCircuited != 1 || st.Runs != 2 {
		t.Fatalf("short-circuit counters: %+v", st)
	}
	// A short-circuited run did no edge-store work: the last-* mirror
	// fields must read zero (not echo the first relink), while the state
	// fields keep the retained pairs.
	if es := st.EdgeStore; es == nil || es.Rescored != 0 || es.Retained != 0 || es.FullRescore || es.Pairs == 0 {
		t.Fatalf("edge-store mirrors after short-circuit: %+v", es)
	}

	// Real ingest resumes the full path and notifies the persister. A
	// duplicate of an existing record is weight-only churn, so the edge
	// store must take the pair-level delta path: only the touched
	// entity's pairs rescored, everything else retained.
	eng.AddE(w.E.Records[0])
	third := eng.Run()
	_, v3, _ := eng.Result()
	if v3 != v1+1 || p.runs != 1 {
		t.Fatalf("post-ingest run: version %d (want %d), persister runs %d (want 1)", v3, v1+1, p.runs)
	}
	es := third.Stats.EdgeStore
	if es == nil {
		t.Fatal("run stats carry no edge-store block")
	}
	if es.FullRescore || es.Retained == 0 || es.Rescored == 0 {
		t.Fatalf("weight-only burst did not take the delta path: %+v", es)
	}
	if es.Rescored+es.Retained != third.Stats.CandidatePairs || es.Rescored >= es.Retained {
		t.Fatalf("delta run: rescored %d + retained %d vs %d candidates (want a small rescored share summing to all)",
			es.Rescored, es.Retained, third.Stats.CandidatePairs)
	}
	st = eng.Stats()
	if st.EdgeStore == nil || st.EdgeStore.Pairs == 0 {
		t.Fatalf("engine stats edge-store block missing or empty: %+v", st.EdgeStore)
	}
	if st.EdgeRescoredTotal == 0 || st.EdgeRetainedTotal == 0 {
		t.Fatalf("cumulative relink counters not accumulated: %+v", st)
	}
	if st.EdgeStore.Rescored != es.Rescored || st.EdgeStore.Retained != es.Retained {
		t.Fatalf("stats edge-store work (%d/%d) disagrees with run stats (%d/%d)",
			st.EdgeStore.Rescored, st.EdgeStore.Retained, es.Rescored, es.Retained)
	}
}

// recordingPersister is a test double for the checkpoint hook.
type recordingPersister struct {
	mu   sync.Mutex
	runs int
}

func (p *recordingPersister) AfterRun(res slim.Result, version uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.runs++
}

// TestEngineConcurrentIngestWithLSHIndex is the -race gate for the
// incremental candidate index: the linker maintains its index under
// concurrent AddE/AddI + Run + Stats traffic, and the final relink must
// match a from-scratch engine built over the union datasets (the engine-
// level version of the candidates parity suite).
func TestEngineConcurrentIngestWithLSHIndex(t *testing.T) {
	w := standardWorkload(16)
	lo, _, _ := w.E.TimeRange()
	cut := lo + 120000
	beforeE, afterE := splitByTime(w.E, cut)
	beforeI, afterI := splitByTime(w.I, cut)

	cfg := slim.Defaults()
	cfg.LSH = &slim.LSHConfig{Threshold: 0.01, StepWindows: 48, SpatialLevel: 12, NumBuckets: 1 << 14}
	eng, err := New(
		slim.Dataset{Name: "E", Records: beforeE},
		slim.Dataset{Name: "I", Records: beforeI},
		Config{Link: cfg, Debounce: time.Millisecond},
	)
	if err != nil {
		t.Fatal(err)
	}
	eng.Start()
	eng.Run()

	const batch = 25
	var wg sync.WaitGroup
	wg.Add(4)
	go func() {
		defer wg.Done()
		for i := 0; i < len(afterE); i += batch {
			eng.AddE(afterE[i:min(i+batch, len(afterE))]...)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < len(afterI); i += batch {
			eng.AddI(afterI[i:min(i+batch, len(afterI))]...)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			eng.Run()
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			st := eng.Stats() // races the linker view against relinks
			_ = st.CandidateIndex
		}
	}()
	wg.Wait()
	eng.Close()
	final := eng.Run()

	st := eng.Stats()
	if st.CandidateIndex == nil {
		t.Fatal("engine stats carry no candidate-index block with LSH enabled")
	}
	if st.CandidateIndex.SignaturesE == 0 || st.CandidateIndex.SignaturesI == 0 {
		t.Fatalf("candidate index looks unbuilt after ingest: %+v", st.CandidateIndex)
	}
	requireLayersAreTheRunsStats(t, eng, final)

	fresh, err := New(w.E, w.I, Config{Link: cfg})
	if err != nil {
		t.Fatal(err)
	}
	want := fresh.Run()
	sortLinks(final.Links)
	sortLinks(want.Links)
	if len(final.Links) != len(want.Links) {
		t.Fatalf("incremental engine found %d links, fresh engine %d", len(final.Links), len(want.Links))
	}
	for i := range want.Links {
		if final.Links[i] != want.Links[i] {
			t.Fatalf("link %d differs after concurrent LSH ingest: %+v vs %+v", i, final.Links[i], want.Links[i])
		}
	}
}
