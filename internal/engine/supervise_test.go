package engine

import (
	"bytes"
	"context"
	"regexp"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"slim"
	"slim/internal/fault"
	"slim/internal/obs"
	"slim/internal/par"
)

// faultedEngine builds a small seeded engine with an armed-able injector.
func faultedEngine(t *testing.T) (*Engine, *fault.Injector, slim.SampledWorkload) {
	t.Helper()
	w := standardWorkload(12)
	inj := fault.New()
	eng, err := New(w.E, w.I, Config{
		Link:     slim.Defaults(),
		Debounce: 5 * time.Millisecond,
		Fault:    inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng, inj, w
}

// extraRecs returns a few fresh records for one new E entity so a run has
// pending work.
func extraRecs(n int, seed int64) []slim.Record {
	recs := make([]slim.Record, n)
	for i := range recs {
		recs[i] = slim.NewRecord("sup-extra", 40.0+float64(i)*0.001, -74.0, seed+int64(i*600))
	}
	return recs
}

// TestEngineRunPanicContained injects a panic into each relink phase in
// turn and verifies the failure is contained: Run returns the previous
// published result unchanged, the version is not bumped, the panic is
// counted, the relink health domain degrades, and the next (fault-free)
// run fully recovers — a forced full rescore that publishes links equal
// to a from-scratch LinkDatasets over the same records.
func TestEngineRunPanicContained(t *testing.T) {
	for _, site := range []string{FaultApply, FaultRescore, FaultRelink} {
		t.Run(site, func(t *testing.T) {
			eng, inj, w := faultedEngine(t)
			base := eng.Run()
			_, v1, _ := eng.Result()
			if len(base.Links) == 0 {
				t.Fatal("baseline run produced no links")
			}

			// Weight-only re-observations: without the forced full rescore
			// the recovery run would take the pair-level delta path.
			extra := slices.Clone(w.E.Records[:6])
			eng.AddE(extra...)
			inj.Arm(site, fault.Rule{Panic: "injected " + site, Count: 1})
			got := eng.Run()

			if _, v2, _ := eng.Result(); v2 != v1 {
				t.Fatalf("failed run bumped version: %d -> %d", v1, v2)
			}
			if len(got.Links) != len(base.Links) {
				t.Fatalf("failed run did not republish previous result: %d links vs %d",
					len(got.Links), len(base.Links))
			}
			st := eng.Stats()
			if st.RelinkPanics != 1 {
				t.Fatalf("RelinkPanics = %d, want 1", st.RelinkPanics)
			}
			if state, cause, _ := eng.Health(); state != obs.Degraded || !strings.Contains(cause, site) {
				t.Fatalf("health after panic = %v (%q), want degraded naming %s", state, cause, site)
			}
			// The failed run is observed like any other: every stage histogram
			// has one sample per run, so the layers still sum to end-to-end.
			runs := eng.metrics.relinkSeconds.Count()
			if runs != 2 {
				t.Fatalf("slim_relink_seconds_count = %d after a published and a panicked run, want 2", runs)
			}
			for i, h := range eng.metrics.stages {
				if h.Count() != runs {
					t.Fatalf("stage %q histogram has %d samples, slim_relink_seconds has %d",
						stageNames[i], h.Count(), runs)
				}
			}

			// Fault exhausted (Count:1): the next run must succeed, rescore
			// the whole candidate set rather than trust what the failed run
			// left in the edge store, and publish the pending records.
			res := eng.Run()
			if _, v3, _ := eng.Result(); v3 != v1+1 {
				t.Fatalf("recovery run version = %d, want %d", v3, v1+1)
			}
			recs, _ := eng.Runs(1, 0)
			if len(recs) != 1 || !recs[0].FullRescore || recs[0].Rescored != recs[0].CandidatePairs {
				t.Fatalf("recovery run did not fully rescore: %+v", recs)
			}
			if state, _, _ := eng.Health(); state != obs.Healthy {
				t.Fatalf("health after recovery = %v, want healthy", state)
			}
			if st := eng.Stats(); st.PendingRecords != 0 {
				t.Fatalf("records still pending after recovery run: %d", st.PendingRecords)
			}
			want, err := slim.LinkDatasets(
				slim.Dataset{Name: "E", Records: append(slices.Clone(w.E.Records), extra...)},
				w.I, slim.Defaults())
			if err != nil {
				t.Fatal(err)
			}
			requireBitIdenticalLinks(t, "recovery run", res.Links, want.Links)
		})
	}
}

// TestEngineFailedRunSkipsPersister verifies a panicked run never reaches
// the persister: no AfterRun, so no checkpoint can capture poisoned state.
func TestEngineFailedRunSkipsPersister(t *testing.T) {
	eng, inj, _ := faultedEngine(t)
	p := &recordingPersister{}
	eng.SetPersister(p)
	afterRuns := func() int {
		p.mu.Lock()
		defer p.mu.Unlock()
		return p.runs
	}

	eng.Run()
	after1 := afterRuns()

	eng.AddE(extraRecs(4, 500)...)
	inj.Arm(FaultRelink, fault.Rule{Panic: "boom", Count: 1})
	eng.Run()
	if got := afterRuns(); got != after1 {
		t.Fatalf("failed run called AfterRun (%d -> %d)", after1, got)
	}
	eng.Run()
	if got := afterRuns(); got != after1+1 {
		t.Fatalf("recovery run AfterRun count = %d, want %d", got, after1+1)
	}
}

// TestEngineSupervisorRestartsLoop panics the background scheduler itself
// (outside Run's containment) and verifies the supervisor recovers it:
// the loop restarts, the restart is counted, and a later ingest still
// triggers a debounced relink.
func TestEngineSupervisorRestartsLoop(t *testing.T) {
	eng, inj, _ := faultedEngine(t)
	eng.Start()
	defer eng.Close()

	inj.Arm(FaultLoop, fault.Rule{Panic: "scheduler down", Count: 1})
	eng.AddE(extraRecs(3, 900)...)
	deadline := time.Now().Add(5 * time.Second)
	for eng.Stats().LoopRestarts == 0 {
		if time.Now().After(deadline) {
			t.Fatal("supervisor never restarted the scheduler")
		}
		time.Sleep(time.Millisecond)
	}

	// The restarted loop must still serve: new ingest leads to a publish.
	eng.AddE(extraRecs(3, 1800)...)
	for {
		if st := eng.Stats(); st.PendingRecords == 0 && st.Runs > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("restarted scheduler never ran a relink")
		}
		time.Sleep(time.Millisecond)
	}
	st := eng.Stats()
	if st.LoopRestarts != 1 {
		t.Fatalf("LoopRestarts = %d, want 1", st.LoopRestarts)
	}
	if st.RelinkPanics == 0 {
		t.Fatal("scheduler panic not counted in RelinkPanics")
	}
}

// TestEngineStuckSeconds pins the watchdog math: 0 when idle, 0 while a
// run is within RunDeadline, and the overage once past it.
func TestEngineStuckSeconds(t *testing.T) {
	eng, _, _ := faultedEngine(t)
	if got := eng.StuckSeconds(); got != 0 {
		t.Fatalf("idle StuckSeconds = %v, want 0", got)
	}

	eng.runStartNano.Store(time.Now().Add(-RunDeadline - time.Second).UnixNano())
	if got := eng.StuckSeconds(); got < 0.5 || got > 5 {
		t.Fatalf("stuck StuckSeconds = %v, want ~1", got)
	}
	eng.runStartNano.Store(time.Now().UnixNano())
	if got := eng.StuckSeconds(); got != 0 {
		t.Fatalf("on-time StuckSeconds = %v, want 0", got)
	}
	eng.runStartNano.Store(0)
}

// TestStageLabelsReachWorkers pins the profiler attribution of a relink
// stage: inside the stage body the context carries stage=<name>, and the
// goroutines the body fans out to (par.Chunks workers, as the linker's
// scoring passes use) inherit the label, so CPU profiles split by stage.
func TestStageLabelsReachWorkers(t *testing.T) {
	eng, _, _ := faultedEngine(t)
	const workers = 3
	var dur time.Duration
	var label, profile string
	eng.stage("rescore", "", &dur, func(ctx context.Context) {
		label, _ = pprof.Label(ctx, "stage")
		// Worker 0 dumps the goroutine profile once every worker is running.
		var arrived sync.WaitGroup
		arrived.Add(workers - 1)
		release := make(chan struct{})
		par.Chunks(workers, workers, func(w, _, _ int) {
			if w != 0 {
				arrived.Done()
				<-release
				return
			}
			arrived.Wait()
			var buf bytes.Buffer
			_ = pprof.Lookup("goroutine").WriteTo(&buf, 1) // a bytes.Buffer write cannot fail
			profile = buf.String()
			close(release)
		})
	})
	if label != "rescore" {
		t.Fatalf("stage label inside the body = %q, want rescore", label)
	}
	// debug=1 groups goroutines by stack and labels: "N @ pcs...\n# labels: {...}".
	labelled := 0
	for _, m := range regexp.MustCompile(`(?m)^(\d+) @.*\n# labels: \{"stage":"rescore"\}`).FindAllStringSubmatch(profile, -1) {
		n, _ := strconv.Atoi(m[1]) // the pattern admits digits only
		labelled += n
	}
	if labelled < workers {
		t.Fatalf("%d goroutines carry stage=rescore, want the %d workers:\n%s", labelled, workers, profile)
	}
	if dur <= 0 {
		t.Fatal("stage did not record its wall time")
	}
}
