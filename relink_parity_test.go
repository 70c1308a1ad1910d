package slim_test

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"slim"
	"slim/internal/engine"
)

// sameLinksBits reports whether two link lists are bit-identical:
// same pairs in the same order with Float64bits-equal scores.
func sameLinksBits(a, b []slim.Link) bool {
	return slices.EqualFunc(a, b, func(x, y slim.Link) bool {
		return x.U == y.U && x.V == y.V && math.Float64bits(x.Score) == math.Float64bits(y.Score)
	})
}

// requireSameResult asserts two results are bit-identical in everything
// the edge store and publish tail are responsible for: the
// retained/rescored edge set (via Matched, which is the full
// positive-edge matching), the published links, and the thresholding
// derived from them — scores and threshold compared via Float64bits, so
// even a last-ulp divergence between the incremental and from-scratch
// pipelines fails. Work counters (bin/record comparisons) are
// deliberately excluded — saving that work is the whole point of the
// incremental path.
func requireSameResult(t *testing.T, step string, got, want slim.Result) {
	t.Helper()
	if got.Stats.CandidatePairs != want.Stats.CandidatePairs {
		t.Fatalf("%s: candidate pairs %d, want %d", step, got.Stats.CandidatePairs, want.Stats.CandidatePairs)
	}
	if got.Stats.PositiveEdges != want.Stats.PositiveEdges {
		t.Fatalf("%s: positive edges %d, want %d", step, got.Stats.PositiveEdges, want.Stats.PositiveEdges)
	}
	if !sameLinksBits(got.Matched, want.Matched) {
		t.Fatalf("%s: matched links diverged (%d vs %d)", step, len(got.Matched), len(want.Matched))
	}
	if math.Float64bits(got.Threshold) != math.Float64bits(want.Threshold) || got.ThresholdMethod != want.ThresholdMethod {
		t.Fatalf("%s: threshold %g (%s), want %g (%s)",
			step, got.Threshold, got.ThresholdMethod, want.Threshold, want.ThresholdMethod)
	}
	if !sameLinksBits(got.Links, want.Links) {
		t.Fatalf("%s: links diverged (%d vs %d)", step, len(got.Links), len(want.Links))
	}
}

// relinker is what the parity scenario drives: something that takes
// streamed records and re-links on demand. The standalone Linker and the
// service engine both fit.
type relinker struct {
	addE, addI func(...slim.Record)
	run        func() slim.Result
	tail       func() *slim.PublishTailStats
}

func linkerSubject(t *testing.T, e, i slim.Dataset, cfg slim.Config) relinker {
	lk, err := slim.NewLinker(e, i, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return relinker{
		addE: lk.AddE,
		addI: lk.AddI,
		run:  lk.Run,
		tail: lk.PublishTailStats,
	}
}

func engineSubject(t *testing.T, e, i slim.Dataset, cfg slim.Config) (relinker, *engine.Engine) {
	eng, err := engine.New(e, i, engine.Config{Link: cfg, Debounce: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	return relinker{
		addE: eng.AddE,
		addI: eng.AddI,
		run:  eng.Run,
		tail: func() *slim.PublishTailStats { return eng.Stats().PublishTail },
	}, eng
}

// TestRelinkParityIncrementalVsFromScratch is the exactness gate of
// incremental relinking, at both levels that do it: a standalone Linker
// and the service's engine.Engine, each fed randomised interleaved E/I
// ingest bursts, must after every run publish a result bit-identical —
// links, matching, threshold, every score by Float64bits — to
// slim.LinkDatasets over the union records. The bursts cover weight-only
// churn (the pair-level delta path), new-bin and new-entity bursts
// (IDF-epoch full rescores), window-range growth in both directions
// (LinkDatasets then windows the union from a different epoch, which must
// not matter), point and region records, with
// LSH on and off. It also asserts that the delta path, the full-rescore
// path and the publish tail's prefix reuse all actually ran, so parity
// cannot pass by redoing everything every time.
func TestRelinkParityIncrementalVsFromScratch(t *testing.T) {
	scenarios := []struct {
		name string
		lsh  *slim.LSHConfig
	}{
		{"brute", nil},
		// Signature level 13 != history level 12 exercises the separate
		// signature stores.
		{"lsh", &slim.LSHConfig{Threshold: 0.01, StepWindows: 48, SpatialLevel: 13, NumBuckets: 1 << 14}},
	}
	for _, sc := range scenarios {
		for _, subject := range []string{"linker", "engine"} {
			for _, seed := range []int64{3, 19} {
				t.Run(fmt.Sprintf("%s/%s/seed%d", subject, sc.name, seed), func(t *testing.T) {
					cfg := slim.Defaults()
					cfg.LSH = sc.lsh
					runParityScenario(t, subject, cfg, seed)
				})
			}
			t.Run(fmt.Sprintf("%s/%s/descending", subject, sc.name), func(t *testing.T) {
				cfg := slim.Defaults()
				cfg.LSH = sc.lsh
				runDescendingScenario(t, subject, cfg)
			})
		}
	}
}

// descendingArrival returns the workload's records grouped by entity, the
// entities in descending id order. Streamed into an empty linker in that
// order, every entity gets an ordinal that reverses its id rank, so the
// packed-pair order the candidates and scores are enumerated in is the
// exact reverse of the canonical (U, V) order on both sides.
func descendingArrival(d slim.Dataset) [][]slim.Record {
	byEntity := d.ByEntity()
	ids := d.Entities()
	slices.Reverse(ids)
	out := make([][]slim.Record, len(ids))
	for k, id := range ids {
		out[k] = byEntity[id]
	}
	return out
}

// keepAbove drops every entity holding at most minRecords records and
// keeps the rest in their order: the records LinkDatasets' filter keeps.
func keepAbove(d slim.Dataset, minRecords int) slim.Dataset {
	counts := make(map[slim.EntityID]int)
	for _, r := range d.Records {
		counts[r.Entity]++
	}
	out := slim.Dataset{Name: d.Name}
	for _, r := range d.Records {
		if counts[r.Entity] > minRecords {
			out.Records = append(out.Records, r)
		}
	}
	return out
}

// runDescendingScenario streams a workload into an empty subject, both
// sides' entities arriving in descending id order, and holds every run —
// full rescores while entities arrive, then the delta path — to
// LinkDatasets over the union, which numbers the same entities in
// ascending id order.
func runDescendingScenario(t *testing.T, subject string, cfg slim.Config) {
	ground := slim.GenerateCab(slim.CabOptions{NumTaxis: 14, Days: 2, MeanRecordIntervalSec: 420, Seed: 11})
	w := slim.SampleWorkload(&ground, slim.SampleOptions{
		IntersectionRatio: 0.5, InclusionProbE: 0.7, InclusionProbI: 0.7, Seed: 12,
	})
	arriveE := descendingArrival(keepAbove(w.E, cfg.MinRecords))
	arriveI := descendingArrival(keepAbove(w.I, cfg.MinRecords))

	var inc relinker
	if subject == "engine" {
		inc, _ = engineSubject(t, slim.Dataset{Name: "E"}, slim.Dataset{Name: "I"}, cfg)
	} else {
		inc = linkerSubject(t, slim.Dataset{Name: "E"}, slim.Dataset{Name: "I"}, cfg)
	}
	var unionE, unionI []slim.Record
	check := func(step string) slim.Result {
		t.Helper()
		want, err := slim.LinkDatasets(
			slim.Dataset{Name: "E", Records: unionE},
			slim.Dataset{Name: "I", Records: unionI}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got := inc.run()
		requireSameResult(t, step, got, want)
		return got
	}
	for k := 0; k < max(len(arriveE), len(arriveI)); k++ {
		if k < len(arriveE) {
			inc.addE(arriveE[k]...)
			unionE = append(unionE, arriveE[k]...)
		}
		if k < len(arriveI) {
			inc.addI(arriveI[k]...)
			unionI = append(unionI, arriveI[k]...)
		}
		if k%3 == 2 {
			check(fmt.Sprintf("after %d entities a side", k+1))
		}
	}
	if got := check("all entities"); len(got.Links) == 0 {
		t.Fatal("workload produced no links; the parity check is vacuous")
	}
	// Re-observations of known bins: the pair-level delta path, over
	// anti-sorted ordinals.
	for k := 0; k < 6; k++ {
		inc.addE(unionE[k*7])
		unionE = append(unionE, unionE[k*7])
	}
	if got := check("weight-only burst"); got.Stats.EdgeStore.FullRescore {
		t.Fatal("weight-only burst took the full-rescore path; the delta path went untested")
	}
}

func runParityScenario(t *testing.T, subject string, cfg slim.Config, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	ground := slim.GenerateCab(slim.CabOptions{NumTaxis: 14, Days: 2, MeanRecordIntervalSec: 420, Seed: seed})
	w := slim.SampleWorkload(&ground, slim.SampleOptions{
		IntersectionRatio: 0.5, InclusionProbE: 0.7, InclusionProbI: 0.7, Seed: seed + 1,
	})
	// The seed goes through the min-records filter once, up front: the
	// incremental side filters only its seed (streamed records bypass it),
	// so the union stays comparable as long as LinkDatasets' own filter is
	// a no-op — every burst below keeps each entity above the floor.
	seedE := keepAbove(w.E, cfg.MinRecords)
	seedI := keepAbove(w.I, cfg.MinRecords)
	unionE := slices.Clone(seedE.Records)
	unionI := slices.Clone(seedI.Records)
	lo, hi, _ := seedE.TimeRange()

	var inc relinker
	var eng *engine.Engine
	if subject == "engine" {
		inc, eng = engineSubject(t, seedE, seedI, cfg)
	} else {
		inc = linkerSubject(t, seedE, seedI, cfg)
	}
	fromScratch := func() slim.Result {
		res, err := slim.LinkDatasets(
			slim.Dataset{Name: "E", Records: unionE},
			slim.Dataset{Name: "I", Records: unionI}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	// mutate applies one burst to the incremental side and the union
	// records. Kinds: 0 = weight-only re-observations (records duplicated
	// into existing bins: the only churn that leaves both IDF epochs
	// untouched), 1 = new cells inside the time range, 2/3 = range growth
	// right/left, 4 = brand-new entity pair. (Score changes without an
	// epoch move cannot be provoked from ingest — scores are pure
	// functions of bin sets, and any bin-set change moves an IDF epoch —
	// so the publish tail's partial-reuse path is covered by the
	// synthetic-delta parity suite in tail_test.go instead.)
	mutate := func(kind int) {
		switch kind {
		case 0:
			for k := 0; k < 6; k++ {
				r := unionE[rng.Intn(len(unionE))]
				inc.addE(r)
				unionE = append(unionE, r)
				r = unionI[rng.Intn(len(unionI))]
				inc.addI(r)
				unionI = append(unionI, r)
			}
		case 1:
			r := unionE[rng.Intn(len(unionE))]
			r.LatLng.Lat += 0.3 + rng.Float64()
			if rng.Intn(2) == 0 {
				r.RadiusKm = 0.5 + rng.Float64()
			}
			inc.addE(r)
			unionE = append(unionE, r)
		case 2:
			r := unionI[rng.Intn(len(unionI))]
			hi += 86400
			r.Unix = hi
			inc.addI(r)
			unionI = append(unionI, r)
		case 3:
			r := unionE[rng.Intn(len(unionE))]
			lo -= 86400
			r.Unix = lo
			inc.addE(r)
			unionE = append(unionE, r)
		case 4:
			var es, is []slim.Record
			for k := 0; k < 8; k++ {
				unix := lo + rng.Int63n(hi-lo)
				es = append(es, slim.NewRecord("fresh-e", 37.2+float64(k%3)*0.05, -121.9, unix))
				is = append(is, slim.NewRecord("fresh-i", 37.2+float64(k%3)*0.05, -121.9, unix+40))
			}
			inc.addE(es...)
			inc.addI(is...)
			unionE = append(unionE, es...)
			unionI = append(unionI, is...)
		}
	}

	requireSameResult(t, "seed", inc.run(), fromScratch())

	sawDelta, sawFull, sawTailReuse := false, false, false
	kinds := []int{0, 0, 2, 0, 1, 3, 4, 0}
	// A randomised tail after the fixed prefix that guarantees coverage.
	for k := 0; k < 6; k++ {
		kinds = append(kinds, []int{0, 0, 0, 1, 2, 3}[rng.Intn(6)])
	}
	for burst, kind := range kinds {
		mutate(kind)
		if rng.Intn(2) == 0 {
			// A second burst before the run: one candidate-index update
			// covers both.
			mutate(0)
		}
		got := inc.run()
		es := got.Stats.EdgeStore
		if es == nil {
			t.Fatal("run stats carry no edge-store block")
		}
		if es.FullRescore {
			sawFull = true
		} else if es.Retained > 0 {
			sawDelta = true
			if es.Rescored+es.Retained < got.Stats.CandidatePairs {
				t.Fatalf("burst %d: rescored %d + retained %d < candidates %d",
					burst, es.Rescored, es.Retained, got.Stats.CandidatePairs)
			}
		}
		if ts := inc.tail(); ts != nil && !ts.LastFull && ts.ReusedPrefix > 0 {
			sawTailReuse = true
		}
		requireSameResult(t, fmt.Sprintf("burst %d (kind %d)", burst, kind), got, fromScratch())
	}
	if !sawDelta || !sawFull {
		t.Fatalf("workload must exercise both paths: delta=%v full=%v", sawDelta, sawFull)
	}
	if !sawTailReuse {
		t.Fatal("no delta burst reused the tail's matched prefix")
	}

	// A run with no ingest at all redoes nothing and publishes the same
	// result: the linker retains every pair and reuses the whole matched
	// prefix and the cached threshold fit; the engine does not even get
	// that far — it short-circuits.
	want := fromScratch()
	clean := inc.run()
	requireSameResult(t, "clean rerun", clean, want)
	if eng != nil {
		recs, _ := eng.Runs(1, 0)
		if len(recs) != 1 || !recs[0].ShortCircuit {
			t.Fatalf("clean engine rerun did not short-circuit: %+v", recs)
		}
		return
	}
	es := clean.Stats.EdgeStore
	if es.Rescored != 0 || es.FullRescore || es.Retained != clean.Stats.CandidatePairs {
		t.Fatalf("clean run rescored work: %+v", es)
	}
	ts := inc.tail()
	if ts == nil {
		t.Fatal("greedy runs must maintain a publish tail")
	}
	if ts.Applies == 0 || ts.Rebuilds == 0 {
		t.Fatalf("workload must exercise both tail paths: %+v", ts)
	}
	if ts.ReusedPrefix != len(clean.Matched) || ts.SuffixWalked != 0 {
		t.Fatalf("clean rerun must reuse the whole matched prefix: %+v (matched %d)",
			ts, len(clean.Matched))
	}
	if ts.Reuses == 0 {
		t.Fatalf("clean rerun must reuse the cached threshold fit: %+v", ts)
	}
}

// TestRunEdgesCanonicalOrder: RunEdges returns its edges strictly sorted by
// (U, V) on the full-rescore path and on the delta path, whatever order
// the entities' ordinals are in. Candidates and scores are enumerated in
// packed-ordinal order, which is the canonical order only while ordinals
// follow id order: the second linker is fed both sides in descending id
// order, so there the two orders are exact opposites and only the edge
// store's sort restores the canonical one.
func TestRunEdgesCanonicalOrder(t *testing.T) {
	ground := slim.GenerateCab(slim.CabOptions{NumTaxis: 14, Days: 2, MeanRecordIntervalSec: 420, Seed: 7})
	w := slim.SampleWorkload(&ground, slim.SampleOptions{
		IntersectionRatio: 0.5, InclusionProbE: 0.7, InclusionProbI: 0.7, Seed: 8,
	})
	byPair := func(a, b slim.Link) int {
		return cmp.Or(cmp.Compare(a.U, b.U), cmp.Compare(a.V, b.V))
	}
	for name, lsh := range map[string]*slim.LSHConfig{
		"brute": nil,
		"lsh":   {Threshold: 0.01, StepWindows: 48, SpatialLevel: 13, NumBuckets: 1 << 14},
	} {
		t.Run(name, func(t *testing.T) {
			cfg := slim.Defaults()
			cfg.LSH = lsh
			cfg.Workers = 3 // several chunks, uneven against the pair count
			check := func(lk *slim.Linker, step string, wantFull bool) {
				t.Helper()
				edges, stats := lk.RunEdges()
				if len(edges) < 2 {
					t.Fatalf("%s: %d edges; the order check is vacuous", step, len(edges))
				}
				if stats.EdgeStore.FullRescore != wantFull {
					t.Fatalf("%s: full rescore = %v, want %v", step, stats.EdgeStore.FullRescore, wantFull)
				}
				if !slices.IsSortedFunc(edges, byPair) {
					t.Fatalf("%s: RunEdges output is not in canonical (U, V) order", step)
				}
			}

			half := len(w.E.Records) / 2
			lk, err := slim.NewLinker(slim.Dataset{Name: "E", Records: w.E.Records[:half]}, w.I, cfg)
			if err != nil {
				t.Fatal(err)
			}
			check(lk, "first run", true)
			lk.AddE(w.E.Records[half:]...) // new entities and bins: an IDF-epoch full rescore
			check(lk, "after new entities", true)
			lk.AddE(w.E.Records[:5]...) // repeats of known bins: the delta path
			check(lk, "weight-only burst", false)

			desc, err := slim.NewLinker(slim.Dataset{Name: "E"}, slim.Dataset{Name: "I"}, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, recs := range descendingArrival(w.E) {
				desc.AddE(recs...)
			}
			for _, recs := range descendingArrival(w.I) {
				desc.AddI(recs...)
			}
			check(desc, "descending arrival", true)
			desc.AddE(w.E.Records[:5]...)
			check(desc, "descending arrival, weight-only burst", false)
		})
	}
}
