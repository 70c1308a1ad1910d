package slim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// requireBreakdownParity asserts that ScoreBreakdown(u, v) recomposes to
// Score(u, v) bit for bit, three ways: the reported Total, the window
// sums re-summed in window order, and each window's sum re-summed from
// its pair contributions in accumulation order. Bit equality
// (math.Float64bits) is deliberate — the breakdown replicates the
// kernel's floating-point accumulation sequence, not an approximation
// of it.
func requireBreakdownParity(t *testing.T, lk *Linker, step string) {
	t.Helper()
	for _, u := range lk.EntitiesE() {
		for _, v := range lk.EntitiesI() {
			want := lk.Score(u, v)
			bd := lk.ScoreBreakdown(u, v)
			if math.Float64bits(bd.Total) != math.Float64bits(want) {
				t.Fatalf("%s: breakdown total %v != score %v for (%s, %s)",
					step, bd.Total, want, u, v)
			}
			var total float64
			for _, wb := range bd.Windows {
				var sum float64
				for _, pc := range wb.Pairs {
					sum += pc.Contribution
				}
				if math.Float64bits(sum) != math.Float64bits(wb.Sum) {
					t.Fatalf("%s: window %d pair sum %v != window sum %v for (%s, %s)",
						step, wb.Window, sum, wb.Sum, u, v)
				}
				total += wb.Sum
			}
			if math.Float64bits(total) != math.Float64bits(want) {
				t.Fatalf("%s: re-summed windows %v != score %v for (%s, %s)",
					step, total, want, u, v)
			}
		}
	}
}

// TestScoreBreakdownRecomposesBitIdentically is the explainability
// slow path's exactness gate: across randomized workloads, ingest bursts
// of every churn kind (the same shapes as the relink parity suite), and
// every scoring ablation, the per-window decomposition must recompose to
// the kernel's Score bit-identically for every cross pair.
func TestScoreBreakdownRecomposesBitIdentically(t *testing.T) {
	scenarios := []struct {
		name string
		abl  Ablation
	}{
		{"default", Ablation{}},
		{"no-mfn", Ablation{DisableMFN: true}},
		{"all-pairs", Ablation{AllPairs: true}},
		{"no-idf", Ablation{DisableIDF: true}},
		{"no-norm", Ablation{DisableNorm: true}},
	}
	for _, sc := range scenarios {
		for _, seed := range []int64{3, 19} {
			t.Run(fmt.Sprintf("%s/seed%d", sc.name, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				cfg := Defaults()
				cfg.Ablation = sc.abl

				ground := GenerateCab(CabOptions{NumTaxis: 14, Days: 2, MeanRecordIntervalSec: 420, Seed: seed})
				w := SampleWorkload(&ground, SampleOptions{
					IntersectionRatio: 0.5, InclusionProbE: 0.7, InclusionProbI: 0.7, Seed: seed + 1,
				})
				lk, err := NewLinker(w.E, w.I, cfg)
				if err != nil {
					t.Fatal(err)
				}
				lk.Run()
				requireBreakdownParity(t, lk, "seed")

				lo, hi, _ := w.E.TimeRange()
				es := lk.EntitiesE()
				is := lk.EntitiesI()
				// The same churn kinds as the relink parity suite:
				// re-observations, new cells, range growth in both
				// directions, and a brand-new entity pair.
				for burst, kind := range []int{0, 2, 1, 3, 4} {
					switch kind {
					case 0:
						for k := 0; k < 4; k++ {
							u := es[rng.Intn(len(es))]
							lk.AddE(NewRecord(u, 37.2+rng.Float64()*0.1, -121.9, lo+rng.Int63n(hi-lo)))
						}
					case 1:
						v := is[rng.Intn(len(is))]
						r := NewRecord(v, 37.6+rng.Float64(), -121.5, lo+rng.Int63n(hi-lo))
						r.RadiusKm = 0.5 + rng.Float64()
						lk.AddI(r)
					case 2:
						hi += 86400
						lk.AddI(NewRecord(is[rng.Intn(len(is))], 37.3, -121.8, hi))
					case 3:
						lo -= 86400
						lk.AddE(NewRecord(es[rng.Intn(len(es))], 37.3, -121.8, lo))
					case 4:
						for k := 0; k < 6; k++ {
							unix := lo + rng.Int63n(hi-lo)
							lk.AddE(NewRecord("fresh-e", 37.2+float64(k%3)*0.05, -121.9, unix))
							lk.AddI(NewRecord("fresh-i", 37.2+float64(k%3)*0.05, -121.9, unix+40))
						}
					}
					lk.Run()
					requireBreakdownParity(t, lk, fmt.Sprintf("burst %d (kind %d)", burst, kind))
				}
			})
		}
	}
}

// TestLinkerExplainJoinsAllLayers exercises the joined provenance query
// on an LSH-enabled linker: for a published link, the breakdown total
// must equal the retained edge score bit for bit, the candidate lineage
// must agree with the pair being a candidate (band-collision invariant
// included), and the edge lineage must carry the run stamps.
func TestLinkerExplainJoinsAllLayers(t *testing.T) {
	cfg := Defaults()
	cfg.LSH = &LSHConfig{Threshold: 0.01, StepWindows: 48, SpatialLevel: 13, NumBuckets: 1 << 14}
	ground := GenerateCab(CabOptions{NumTaxis: 14, Days: 2, MeanRecordIntervalSec: 420, Seed: 5})
	w := SampleWorkload(&ground, SampleOptions{
		IntersectionRatio: 0.6, InclusionProbE: 0.7, InclusionProbI: 0.7, Seed: 6,
	})
	lk, err := NewLinker(w.E, w.I, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := lk.Run()
	if len(res.Links) == 0 {
		t.Fatal("workload produced no links")
	}
	for _, l := range res.Links {
		ex := lk.Explain(l.U, l.V)
		if ex.Breakdown == nil || !ex.Breakdown.Known {
			t.Fatalf("link (%s, %s): breakdown missing or unknown", l.U, l.V)
		}
		if math.Float64bits(ex.Breakdown.Total) != math.Float64bits(l.Score) {
			t.Fatalf("link (%s, %s): breakdown total %v != link score %v",
				l.U, l.V, ex.Breakdown.Total, l.Score)
		}
		if !ex.Edge.Linked {
			t.Fatalf("link (%s, %s): edge lineage not linked", l.U, l.V)
		}
		if ex.Edge.Score != l.Score {
			t.Fatalf("link (%s, %s): lineage score %v != link score %v",
				l.U, l.V, ex.Edge.Score, l.Score)
		}
		if ex.Edge.RescoredSeq == 0 || ex.Edge.RetainedSinceSeq == 0 {
			t.Fatalf("link (%s, %s): lineage missing run stamps: %+v", l.U, l.V, ex.Edge)
		}
		ce := ex.Candidates
		if ce == nil {
			t.Fatalf("link (%s, %s): LSH enabled but candidate lineage nil", l.U, l.V)
		}
		if !ce.Candidate || !ce.HasU || !ce.HasV {
			t.Fatalf("link (%s, %s): candidate lineage %+v, want candidate with both signatures", l.U, l.V, ce)
		}
		if int(ce.BandCount) != len(ce.Collisions) {
			t.Fatalf("link (%s, %s): band count %d != %d collisions",
				l.U, l.V, ce.BandCount, len(ce.Collisions))
		}
		for _, bc := range ce.Collisions {
			if bc.BucketE < 1 || bc.BucketI < 1 {
				t.Fatalf("link (%s, %s): collision %+v has empty bucket side", l.U, l.V, bc)
			}
		}
	}
	// A pair that is not a retained edge explains as unlinked with the
	// breakdown still available.
	ex := lk.Explain("no-such-entity", lk.EntitiesI()[0])
	if ex.Edge.Linked {
		t.Fatalf("unknown pair reported linked: %+v", ex.Edge)
	}
	if ex.Breakdown == nil || ex.Breakdown.Known {
		t.Fatalf("unknown entity should yield an unknown breakdown, got %+v", ex.Breakdown)
	}
}
