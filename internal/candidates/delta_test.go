package candidates

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"slim/internal/history"
	"slim/internal/lsh"
	"slim/internal/model"
)

// pairSet builds a membership set from a pair slice.
func pairSet(ps []lsh.Pair) map[lsh.Pair]struct{} {
	s := make(map[lsh.Pair]struct{}, len(ps))
	for _, p := range ps {
		s[p] = struct{}{}
	}
	return s
}

// diffPairs returns the sorted members of a that are absent from b.
func diffPairs(a []lsh.Pair, b map[lsh.Pair]struct{}) []lsh.Pair {
	var out []lsh.Pair
	for _, p := range a {
		if _, ok := b[p]; !ok {
			out = append(out, p)
		}
	}
	lsh.SortPairs(out)
	return out
}

// requireDeltaExact checks one Update's Delta against the ground truth:
// Added/Removed must equal the set difference of the before/after Pairs()
// snapshots, and Dirty must equal exactly the kept pairs with an endpoint
// among the entities whose histories changed this burst.
func requireDeltaExact(t *testing.T, step string, d Delta, before, after []lsh.Pair,
	burstE, burstI map[model.EntityID]struct{}) {
	t.Helper()
	beforeSet, afterSet := pairSet(before), pairSet(after)
	if wantAdded := diffPairs(after, beforeSet); !slices.Equal(d.Added, wantAdded) {
		t.Fatalf("%s: Added = %v, want set-difference %v", step, d.Added, wantAdded)
	}
	if wantRemoved := diffPairs(before, afterSet); !slices.Equal(d.Removed, wantRemoved) {
		t.Fatalf("%s: Removed = %v, want set-difference %v", step, d.Removed, wantRemoved)
	}
	var wantDirty []lsh.Pair
	for _, p := range after {
		if _, kept := beforeSet[p]; !kept {
			continue
		}
		_, eChanged := burstE[p.U]
		_, iChanged := burstI[p.V]
		if eChanged || iChanged {
			wantDirty = append(wantDirty, p)
		}
	}
	lsh.SortPairs(wantDirty)
	if !slices.Equal(d.Dirty, wantDirty) {
		t.Fatalf("%s: Dirty = %v, want kept-pairs-of-changed-entities %v", step, d.Dirty, wantDirty)
	}
	for _, p := range d.Dirty {
		if _, ok := afterSet[p]; !ok {
			t.Fatalf("%s: Dirty pair %v is not a current candidate", step, p)
		}
	}
}

// TestIndexDeltaExactSetDifference is the Delta API's exactness suite:
// under randomized interleaved E/I bursts of point and region records —
// including in-grid churn (delta updates), range growth in both directions
// (epoch rebuilds), and over-reported dirty entities — every in-grid
// Update's Delta must equal the set difference of the before/after
// candidate sets, with Dirty naming exactly the kept pairs of changed
// entities. A Rebuilt delta carries no pair lists: the caller re-reads
// Pairs(), which requireParity holds to the from-scratch
// lsh.CandidatePairs set after every burst, rebuilds included.
func TestIndexDeltaExactSetDifference(t *testing.T) {
	for _, seed := range []int64{5, 23, 77} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			p := lsh.Params{Threshold: 0.3, StepWindows: 4, SpatialLevel: level, NumBuckets: 256}

			se := history.Build(&model.Dataset{Name: "E"}, wnd, level)
			si := history.Build(&model.Dataset{Name: "I"}, wnd, level)
			x := New(se, si, p)
			if d := x.Update(nil, nil); !d.Empty() {
				t.Fatalf("empty-store update produced a delta: %+v", d)
			}

			base := int64(900 * 100)
			span := int64(900 * 40)
			rebuilds := 0
			for burst := 0; burst < 30; burst++ {
				before := slices.Clone(x.Pairs())
				epochBefore := x.Stats().Epoch
				dirtyE := map[model.EntityID]struct{}{}
				dirtyI := map[model.EntityID]struct{}{}
				nRecs := 1 + rng.Intn(8)
				for k := 0; k < nRecs; k++ {
					side := rng.Intn(2)
					id := fmt.Sprintf("%c%d", "ei"[side], rng.Intn(12))
					unix := base + rng.Int63n(span)
					switch rng.Intn(8) {
					case 0: // stretch the range forward: sigLen grows
						unix = base + span + rng.Int63n(span)
						span += 900 * 10
					case 1: // stretch backward: the grid anchor shifts
						unix = base - rng.Int63n(900*20) - 1
						base -= 900 * 5
					}
					r := rec(id, 37.6+float64(rng.Intn(50))*0.01, -122.4+float64(rng.Intn(50))*0.01, unix)
					if rng.Intn(4) == 0 {
						r.RadiusKm = 0.2 + rng.Float64()*2
					}
					if side == 0 {
						se.Add(r)
						dirtyE[r.Entity] = struct{}{}
					} else {
						si.Add(r)
						dirtyI[r.Entity] = struct{}{}
					}
				}
				// Over-report: an unchanged (or unknown) entity in the dirty
				// set must not surface in the Delta.
				if rng.Intn(3) == 0 {
					if ents := se.Entities(); len(ents) > 0 {
						dirtyE[ents[rng.Intn(len(ents))]] = struct{}{}
					}
					dirtyI["ghost"] = struct{}{}
				}
				burstE, burstI := changedOnly(se, x.sigE, dirtyE), changedOnly(si, x.sigI, dirtyI)
				d := x.Update(dirtyE, dirtyI)
				after := x.Pairs()
				if wantRebuilt := x.Stats().Epoch != epochBefore; d.Rebuilt != wantRebuilt {
					t.Fatalf("burst %d: Rebuilt = %v, epoch moved = %v", burst, d.Rebuilt, wantRebuilt)
				}
				if d.Rebuilt {
					rebuilds++
					if len(d.Added)+len(d.Removed)+len(d.Dirty) != 0 {
						t.Fatalf("burst %d: Rebuilt delta carries pair lists: %+v", burst, d)
					}
				} else {
					requireDeltaExact(t, fmt.Sprintf("burst %d", burst), d, before, after, burstE, burstI)
				}
				requireParity(t, x, se, si, p, fmt.Sprintf("burst %d", burst))
			}
			if rebuilds == 0 {
				t.Fatal("workload never forced an epoch rebuild; the suite must exercise both paths")
			}
		})
	}
}

// changedOnly filters a dirty set down to the entities whose history
// version actually moved since their maintained signature — the ground
// truth for Delta.Dirty membership (over-reported entities are skipped by
// the index's version check).
func changedOnly(store *history.Store, sigs map[model.EntityID]*entitySig, dirty map[model.EntityID]struct{}) map[model.EntityID]struct{} {
	out := make(map[model.EntityID]struct{}, len(dirty))
	for id := range dirty {
		h := store.History(id)
		if h == nil {
			continue
		}
		es := sigs[id]
		if es == nil || es.version != h.Version() {
			out[id] = struct{}{}
		}
	}
	return out
}

// TestIndexDeltaAcrossOneSideEmpty pins the empty-store transitions: no
// delta while one side is empty, and the first build is a bare Rebuilt
// whose Pairs() is the from-scratch candidate set.
func TestIndexDeltaAcrossOneSideEmpty(t *testing.T) {
	p := lsh.Params{Threshold: 0.3, StepWindows: 4, SpatialLevel: level, NumBuckets: 256}
	se := history.Build(&model.Dataset{Name: "E"}, wnd, level)
	si := history.Build(&model.Dataset{Name: "I"}, wnd, level)
	x := New(se, si, p)

	for k := 0; k < 8; k++ {
		se.Add(rec("e0", 37.6, -122.4, int64(900*k)))
	}
	if d := x.Update(map[model.EntityID]struct{}{"e0": {}}, nil); !d.Empty() {
		t.Fatalf("one-side-empty update produced a delta: %+v", d)
	}
	for k := 0; k < 8; k++ {
		si.Add(rec("i0", 37.6, -122.4, int64(900*k+30)))
	}
	d := x.Update(nil, map[model.EntityID]struct{}{"i0": {}})
	if !d.Rebuilt {
		t.Fatal("first build must report Rebuilt")
	}
	if len(d.Added)+len(d.Removed)+len(d.Dirty) != 0 {
		t.Fatalf("first build delta: %+v, want Rebuilt only", d)
	}
	requireParity(t, x, se, si, p, "first build")
	if len(x.Pairs()) == 0 {
		t.Fatal("co-located e0/i0 must be candidates after the first build")
	}
}
