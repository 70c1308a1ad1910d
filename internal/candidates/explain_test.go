package candidates

import (
	"fmt"
	"slices"
	"testing"

	"slim/internal/history"
)

// TestExplainAgreesWithCandidateSet: the candidate set is defined by the
// band keys Explain reads, so after every random burst Explain must call a pair a candidate exactly
// when Pairs() lists it, with Candidate == (BandCount > 0) ==
// (len(Collisions) > 0), for every pair of assigned ordinals and for
// ordinals no table has assigned.
func TestExplainAgreesWithCandidateSet(t *testing.T) {
	for _, tc := range suiteCases {
		t.Run(fmt.Sprintf("seed%d/descending=%v", tc.seed, tc.descending), func(t *testing.T) {
			gen := newBurstGen(tc.seed, tc.descending)
			p := suiteParams
			se, si := sigStore("E", nil, p), sigStore("I", nil, p)
			stores := [2]*history.Store{se, si}
			x := New(se, si, p)
			x.Update(nil, nil)
			candidates := 0
			for burst := 0; burst < 30; burst++ {
				dirty := [2]map[uint32]struct{}{{}, {}}
				for k, nRecs := 0, 1+gen.rng.Intn(8); k < nRecs; k++ {
					side, r := gen.next()
					dirty[side][stores[side].Add(r)] = struct{}{}
				}
				x.Update(dirty[sideE], dirty[sideI])
				pairs := x.Pairs()
				// One ordinal past each table: never signed, never a candidate.
				for u := uint32(0); u <= uint32(se.Ordinals().Len()); u++ {
					for v := uint32(0); v <= uint32(si.Ordinals().Len()); v++ {
						ex := x.Explain(u, v)
						_, listed := slices.BinarySearch(pairs, Key(u, v))
						if ex.Candidate != listed || ex.Candidate != (ex.BandCount > 0) || int(ex.BandCount) != len(ex.Collisions) {
							t.Fatalf("burst %d: Explain(%d,%d): Candidate=%v BandCount=%d len(Collisions)=%d, listed in Pairs()=%v",
								burst, u, v, ex.Candidate, ex.BandCount, len(ex.Collisions), listed)
						}
						if listed {
							candidates++
						}
					}
				}
			}
			if candidates == 0 {
				t.Fatal("no burst left a candidate pair; the test compared nothing")
			}
		})
	}
}
